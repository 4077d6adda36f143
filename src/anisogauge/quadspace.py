"""Finite quadratic spaces, their certified forms and their metric groups.

Two fixed kinds: the anisotropic plane carried by the norm form of the
quadratic extension, and the hyperbolic plane (x, y) -> x*y over F_q.  The
split form on base + dual lives with its isometries, in
`orthogroup.SplitOrthMap`.  A plane vector is its coordinate pair (x, y)
in the canonical basis, (1, theta) on the anisotropic plane, and
`QuadSpace.form(x, y)` is Q(x e1 + y e2) on either plane.

Each plane certifies its form once (`QuadSpace.certificate`): the q x q
table of the form, one broadcast evaluation, equals a^2 Q(e1) + b^2 Q(e2) +
ab B'(e1, e2) mod q, where B'(x, y) = Q(x + y) - Q(x) - Q(y) is the polar
form.  Each plane derives the three values once (`QuadSpace.polar_values`),
their only home: the certificate, the orthogonal-group solve, the metric
group and the Gram matrix read them there.  The metric group (F_q^2, t) is
that form table: it stores t = Q mod q as exponents in Z/q (t(a) =
exp(2*pi*i*k/q) with k the stored exponent), never as complex numbers.
"""

import functools

import numpy as np

from .errors import BadParameter
from .ffield import ExtElement, FieldCtx, norm


class QuadSpace:
    """A plane F_q^2 with a quadratic form on the coordinates (x, y) of
    x*e1 + y*e2 in the canonical basis; concrete spaces provide the form,
    and a plane's kind is its class."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx

    def form(self, x, y):
        """Q(x*e1 + y*e2) mod q, for integers or int64 arrays that broadcast."""
        raise NotImplementedError

    @functools.cached_property
    def polar_values(self) -> tuple[int, int, int]:
        """Q(e1), Q(e2) and B'(e1, e2) = Q(e1 + e2) - Q(e1) - Q(e2), mod q."""
        q = self.ctx.q
        q1, q2, q12 = (self.form(x, y) % q for x, y in ((1, 0), (0, 1), (1, 1)))
        return q1, q2, (q12 - q1 - q2) % q

    @functools.cached_property
    def certificate(self) -> np.ndarray:
        """The read-only form table: one broadcast evaluation of `form` on the
        q x q grid, certified by polarization at every q, table[x, y] = Q(x e1 +
        y e2) mod q = x^2 q1 + y^2 q2 + xy polar for `polar_values` (q1, q2, polar).

        Raises ArithmeticError unless the table is the quadratic form fixed
        by Q(e1), Q(e2) and Q(e1 + e2).
        """
        q = self.ctx.q
        q1, q2, polar = self.polar_values
        x, y = np.ogrid[:q, :q]
        table = np.broadcast_to(self.form(x, y), (q, q)) % q
        if ((x * x * q1 + y * y * q2 + x * y * polar - table) % q).any():
            raise ArithmeticError("form table is not a quadratic form")
        table.flags.writeable = False
        return table

    def __repr__(self):
        return f"{type(self).__name__}(q={self.ctx.q})"


class AnisotropicSpace(QuadSpace):
    """The extension field as a 2-dimensional space with the norm form."""

    def form(self, x, y):
        return norm(ExtElement(self.ctx, x, y))


class HyperbolicSpace(QuadSpace):
    """Pairs over F_q with the form (x, y) -> x*y."""

    def form(self, x, y):
        return x * y % self.ctx.q


def build_anisotropic(ctx: FieldCtx) -> AnisotropicSpace:
    """The norm form on the extension, anisotropic by argument.

    For the defining polynomial f = x^2 + c1*x + c0, norm(a0 + a1*theta) is
    a0^2 - c1*a0*a1 + c0*a1^2, which is a1^2 * f(-a0/a1) when a1 != 0 and
    a0^2 when a1 = 0.  f has no root in F_q, by the argument in `FieldCtx`,
    so the norm vanishes only at 0.
    """
    return AnisotropicSpace(ctx)


def build_hyperbolic(ctx: FieldCtx) -> HyperbolicSpace:
    return HyperbolicSpace(ctx)


def metric_group_of(space: QuadSpace) -> np.ndarray:
    """The metric group (F_q^2, t = form mod q) of a plane: its form table,
    `space.certificate`.

    Complete by argument on the certificate: the carrier is all of F_q^2,
    so it is closed under addition; t(-v) = t(v) for a quadratic form, so
    t is even; and the bicharacter is the polar form B', which is
    non-degenerate exactly when its Gram determinant
    4 Q(e1) Q(e2) - B'(e1, e2)^2 is nonzero mod q (q = 2 included).
    """
    table = space.certificate
    q1, q2, polar = space.polar_values
    if (4 * q1 * q2 - polar ** 2) % space.ctx.q == 0:
        raise ArithmeticError("bicharacter is degenerate")
    return table


def gram_matrix(space: QuadSpace) -> tuple[tuple[int, int], tuple[int, int]]:
    """Gram matrix of the polarized bilinear form B = B'/2 in the canonical basis."""
    q = space.ctx.q
    if q == 2:
        raise BadParameter("bilinear form needs odd characteristic")
    q1, q2, polar = space.polar_values
    half = polar * pow(2, -1, q) % q
    return ((q1, half), (half, q2))
