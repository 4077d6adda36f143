"""Finite quadratic spaces, their certified forms and their metric groups.

Two fixed kinds: the anisotropic plane carried by the norm form of the
quadratic extension, and the hyperbolic plane (x, y) -> x*y over F_q.  The
split form on base + dual lives with its isometries, in
`orthogroup.SplitOrthMap`.

Each plane certifies its form once (`QuadSpace.certificate`): the q^2 table
of the form equals a^2 Q(e1) + b^2 Q(e2) + ab B'(e1, e2) mod q, where
B'(x, y) = Q(x + y) - Q(x) - Q(y) is the polar form.  The orthogonal-group
solve and the metric group read its three values; the Gram matrix
recomputes them with `_polar_values`, so it never builds the q^2 table.  The
metric group (F_q^2, t) is the certificate itself: its table stores
t = Q mod q as exponents in Z/q (t(a) = exp(2*pi*i*k/q) with k the stored
exponent), never as complex numbers.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EvenCharacteristic
from .ffield import ExtElement, FieldCtx, norm

ANISOTROPIC = "anisotropic"
HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True, eq=False)
class FormCertificate:
    """A plane's form, certified to be the quadratic form with these values.

    `q1`, `q2` and `polar` are Q(e1), Q(e2) and B'(e1, e2) mod q, and
    `table[x, y]` = Q(x e1 + y e2) mod q = x^2 q1 + y^2 q2 + xy polar.
    """

    q1: int
    q2: int
    polar: int
    table: np.ndarray


def _polar_values(space: "QuadSpace") -> tuple[int, int, int]:
    """Q(e1), Q(e2) and B'(e1, e2) = Q(e1 + e2) - Q(e1) - Q(e2), mod q."""
    q = space.ctx.q
    q1, q2, q12 = (space.form(space.vector(x, y)) % q for x, y in ((1, 0), (0, 1), (1, 1)))
    return q1, q2, (q12 - q1 - q2) % q


class QuadSpace:
    """Base class; concrete spaces provide form and vector."""

    kind: str

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx

    def form(self, v) -> int:
        raise NotImplementedError

    def vector(self, x: int, y: int):
        """The vector x*e1 + y*e2 of the canonical basis."""
        raise NotImplementedError

    def vectors(self):
        """All q^2 vectors, in (x, y) lexicographic order."""
        q = self.ctx.q
        return (self.vector(x, y) for x in range(q) for y in range(q))

    @functools.cached_property
    def certificate(self) -> FormCertificate:
        """The form table, built once and certified by polarization.

        Raises ArithmeticError unless the table is the quadratic form fixed
        by Q(e1), Q(e2) and Q(e1 + e2).
        """
        q = self.ctx.q
        q1, q2, polar = _polar_values(self)
        table = np.array([self.form(v) for v in self.vectors()], dtype=np.int64).reshape(q, q) % q
        x, y = np.ogrid[:q, :q]
        if ((x * x * q1 + y * y * q2 + x * y * polar - table) % q).any():
            raise ArithmeticError("form table is not a quadratic form")
        table.flags.writeable = False
        return FormCertificate(q1, q2, polar, table)

    def __repr__(self):
        return f"{type(self).__name__}(q={self.ctx.q})"


class AnisotropicSpace(QuadSpace):
    """The extension field as a 2-dimensional space with the norm form."""

    kind = ANISOTROPIC

    def form(self, v: ExtElement) -> int:
        return norm(v)

    def vector(self, x: int, y: int) -> ExtElement:
        return ExtElement(self.ctx, x, y)


class HyperbolicSpace(QuadSpace):
    """Pairs over F_q with the form (x, y) -> x*y."""

    kind = HYPERBOLIC

    def form(self, v: tuple[int, int]) -> int:
        return (v[0] * v[1]) % self.ctx.q

    def vector(self, x: int, y: int) -> tuple[int, int]:
        return (x % self.ctx.q, y % self.ctx.q)


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


def metric_group_of(space: QuadSpace) -> FormCertificate:
    """The metric group (F_q^2, t = form mod q) of a plane: its certificate.

    Complete by argument on `space.certificate`: the carrier is all of
    F_q^2, so it is closed under addition; t(-v) = t(v) for a quadratic
    form, so t is even; and the bicharacter is the polar form B', which is
    non-degenerate exactly when its Gram determinant
    4 Q(e1) Q(e2) - B'(e1, e2)^2 is nonzero mod q (q = 2 included).
    """
    cert = space.certificate
    if (4 * cert.q1 * cert.q2 - cert.polar ** 2) % space.ctx.q == 0:
        raise ArithmeticError("bicharacter is degenerate")
    return cert


def gram_matrix(space: QuadSpace) -> tuple[tuple[int, int], tuple[int, int]]:
    """Gram matrix of the polarized bilinear form B = B'/2 in the canonical basis."""
    q = space.ctx.q
    if q == 2:
        raise EvenCharacteristic("bilinear form needs odd characteristic")
    q1, q2, polar = _polar_values(space)
    half = polar * pow(2, -1, q) % q
    return ((q1, half), (half, q2))
