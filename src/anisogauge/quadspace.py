"""Finite quadratic spaces and the metric groups they induce.

Two fixed kinds: the anisotropic plane carried by the norm form of the
quadratic extension, and the hyperbolic plane (x, y) -> x*y over F_q.  The
split form on base + dual lives with its isometries, in
`orthogroup.SplitOrthMap`.

Metric-group values are stored as exponents in Z/m (t(a) = exp(2*pi*i*k/m)
with k the stored exponent), never as complex numbers.
"""

import numpy as np

from .errors import EvenCharacteristic
from .ffield import ExtElement, FieldCtx, norm

ANISOTROPIC = "anisotropic"
HYPERBOLIC = "hyperbolic"


class QuadSpace:
    """Base class; concrete spaces provide form/add/vectors/coords."""

    kind: str
    ctx: FieldCtx
    dim: int

    def form(self, v) -> int:
        raise NotImplementedError

    def add(self, v, w):
        raise NotImplementedError

    def vectors(self):
        raise NotImplementedError

    def coords(self, v) -> tuple[int, ...]:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(q={self.ctx.q})"


class AnisotropicSpace(QuadSpace):
    """The extension field as a 2-dimensional space with the norm form."""

    kind = ANISOTROPIC
    dim = 2

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx

    def form(self, v: ExtElement) -> int:
        return norm(v)

    def add(self, v, w):
        return v + w

    def vectors(self):
        return self.ctx.elements()

    def coords(self, v: ExtElement) -> tuple[int, int]:
        return (v.a0, v.a1)

    def basis(self) -> tuple[ExtElement, ExtElement]:
        return (self.ctx.one, self.ctx.theta)


class HyperbolicSpace(QuadSpace):
    """Pairs over F_q with the form (x, y) -> x*y."""

    kind = HYPERBOLIC
    dim = 2

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx

    def form(self, v: tuple[int, int]) -> int:
        return (v[0] * v[1]) % self.ctx.q

    def add(self, v, w):
        q = self.ctx.q
        return ((v[0] + w[0]) % q, (v[1] + w[1]) % q)

    def vectors(self):
        q = self.ctx.q
        for x in range(q):
            for y in range(q):
                yield (x, y)

    def coords(self, v) -> tuple[int, int]:
        return v

    def basis(self):
        return ((1, 0), (0, 1))


class MetricGroup:
    """A finite abelian group with a quadratic form into Z/m exponents."""

    def __init__(self, carrier: list[tuple[int, ...]], modulus: int, t: dict,
                 carrier_modulus: int | None = None):
        self.carrier = carrier
        self.modulus = modulus
        self.carrier_modulus = carrier_modulus if carrier_modulus is not None else modulus
        self.t = t
        self._check()

    def add(self, a, c):
        q = self.carrier_modulus
        return tuple((x + y) % q for x, y in zip(a, c))

    def bicharacter(self, a, c) -> int:
        """Exponent of b(a, c) = t(a+c) - t(a) - t(c) in Z/m."""
        return (self.t[self.add(a, c)] - self.t[a] - self.t[c]) % self.modulus

    def _check(self):
        """Closure, evenness and non-degeneracy, on mixed-radix codes of the carrier."""
        m, cm, n = self.modulus, self.carrier_modulus, len(self.carrier)
        if not n:
            raise ArithmeticError("carrier is empty")
        coords = np.array(self.carrier, dtype=np.int64)
        if ((coords < 0) | (coords >= cm)).any():
            raise ArithmeticError(f"carrier coordinates must lie in [0, {cm})")
        radix = cm ** np.arange(coords.shape[1], dtype=np.int64)
        index = np.full(cm ** coords.shape[1], -1, dtype=np.int64)
        index[coords @ radix] = np.arange(n)
        addtab = index[(coords[:, None] + coords[None]) % cm @ radix]
        if (addtab < 0).any():
            raise ArithmeticError("carrier not closed under addition")
        try:
            tvec = np.array([self.t[a] for a in self.carrier], dtype=np.int64)
        except KeyError as err:
            raise ArithmeticError(f"t has no value at {err.args[0]}") from None
        # a finite carrier closed under addition is a subgroup, so holds -a
        odd = np.flatnonzero(tvec != tvec[index[-coords % cm @ radix]])
        if len(odd):
            raise ArithmeticError(f"t not even at {self.carrier[odd[0]]}")
        # non-degeneracy: the rows a -> b(a, .) must be pairwise distinct
        b = (tvec[addtab] - tvec[:, None] - tvec[None, :]) % m
        if len(np.unique(b, axis=0)) != n:
            raise ArithmeticError("bicharacter is degenerate")

    def __repr__(self):
        return f"MetricGroup(|A|={len(self.carrier)}, m={self.modulus})"


def build_anisotropic(ctx: FieldCtx) -> AnisotropicSpace:
    """The norm form on the extension, anisotropic by argument.

    For the defining polynomial f = x^2 + c1*x + c0, norm(a0 + a1*theta) is
    a0^2 - c1*a0*a1 + c0*a1^2, which is a1^2 * f(-a0/a1) when a1 != 0 and
    a0^2 when a1 = 0.  FieldCtx proves that f has no root in F_q, so the
    norm vanishes only at 0.
    """
    return AnisotropicSpace(ctx)


def build_hyperbolic(ctx: FieldCtx) -> HyperbolicSpace:
    return HyperbolicSpace(ctx)


def metric_group_of(space: QuadSpace) -> MetricGroup:
    """The metric group (A, t) of a 2-dimensional space: t = form mod q."""
    q = space.ctx.q
    carrier = [space.coords(v) for v in space.vectors()]
    t = {space.coords(v): space.form(v) % q for v in space.vectors()}
    return MetricGroup(carrier, q, t)


def bilinear(space: QuadSpace, v, w) -> int:
    """Polarization B(v, w) = (form(v+w) - form(v) - form(w)) / 2."""
    q = space.ctx.q
    if q == 2:
        raise EvenCharacteristic("bilinear form needs odd characteristic")
    inv2 = pow(2, -1, q)
    return (space.form(space.add(v, w)) - space.form(v) - space.form(w)) * inv2 % q


def gram_matrix(space: QuadSpace) -> tuple[tuple[int, int], tuple[int, int]]:
    """Gram matrix of the polarized bilinear form in the canonical basis."""
    b1, b2 = space.basis()
    return (
        (bilinear(space, b1, b1), bilinear(space, b1, b2)),
        (bilinear(space, b2, b1), bilinear(space, b2, b2)),
    )
