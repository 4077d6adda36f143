"""Finite quadratic spaces and the metric groups they induce.

Three fixed kinds: the anisotropic plane carried by the norm form of the
quadratic extension, the hyperbolic plane (x, y) -> x*y over F_q, and the
split 4-dimensional space on pairs (vector, functional) with the
evaluation form.  Functionals are always encoded by their preimage under
the hat isomorphism, which keeps the dual space concrete.

Metric-group values are stored as exponents in Z/m (t(a) = exp(2*pi*i*k/m)
with k the stored exponent), never as complex numbers.
"""

import numpy as np

from .errors import EvenCharacteristic, UnsupportedKind
from .ffield import ExtElement, FieldCtx, norm

ANISOTROPIC = "anisotropic"
HYPERBOLIC = "hyperbolic"
SPLIT4 = "split4"


class QuadSpace:
    """Base class; concrete spaces provide form/add/neg/coords."""

    kind: str
    ctx: FieldCtx
    dim: int

    def form(self, v) -> int:
        raise NotImplementedError

    def add(self, v, w):
        raise NotImplementedError

    def neg(self, v):
        raise NotImplementedError

    def vectors(self):
        raise NotImplementedError

    def coords(self, v) -> tuple[int, ...]:
        raise NotImplementedError

    def from_coords(self, cs):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(q={self.ctx.q})"


class AnisotropicSpace(QuadSpace):
    """The extension field as a 2-dimensional space with the norm form."""

    kind = ANISOTROPIC
    dim = 2

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.zero = ctx.zero

    def form(self, v: ExtElement) -> int:
        return norm(v)

    def add(self, v, w):
        return v + w

    def neg(self, v):
        return -v

    def vectors(self):
        return self.ctx.elements()

    def coords(self, v: ExtElement) -> tuple[int, int]:
        return (v.a0, v.a1)

    def from_coords(self, cs) -> ExtElement:
        return self.ctx.elem(cs[0], cs[1])

    def basis(self) -> tuple[ExtElement, ExtElement]:
        return (self.ctx.one, self.ctx.theta)


class HyperbolicSpace(QuadSpace):
    """Pairs over F_q with the form (x, y) -> x*y."""

    kind = HYPERBOLIC
    dim = 2

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.zero = (0, 0)

    def form(self, v: tuple[int, int]) -> int:
        return (v[0] * v[1]) % self.ctx.q

    def add(self, v, w):
        q = self.ctx.q
        return ((v[0] + w[0]) % q, (v[1] + w[1]) % q)

    def neg(self, v):
        q = self.ctx.q
        return ((-v[0]) % q, (-v[1]) % q)

    def vectors(self):
        q = self.ctx.q
        for x in range(q):
            for y in range(q):
                yield (x, y)

    def coords(self, v) -> tuple[int, int]:
        return v

    def from_coords(self, cs):
        q = self.ctx.q
        return (cs[0] % q, cs[1] % q)

    def basis(self):
        return ((1, 0), (0, 1))


class Split4Space(QuadSpace):
    """base + dual with the evaluation form Q(v, w-hat) = B(w, v).

    Vectors are pairs (v, w) of base-space vectors; the second slot is the
    hat-preimage of the functional it denotes.
    """

    kind = SPLIT4
    dim = 4

    def __init__(self, base: QuadSpace):
        if base.ctx.q == 2:
            raise EvenCharacteristic("split space needs odd characteristic")
        self.base = base
        self.ctx = base.ctx
        self.zero = (base.zero, base.zero)

    def form(self, vw) -> int:
        v, w = vw
        return bilinear(self.base, w, v)

    def add(self, vw1, vw2):
        b = self.base
        return (b.add(vw1[0], vw2[0]), b.add(vw1[1], vw2[1]))

    def neg(self, vw):
        b = self.base
        return (b.neg(vw[0]), b.neg(vw[1]))

    def vectors(self):
        allv = list(self.base.vectors())
        for v in allv:
            for w in allv:
                yield (v, w)

    def coords(self, vw) -> tuple[int, int, int, int]:
        return self.base.coords(vw[0]) + self.base.coords(vw[1])

    def from_coords(self, cs):
        return (self.base.from_coords(cs[:2]), self.base.from_coords(cs[2:]))


class Functional:
    """A linear functional on a 2-dim space, encoded by its hat-preimage."""

    __slots__ = ("space", "preimage")

    def __init__(self, space: QuadSpace, preimage):
        self.space = space
        self.preimage = preimage

    def __call__(self, w) -> int:
        return bilinear(self.space, self.preimage, w)

    def __eq__(self, other):
        return (
            isinstance(other, Functional)
            and self.space is other.space
            and self.preimage == other.preimage
        )

    def __hash__(self):
        return hash(("hat", self.space.kind, self.space.coords(self.preimage)))

    def __repr__(self):
        return f"hat({self.preimage!r})"


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
    """The norm form on the extension; anisotropy verified exhaustively."""
    space = AnisotropicSpace(ctx)
    for v in space.vectors():
        if space.form(v) == 0 and v:
            raise ArithmeticError(f"norm form vanishes at {v!r}")
    return space


def build_hyperbolic(ctx: FieldCtx) -> HyperbolicSpace:
    return HyperbolicSpace(ctx)


def metric_group_of(space: QuadSpace) -> MetricGroup:
    """The metric group (A, t) of a 2-dimensional space: t = form mod q."""
    if space.kind == SPLIT4:
        raise UnsupportedKind("metric group only for the 2-dimensional kinds")
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


def hat(space: QuadSpace, v) -> Functional:
    """The functional w -> B(v, w)."""
    if space.ctx.q == 2:
        raise EvenCharacteristic("hat needs odd characteristic")
    if space.kind != ANISOTROPIC:
        raise UnsupportedKind("hat is defined on the anisotropic plane")
    (g11, g12), (g21, g22) = gram_matrix(space)
    # v -> B(v, .) is linear, so it is injective iff the Gram determinant is nonzero
    if (g11 * g22 - g12 * g21) % space.ctx.q == 0:
        raise ArithmeticError("bilinear form degenerate: hat not injective")
    return Functional(space, v)


def gram_matrix(space: QuadSpace) -> tuple[tuple[int, int], tuple[int, int]]:
    """Gram matrix of the polarized bilinear form in the canonical basis."""
    b1, b2 = space.basis()
    return (
        (bilinear(space, b1, b1), bilinear(space, b1, b2)),
        (bilinear(space, b2, b1), bilinear(space, b2, b2)),
    )


def build_split(ctx: FieldCtx) -> Split4Space:
    """The split 4-dimensional space over the anisotropic plane.

    Checks that v -> (v, v) and v -> (v, -v) are an isometry and an
    anti-isometry onto the diagonal copies, complete at every q: both maps
    are linear and the split form is quadratic, so each pulls back to a
    quadratic form on the plane, and two quadratic forms that agree on e1,
    e2 and e1 + e2 agree everywhere by polarization.
    """
    base = build_anisotropic(ctx)
    space = Split4Space(base)
    q = ctx.q
    e1, e2 = base.basis()
    for v in (e1, e2, base.add(e1, e2)):
        if space.form((v, v)) != base.form(v):
            raise ArithmeticError("diagonal embedding is not an isometry")
        if space.form((v, base.neg(v))) != (-base.form(v)) % q:
            raise ArithmeticError("antidiagonal embedding is not an anti-isometry")
    return space
