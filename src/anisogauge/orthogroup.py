"""Orthogonal groups of the 2-dimensional spaces and the split embedding.

The anisotropic orthogonal group is stored structurally: every element is
(c, reflect) acting by v -> c * sigma^reflect(v) with norm(c) = 1, which
turns the dihedral check into a presentation check.  Hyperbolic isometries
are kept as raw 2x2 matrices.  Enumeration solves for the two columns of
each isometry from the level sets of the form (complete by polarization),
cross-checked against the structured set.
"""

import itertools

import numpy as np

from .errors import EvenCharacteristic, NotNormOne
from .ffield import ExtElement, FieldCtx, frobenius, ker_norm, norm
from .quadspace import ANISOTROPIC, QuadSpace, gram_matrix


class Mat2:
    """A 2x2 matrix over F_q, immutable."""

    __slots__ = ("q", "a", "b", "c", "d")

    def __init__(self, q: int, a: int, b: int, c: int, d: int):
        self.q = q
        self.a = a % q
        self.b = b % q
        self.c = c % q
        self.d = d % q

    @classmethod
    def identity(cls, q: int) -> "Mat2":
        return cls(q, 1, 0, 0, 1)

    def __mul__(self, other: "Mat2") -> "Mat2":
        q = self.q
        return Mat2(
            q,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.q, self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.q, self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def scale(self, k: int) -> "Mat2":
        return Mat2(self.q, k * self.a, k * self.b, k * self.c, k * self.d)

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.q

    def tr(self) -> int:
        return (self.a + self.d) % self.q

    def inverse(self) -> "Mat2":
        dt = self.det()
        if dt == 0:
            raise ZeroDivisionError("singular matrix")
        k = pow(dt, -1, self.q)
        return Mat2(self.q, k * self.d, -k * self.b, -k * self.c, k * self.a)

    def transpose(self) -> "Mat2":
        return Mat2(self.q, self.a, self.c, self.b, self.d)

    def __call__(self, v: tuple[int, int]) -> tuple[int, int]:
        q = self.q
        return ((self.a * v[0] + self.b * v[1]) % q, (self.c * v[0] + self.d * v[1]) % q)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return isinstance(other, Mat2) and self.q == other.q and self.entries() == other.entries()

    def __hash__(self):
        return hash((self.q,) + self.entries())

    def __repr__(self):
        return f"Mat2({self.q}; {self.a},{self.b};{self.c},{self.d})"


class AnisoOrthMap:
    """An isometry of the anisotropic plane: v -> c * sigma^reflect(v)."""

    __slots__ = ("ctx", "c", "reflect")

    def __init__(self, ctx: FieldCtx, c: ExtElement, reflect: bool):
        if norm(c) != 1:
            raise NotNormOne(f"norm({c!r}) != 1")
        self.ctx = ctx
        self.c = c
        self.reflect = bool(reflect)

    @classmethod
    def identity(cls, ctx: FieldCtx) -> "AnisoOrthMap":
        return cls(ctx, ctx.one, False)

    def __call__(self, v: ExtElement) -> ExtElement:
        return self.c * (frobenius(v) if self.reflect else v)

    def __mul__(self, other: "AnisoOrthMap") -> "AnisoOrthMap":
        # (c, s)(c', s') = (c * sigma^s(c'), s xor s')
        oc = frobenius(other.c) if self.reflect else other.c
        return AnisoOrthMap(self.ctx, self.c * oc, self.reflect ^ other.reflect)

    def matrix(self) -> Mat2:
        """Matrix in the basis (1, theta)."""
        col1 = self(self.ctx.one)
        col2 = self(self.ctx.theta)
        return Mat2(self.ctx.q, col1.a0, col2.a0, col1.a1, col2.a1)

    def __eq__(self, other):
        return (
            isinstance(other, AnisoOrthMap)
            and self.c == other.c
            and self.reflect == other.reflect
        )

    def __hash__(self):
        return hash((self.c, self.reflect))

    def __repr__(self):
        tag = "*sigma" if self.reflect else ""
        return f"AnisoOrthMap({self.c!r}{tag})"


def rotation(ctx: FieldCtx, c: ExtElement) -> AnisoOrthMap:
    """The rotation v -> c*v for a norm-one c."""
    return AnisoOrthMap(ctx, c, False)


class SplitOrthMap:
    """A block map (alpha beta; gamma delta) on base + dual, preserving Q.

    The split form is the evaluation form on base + dual.  A functional is
    written as the hat of its preimage y, y-hat = B(y, .), so on coordinates
    (x, y) of the base vector and the preimage, Q(x, y-hat) = y^T G x with
    G = `gram`, the Gram matrix of the base bilinear form B (the hat is
    an isomorphism, since B is non-degenerate).  All four blocks are 2x2
    matrices over F_q in the canonical basis and its hat-dual.  `source`
    (optional) records the 2-dim isometry this map was embedded from.
    """

    __slots__ = ("ctx", "q", "alpha", "beta", "gamma", "delta", "gram", "source")

    def __init__(self, ctx: FieldCtx, alpha: Mat2, beta: Mat2, gamma: Mat2,
                 delta: Mat2, gram: Mat2, source: Mat2 | None = None):
        if ctx.q == 2:
            raise EvenCharacteristic("split maps need odd characteristic")
        self.ctx = ctx
        self.q = ctx.q
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.delta = delta
        self.gram = gram
        self.source = source
        if not self._preserves_q():
            raise ArithmeticError("block map does not preserve the split form")

    def apply_coords(self, cs: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
        x = (cs[0], cs[1])
        y = (cs[2], cs[3])
        ax, bx = self.alpha(x), self.beta(y)
        gx, dx = self.gamma(x), self.delta(y)
        q = self.q
        return ((ax[0] + bx[0]) % q, (ax[1] + bx[1]) % q,
                (gx[0] + dx[0]) % q, (gx[1] + dx[1]) % q)

    def form(self, cs: tuple[int, int, int, int]) -> int:
        """The split form Q on coordinates (x0, x1, y0, y1), as in the class docstring."""
        gx = self.gram(cs[:2])
        return (cs[2] * gx[0] + cs[3] * gx[1]) % self.q

    def _preserves_q(self) -> bool:
        """Q is quadratic and the map linear, so by polarization it suffices
        that the map preserves Q on each e_i and each e_i + e_j."""
        units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        sums = [tuple(map(sum, zip(u, v))) for u, v in itertools.combinations(units, 2)]
        return all(self.form(self.apply_coords(v)) == self.form(v) for v in units + sums)

    def __repr__(self):
        blocks = [m.entries() for m in (self.alpha, self.beta, self.gamma, self.delta)]
        return f"SplitOrthMap(q={self.q}, blocks={blocks})"


def split_embedding(space: QuadSpace, g) -> SplitOrthMap:
    """Embed a 2-dim isometry g into the split orthogonal group.

    Blocks (with h = 1/2): alpha = h(I + g), beta = gamma = h(I - g),
    delta = h(I + g), written in the canonical basis and its hat-dual.
    The result fixes every (v, v-hat) and sends (v, -v-hat) to
    (g v, -(g v)-hat).  Both sides of each property are linear in v, so
    checking them on the basis e1, e2 proves them for every v.
    """
    ctx = space.ctx
    q = ctx.q
    if q == 2:
        raise EvenCharacteristic("split embedding needs odd characteristic")
    mg = g.matrix() if isinstance(g, AnisoOrthMap) else g
    ident = Mat2.identity(q)
    half = pow(2, -1, q)
    plus = (ident + mg).scale(half)
    minus = (ident - mg).scale(half)
    (g11, g12), (g21, g22) = gram_matrix(space)
    gram = Mat2(q, g11, g12, g21, g22)
    m = SplitOrthMap(ctx, plus, minus, minus, plus, gram, source=mg)

    for x0, x1 in ((1, 0), (0, 1)):
        if m.apply_coords((x0, x1, x0, x1)) != (x0, x1, x0, x1):
            raise ArithmeticError("embedding does not fix the diagonal")
        gx = mg((x0, x1))
        flipped = m.apply_coords((x0, x1, -x0 % q, -x1 % q))
        if flipped != (gx[0], gx[1], -gx[0] % q, -gx[1] % q):
            raise ArithmeticError("embedding wrong on the antidiagonal")
    return m


def _solve_form_preserving(space: QuadSpace) -> set[tuple[int, int, int, int]]:
    """All invertible 2x2 matrices mod q preserving the form, solved by columns.

    In any characteristic Q(ax + by) = a^2 Q(x) + b^2 Q(y) + ab B'(x, y) with
    B'(x, y) = Q(x + y) - Q(x) - Q(y), so a linear g preserves Q iff it does on
    e1, e2 and e1 + e2: the columns g e1, g e2 range over two level sets of Q.
    `space.certificate` proves the form table is the quadratic form those three
    values fix, so the argument holds for `space.form` as implemented.
    """
    q = space.ctx.q
    cert = space.certificate
    form = cert.table
    a, c = (k[:, None] for k in np.nonzero(form == cert.q1))
    b, d = (k[None, :] for k in np.nonzero(form == cert.q2))
    ok = (form[(a + b) % q, (c + d) % q] == form[1, 1]) & ((a * d - b * c) % q != 0)
    i, j = np.nonzero(ok)
    return set(zip(a[i, 0].tolist(), b[0, j].tolist(), c[i, 0].tolist(), d[0, j].tolist()))


def enumerate_orth(space: QuadSpace):
    """All form-preserving invertible linear maps of a 2-dimensional space.

    Anisotropic: returns the 2(q+1) structured maps, after checking that
    the solved isometry set is exactly the rotations and reflections by
    norm-one elements.  Hyperbolic: returns the 2(q-1) matrices and checks
    that the solved set is exactly diag(a, 1/a) and antidiag(1/a; a).  The
    dihedral presentation is certified in both cases.
    """
    ctx = space.ctx
    q = ctx.q
    found = _solve_form_preserving(space)
    if space.kind == ANISOTROPIC:
        maps = [AnisoOrthMap(ctx, c, False) for c in ker_norm(ctx)]
        maps += [AnisoOrthMap(ctx, c, True) for c in ker_norm(ctx)]
        structured = {m.matrix().entries() for m in maps}
        if structured != found:
            raise ArithmeticError("anisotropic orthogonal group: solved set != structured set")
        dihedral_generators(maps, AnisoOrthMap.identity(ctx))
        return maps
    # hyperbolic: diag(a, a^-1) rotations and antidiag(a^-1; a) reflections
    expected = set()
    for a in range(1, q):
        ainv = pow(a, -1, q)
        expected.add((a, 0, 0, ainv))
        expected.add((0, ainv, a, 0))
    if expected != found:
        raise ArithmeticError("hyperbolic orthogonal group: solved set != structured set")
    mats = [Mat2(q, a, 0, 0, pow(a, -1, q)) for a in range(1, q)]
    mats += [Mat2(q, 0, pow(a, -1, q), a, 0) for a in range(1, q)]
    dihedral_generators(mats, Mat2.identity(q))
    return mats


def dihedral_generators(maps, identity):
    """Exhibit (r, s) with r^n = s^2 = 1, s r s = r^-1, n = |maps| / 2.

    Also checks that the 2n products r^i s^j exhaust the group.  Raises if
    the collection is not dihedral of order 2n.
    """
    n = len(maps) // 2
    r = None
    for m in maps:
        acc, order = m, 1
        while acc != identity:
            acc = acc * m
            order += 1
        if order == n:
            r = m
            break
    if r is None:
        raise ArithmeticError("no rotation of maximal order found")
    powers = [identity]
    for _ in range(n - 1):
        powers.append(powers[-1] * r)
    s = next(m for m in maps if m not in set(powers))
    if s * s != identity:
        raise ArithmeticError("chosen reflection is not an involution")
    rinv = powers[-1]  # r^(n-1) = r^-1
    if s * r * s != rinv:
        raise ArithmeticError("s r s != r^-1")
    elements = set(powers) | {p * s for p in powers}
    if len(elements) != 2 * n or elements != set(maps):
        raise ArithmeticError("products r^i s^j do not exhaust the group")
    return r, s
