"""Orthogonal groups of the 2-dimensional spaces and the split embedding.

Every plane isometry is a `Mat2` in the canonical basis, (1, theta) on the
anisotropic plane.  Enumeration solves for the two columns of each isometry
from the level sets of the form (complete by polarization) and compares
that set with each plane's group built from its dihedral presentation: an
exhibited rotation r of order n (a generator, by the cofactor test) and s.
"""

import itertools

import numpy as np

from .errors import EvenCharacteristic, NotNormOne
from .ffield import ExtElement, FieldCtx, _prime_factors, frobenius, ker_norm, norm
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
        if other.q != q:  # over another field: TypeError
            return NotImplemented
        return Mat2(
            q,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __add__(self, other: "Mat2") -> "Mat2":
        if other.q != self.q:
            return NotImplemented
        return Mat2(self.q, self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        if other.q != self.q:
            return NotImplemented
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


def _matrix_of_map(ctx: FieldCtx, f) -> Mat2:
    """The matrix in the basis (1, theta) of the F_q-linear map f of the extension:
    its columns are the coordinates of f(1) and f(theta)."""
    col1, col2 = f(ctx.one), f(ctx.theta)
    return Mat2(ctx.q, col1.a0, col2.a0, col1.a1, col2.a1)


def rotation(ctx: FieldCtx, c: ExtElement) -> Mat2:
    """The matrix of the rotation v -> c*v in the basis (1, theta), for a
    norm-one c; NotNormOne otherwise."""
    if norm(c) != 1:
        raise NotNormOne(f"norm({c!r}) != 1")
    return _matrix_of_map(ctx, lambda v: c * v)


class SplitOrthMap:
    """A block map (alpha beta; gamma delta) on base + dual, preserving Q.

    The split form is the evaluation form on base + dual.  A functional is
    written as the hat of its preimage y, y-hat = B(y, .), so on coordinates
    (x, y) of the base vector and the preimage, Q(x, y-hat) = y^T G x with
    G = `gram`, the Gram matrix of the base bilinear form B (the hat is
    an isomorphism, since B is non-degenerate).  All four blocks are 2x2
    matrices over F_q in the canonical basis and its hat-dual.
    """

    __slots__ = ("ctx", "alpha", "beta", "gamma", "delta", "gram")

    def __init__(self, ctx: FieldCtx, alpha: Mat2, beta: Mat2, gamma: Mat2,
                 delta: Mat2, gram: Mat2):
        if ctx.q == 2:
            raise EvenCharacteristic("split maps need odd characteristic")
        self.ctx = ctx
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.delta = delta
        self.gram = gram
        if not self._preserves_q():
            raise ArithmeticError("block map does not preserve the split form")

    def apply_coords(self, cs: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
        x = (cs[0], cs[1])
        y = (cs[2], cs[3])
        ax, bx = self.alpha(x), self.beta(y)
        gx, dx = self.gamma(x), self.delta(y)
        q = self.ctx.q
        return ((ax[0] + bx[0]) % q, (ax[1] + bx[1]) % q,
                (gx[0] + dx[0]) % q, (gx[1] + dx[1]) % q)

    def form(self, cs: tuple[int, int, int, int]) -> int:
        """The split form Q on coordinates (x0, x1, y0, y1), as in the class docstring."""
        gx = self.gram(cs[:2])
        return (cs[2] * gx[0] + cs[3] * gx[1]) % self.ctx.q

    def _preserves_q(self) -> bool:
        """Q is quadratic and the map linear, so by polarization it suffices
        that the map preserves Q on each e_i and each e_i + e_j."""
        units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        sums = [tuple(map(sum, zip(u, v))) for u, v in itertools.combinations(units, 2)]
        return all(self.form(self.apply_coords(v)) == self.form(v) for v in units + sums)

    def __repr__(self):
        blocks = [m.entries() for m in (self.alpha, self.beta, self.gamma, self.delta)]
        return f"SplitOrthMap(q={self.ctx.q}, blocks={blocks})"


def split_embedding(space: QuadSpace, g: Mat2) -> SplitOrthMap:
    """Embed a plane isometry g, a canonical-basis matrix, in the split orthogonal group.

    Blocks (with h = 1/2): alpha = delta = h(I + g) and beta = gamma = h(I - g),
    written in the canonical basis and its hat-dual.  The map fixes every
    (v, v-hat) and sends (v, -v-hat) to (g v, -(g v)-hat); with gamma = beta
    and delta = alpha these say alpha + beta = I and alpha - beta = g, which
    are checked as matrix identities, so they hold for every v.  As I + g and
    I - g commute, A = alpha + beta delta beta^-1 = alpha + delta = I + g
    whenever beta is invertible, which is what `gt_criterion` reads.
    """
    ctx = space.ctx
    (g11, g12), (g21, g22) = gram_matrix(space)  # EvenCharacteristic at q = 2
    q = ctx.q
    gram = Mat2(q, g11, g12, g21, g22)
    ident = Mat2.identity(q)
    half = pow(2, -1, q)
    plus = (ident + g).scale(half)
    minus = (ident - g).scale(half)
    if plus + minus != ident:
        raise ArithmeticError("embedding does not fix the diagonal")
    if plus - minus != g:
        raise ArithmeticError("embedding wrong on the antidiagonal")
    return SplitOrthMap(ctx, plus, minus, minus, plus, gram)


def _solve_form_preserving(space: QuadSpace) -> set[tuple[int, int, int, int]]:
    """All invertible 2x2 matrices mod q preserving the form, solved by columns.

    In any characteristic Q(ax + by) = a^2 Q(x) + b^2 Q(y) + ab B'(x, y) with
    B'(x, y) = Q(x + y) - Q(x) - Q(y), so a linear g preserves Q iff it does on
    e1, e2 and e1 + e2: the columns g e1, g e2 range over two level sets of Q.
    `space.certificate` proves the form table is the quadratic form those three
    values, `space.polar_values`, fix, so the argument holds for `space.form`.
    """
    q = space.ctx.q
    form, (q1, q2, _) = space.certificate, space.polar_values
    a, c = (k[:, None] for k in np.nonzero(form == q1))
    b, d = (k[None, :] for k in np.nonzero(form == q2))
    ok = (form[(a + b) % q, (c + d) % q] == form[1, 1]) & ((a * d - b * c) % q != 0)
    i, j = np.nonzero(ok)
    return set(zip(a[i, 0].tolist(), b[0, j].tolist(), c[i, 0].tolist(), d[0, j].tolist()))


def _generator(ctx: FieldCtx, candidates, n: int) -> ExtElement:
    """The first candidate g of order n, for candidates with g^n = 1 by argument
    (norm-one, or in F_q^*): g^(n/l) != 1 for each prime l | n makes n its order."""
    cofactors = [n // ell for ell in _prime_factors(n)]
    g = next((g for g in candidates if all(g ** k != ctx.one for k in cofactors)), None)
    if g is None:
        raise ArithmeticError(f"no element of order {n}: the group is not cyclic")
    return g


def enumerate_orth(space: QuadSpace) -> list[Mat2]:
    """All form-preserving invertible linear maps of a plane, as canonical-basis matrices.

    The maps are r^0 .. r^(n-1), then each r^i s.  Anisotropic (n = q + 1): r
    rotates by a generator of `ker_norm` and s is the matrix of Frobenius.
    Hyperbolic (n = q - 1): r = diag(a, 1/a) for a of order q - 1, and
    s = antidiag(1, 1).  The maps must equal the set solved from the level
    sets of the form, and `dihedral_generators` checks the presentation.
    """
    ctx = space.ctx
    q = ctx.q
    found = _solve_form_preserving(space)
    n = q + 1 if space.kind == ANISOTROPIC else q - 1
    if space.kind == ANISOTROPIC:
        r = rotation(ctx, _generator(ctx, ker_norm(ctx), n))
        s = _matrix_of_map(ctx, frobenius)
    else:
        a = _generator(ctx, map(ctx.elem, range(1, q)), n).a0
        r = Mat2(q, a, 0, 0, pow(a, -1, q))
        s = Mat2(q, 0, 1, 1, 0)
    rotations = list(itertools.accumulate([r] * (n - 1), Mat2.__mul__, initial=Mat2.identity(q)))
    maps = rotations + [m * s for m in rotations]
    if {m.entries() for m in maps} != found:
        raise ArithmeticError(f"{space.kind} orthogonal group: solved set != structured set")
    dihedral_generators(maps)
    return maps


def dihedral_generators(maps: list[Mat2]) -> tuple[Mat2, Mat2]:
    """Read (r, s) off the layout r^0 .. r^(n-1), r^0 s .. r^(n-1) s, n = |maps| / 2,
    and check r^n = s^2 = 1, s r s = r^-1 and that the 2n maps are distinct:
    then they are dihedral of order 2n.  O(n) products, no search."""
    n = len(maps) // 2
    if len(maps) % 2 or not maps:
        raise ArithmeticError(f"{len(maps)} maps are not r^i s^j for i < n, j < 2")
    identity = Mat2.identity(maps[0].q)
    rotations, reflections = maps[:n], maps[n:]
    if rotations[0] != identity:
        raise ArithmeticError("maps[0] is not the identity")
    r, s = rotations[1] if n > 1 else identity, reflections[0]
    for i, (prev, m) in enumerate(zip(rotations, rotations[1:] + [identity]), 1):
        if prev * r != m:
            raise ArithmeticError(f"maps[{i}] is not r^{i}" if i < n else "r^n != 1")
    if any(m * s != t for m, t in zip(rotations, reflections)):
        raise ArithmeticError("the second half is not the first half times s")
    if s * s != identity:
        raise ArithmeticError("s^2 != 1")
    if s * r * s != rotations[-1]:  # r^(n-1) = r^-1
        raise ArithmeticError("s r s != r^-1")
    if len(set(maps)) != 2 * n:
        raise ArithmeticError("the maps r^i s^j are not distinct")
    return r, s
