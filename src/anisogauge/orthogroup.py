"""Orthogonal groups of the 2-dimensional spaces and the split embedding.

Every plane isometry is a `Mat2` in the canonical basis, (1, theta) on the
anisotropic plane.  Enumeration solves for the two columns of each isometry
from the level sets of the form (complete by polarization) and compares
that set with each plane's group built from its dihedral presentation: an
exhibited rotation r of order n and s.  On the anisotropic plane r rotates
by `ffield.norm_one_generator`, the certified generator the order-p element
also comes from; on the hyperbolic plane the generator behind r is
certified by the cofactor test of `ffield._generator`.  Nothing here factors.
A block map of the split space is certified on its blocks: three 2x2
identities hold iff it preserves the split form on every vector.
"""

import itertools

import numpy as np

from .errors import BadParameter
from .ffield import ExtElement, FieldCtx, _generator, frobenius, norm, norm_one_generator
from .quadspace import AnisotropicSpace, QuadSpace, gram_matrix


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
    norm-one c; BadParameter otherwise."""
    if norm(c) != 1:
        raise BadParameter(f"norm({c!r}) != 1")
    return _matrix_of_map(ctx, lambda v: c * v)


class SplitOrthMap:
    """A block map (alpha beta; gamma delta) on base + dual, preserving Q.

    The split form is the evaluation form on base + dual.  A functional is
    written as the hat of its preimage y, y-hat = B(y, .), so on coordinates
    (x, y) of the base vector and the preimage, Q(x, y-hat) = y^T G x with
    G = `gram`, the Gram matrix of the base bilinear form B (the hat is
    an isomorphism, since B is non-degenerate).  All four blocks are 2x2
    matrices over F_q in the canonical basis and its hat-dual.

    Q of the image of (x, y) is (gamma x + delta y)^T G (alpha x + beta y).
    Its terms in x alone vanish for all x iff gamma^T G alpha is alternating
    (S^T = -S, as 2 is invertible), its terms in y alone iff delta^T G beta
    is, and its cross terms equal y^T G x for all x, y iff
    beta^T G^T gamma + delta^T G alpha = G: so these three identities hold
    iff the map preserves Q on every vector.
    """

    __slots__ = ("ctx", "alpha", "beta", "gamma", "delta", "gram")

    def __init__(self, ctx: FieldCtx, alpha: Mat2, beta: Mat2, gamma: Mat2,
                 delta: Mat2, gram: Mat2):
        if ctx.q == 2:
            raise BadParameter("split maps need odd characteristic")
        if any(m.q != ctx.q for m in (alpha, beta, gamma, delta, gram)):
            raise TypeError(f"a block or the Gram matrix is not over F_{ctx.q}")
        self.ctx = ctx
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.delta = delta
        self.gram = gram
        cross = beta.transpose() * gram.transpose() * gamma + delta.transpose() * gram * alpha
        if not (_alternating(gamma.transpose() * gram * alpha)
                and _alternating(delta.transpose() * gram * beta) and cross == gram):
            raise ArithmeticError("block map does not preserve the split form")

    def __repr__(self):
        blocks = [m.entries() for m in (self.alpha, self.beta, self.gamma, self.delta)]
        return f"SplitOrthMap(q={self.ctx.q}, blocks={blocks})"


def _alternating(s: Mat2) -> bool:
    """Whether x^T s x = 0 for every x, at odd q: s^T = -s."""
    return s.transpose() == s.scale(-1)


def split_embedding(space: QuadSpace, g: Mat2) -> SplitOrthMap:
    """Embed a plane isometry g, a canonical-basis matrix, in the split orthogonal group.

    Blocks (with h = 1/2): alpha = delta = h(I + g) and beta = gamma = h(I - g),
    written in the canonical basis and its hat-dual, so the map fixes every
    (v, v-hat) and sends (v, -v-hat) to (g v, -(g v)-hat).  `SplitOrthMap`
    checks that it preserves the split form, which holds iff g is an
    isometry of `space`; that is the one check of the embedding.  As I + g
    and I - g commute, A = alpha + beta delta beta^-1 = alpha + delta = I + g
    whenever beta is invertible, which is what `gt_criterion` reads.
    """
    ctx = space.ctx
    (g11, g12), (g21, g22) = gram_matrix(space)  # BadParameter at q = 2
    q = ctx.q
    gram = Mat2(q, g11, g12, g21, g22)
    ident = Mat2.identity(q)
    half = pow(2, -1, q)
    plus = (ident + g).scale(half)
    minus = (ident - g).scale(half)
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


def enumerate_orth(space: QuadSpace) -> list[Mat2]:
    """All form-preserving invertible linear maps of a plane, as canonical-basis matrices.

    The maps are r^0 .. r^(n-1), then each r^i s.  Anisotropic (n = q + 1): r
    rotates by `norm_one_generator`, certified of order q + 1 with no list of
    the norm-one group, and s is the matrix of Frobenius.
    Hyperbolic (n = q - 1): r = diag(a, 1/a) for a of order q - 1, and
    s = antidiag(1, 1).  The maps must equal the set solved from the level
    sets of the form, and `dihedral_generators` checks the presentation.
    """
    ctx = space.ctx
    q = ctx.q
    found = _solve_form_preserving(space)
    if isinstance(space, AnisotropicSpace):
        n = q + 1
        r = rotation(ctx, norm_one_generator(ctx))
        s = _matrix_of_map(ctx, frobenius)
    else:
        n = q - 1
        a = _generator(ctx, map(ctx.elem, range(1, q)), n).a0
        r = Mat2(q, a, 0, 0, pow(a, -1, q))
        s = Mat2(q, 0, 1, 1, 0)
    rotations = list(itertools.accumulate([r] * (n - 1), Mat2.__mul__, initial=Mat2.identity(q)))
    maps = rotations + [m * s for m in rotations]
    if {m.entries() for m in maps} != found:
        raise ArithmeticError(f"orthogonal group of {space!r}: solved set != structured set")
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
