"""Reference constructions the tests compare the package against.

None of these is on a CLI path: they are fixtures (rings written on labels,
a group ring, the semidirect product's full multiplication table), small
readings of package objects (a ring's label-level tensor, orders, block
products) kept out of `src/`, and brute-force counts on group
tables (conjugacy classes, commuting pairs up to conjugation) that the
package's Burnside counts are checked against, and the split form
evaluated on every vector, which `SplitOrthMap`'s block identities are
checked against, and the scan of the norm-one group for its least element
of order p, which `pick_order_p` is checked against.  `child_env` is the
one environment of every CLI subprocess the tests start.
"""

import itertools
import os
from pathlib import Path

import numpy as np

import anisogauge
from anisogauge import ExtElement, FieldCtx, FusionRing, Mat2, SplitOrthMap, frobenius, ker_norm
from anisogauge import fusionring, ring_to_text
from anisogauge.fusionring import _code_permutation
from anisogauge.gauging import certify_pair
from anisogauge.orthogroup import rotation

SRC = str(Path(anisogauge.__file__).resolve().parent.parent)


def child_env(**overrides) -> dict:
    """The caller's environment with PYTHONPATH at `src`, then `overrides`.
    ANISOGAUGE_BOUND is removed, so verify's cap is its default, and so is
    PYTHONUNBUFFERED, which writes each print at once and would hide a lost
    stdout flush."""
    environ = {**os.environ, "PYTHONPATH": SRC}
    for name in ("ANISOGAUGE_BOUND", "PYTHONUNBUFFERED"):
        environ.pop(name, None)
    return {**environ, **overrides}


def ring_of(basis, unit: str, dual: dict, tensor: dict) -> FusionRing:
    """The ring on the labels `basis`, with `tensor` mapping (i, j) to the
    row {k: N_ij^k} and `dual` mapping each label to its dual.  The entries
    go through `fusionring._pack`, looked up when called so that a patch of
    the module applies.  The unit is taken as named, with no check of the
    unit law."""
    basis = list(basis)
    at = {label: t for t, label in enumerate(basis)}
    entries = [(at[i], at[j], at[k], v) for (i, j), row in tensor.items() for k, v in row.items()]
    return FusionRing(basis, at[unit], [at[dual[label]] for label in basis],
                      *fusionring._pack(len(basis), entries))


def tensor_of(ring: FusionRing) -> dict:
    """{(i, j): {k: N_ij^k}} on labels, the nonzero entries, read from the
    ring's `fusionring v1` text."""
    lines = ring_to_text(ring).splitlines()
    n = int(lines[0].split()[2])
    basis = [line.split()[0] for line in lines[1:n + 1]]
    out: dict = {}
    for line in lines[n + 1:]:
        i, j, k, v = map(int, line.split())
        out.setdefault((basis[i], basis[j]), {})[basis[k]] = v
    return out


def cyclic_group_ring(n: int) -> FusionRing:
    """Group ring of Z/n with basis g0..g(n-1)."""
    labels = [f"g{k}" for k in range(n)]
    dual = {f"g{k}": f"g{(-k) % n}" for k in range(n)}
    tensor = {
        (f"g{a}", f"g{b}"): {f"g{(a + b) % n}": 1} for a in range(n) for b in range(n)
    }
    return ring_of(labels, "g0", dual, tensor)


def perm_of_c(p: int, q: int) -> np.ndarray:
    """The code permutation of v -> c*v for the certified pair (p, q)."""
    pair = certify_pair(p, q)
    return _code_permutation(rotation(pair.ctx, pair.c))


def semidirect_group_table(p: int, q: int) -> np.ndarray:
    """Multiplication table of the extension field (additively) twisted by c.

    Element (v, k) has index k*q^2 + (a0*q + a1); the product is
    (v + c^k w, k + l).  ExistenceViolated unless p | q + 1.
    """
    perm = perm_of_c(p, q)
    q2 = q * q
    xs, ys = np.divmod(np.arange(q2, dtype=np.int64), q)
    vadd = ((xs[:, None] + xs[None, :]) % q) * q + (ys[:, None] + ys[None, :]) % q
    table = np.empty((p * q2, p * q2), dtype=np.int64)
    power = np.arange(q2)  # the code permutation of c^k
    for k in range(p):
        twisted = vadd[:, power]
        for l in range(p):
            table[k * q2:(k + 1) * q2, l * q2:(l + 1) * q2] = (k + l) % p * q2 + twisted
        power = perm[power]
    return table


def _inverses(table: np.ndarray) -> np.ndarray:
    """inv[g], read off the identity: the row that is x -> x."""
    n = len(table)
    e = int(np.nonzero((table == np.arange(n)[None, :]).all(axis=1))[0][0])
    return np.argmax(table == e, axis=1)


def conjugacy_classes(table: np.ndarray) -> list[np.ndarray]:
    """Partition of the element set into conjugacy classes."""
    n = len(table)
    inv = _inverses(table)
    visited = np.zeros(n, dtype=bool)
    classes = []
    for g in range(n):
        if visited[g]:
            continue
        mark = np.zeros(n, dtype=bool)  # np.unique would import numpy.ma
        mark[table[table[:, g], inv]] = True
        cls = np.flatnonzero(mark)
        visited[cls] = True
        classes.append(cls)
    return classes


def commuting_pair_orbits(table: np.ndarray) -> int:
    """Commuting pairs up to simultaneous conjugation, one orbit at a time:
    the rank of the double, counted with no lemma."""
    n = len(table)
    inv = _inverses(table)
    seen = set()
    orbits = 0
    for g in range(n):
        for h in range(n):
            if table[g, h] != table[h, g] or (g, h) in seen:
                continue
            orbits += 1
            for x in range(n):
                seen.add((int(table[table[x, g], inv[x]]), int(table[table[x, h], inv[x]])))
    return orbits


def order(m: Mat2) -> int:
    """The least n >= 1 with m^n = 1."""
    acc, n, identity = m, 1, Mat2.identity(m.q)
    while acc != identity:
        acc, n = acc * m, n + 1
    return n


def dihedral_search(maps: list[Mat2]) -> tuple[Mat2, Mat2]:
    """The generic search for a dihedral presentation of a list of 2n
    matrices, in any order: r is the first map of order n, s the first map
    outside <r>; raises unless s^2 = 1, s r s = r^-1 and the r^i s^j are the
    2n maps."""
    n = len(maps) // 2
    r = next((m for m in maps if order(m) == n), None)
    if r is None:
        raise ArithmeticError("no rotation of maximal order found")
    powers = [Mat2.identity(r.q)]
    for _ in range(n - 1):
        powers.append(powers[-1] * r)
    rotations = set(powers)
    s = next(m for m in maps if m not in rotations)
    if s * s != powers[0] or s * r * s != powers[-1]:
        raise ArithmeticError("s is not an involution inverting r")
    if rotations | {m * s for m in powers} != set(maps) or len(set(maps)) != 2 * n:
        raise ArithmeticError("products r^i s^j do not exhaust the group")
    return r, s


def frobenius_matrix(ctx: FieldCtx) -> Mat2:
    """The Galois reflection: the matrix of frobenius in the basis (1, theta)."""
    f1, ft = frobenius(ctx.one), frobenius(ctx.theta)
    return Mat2(ctx.q, f1.a0, ft.a0, f1.a1, ft.a1)


def apply(m: Mat2, v: tuple[int, int]) -> tuple[int, int]:
    """The matrix m applied to the coordinate pair v."""
    q = m.q
    return ((m.a * v[0] + m.b * v[1]) % q, (m.c * v[0] + m.d * v[1]) % q)


def split_apply(blocks: tuple, cs: tuple) -> tuple[int, int, int, int]:
    """The block map (alpha beta; gamma delta) on coordinates (x0, x1, y0, y1)."""
    alpha, beta, gamma, delta = blocks
    x, y, q = cs[:2], cs[2:], alpha.q
    top = [(u + v) % q for u, v in zip(apply(alpha, x), apply(beta, y))]
    bottom = [(u + v) % q for u, v in zip(apply(gamma, x), apply(delta, y))]
    return tuple(top + bottom)


def split_form(gram: Mat2, cs: tuple) -> int:
    """The split form Q(x, y-hat) = y^T G x on coordinates (x0, x1, y0, y1)."""
    gx = apply(gram, cs[:2])
    return (cs[2] * gx[0] + cs[3] * gx[1]) % gram.q


def preserves_split_form(blocks: tuple, gram: Mat2) -> bool:
    """Whether the block map keeps Q on all q^4 vectors, one at a time."""
    return all(split_form(gram, split_apply(blocks, v)) == split_form(gram, v)
               for v in itertools.product(range(gram.q), repeat=4))


def blocks(m: SplitOrthMap) -> tuple:
    return (m.alpha, m.beta, m.gamma, m.delta)


def compose(a: SplitOrthMap, b: SplitOrthMap) -> SplitOrthMap:
    """The block product a b, checked again to preserve the split form."""
    return SplitOrthMap(
        a.ctx,
        a.alpha * b.alpha + a.beta * b.gamma,
        a.alpha * b.beta + a.beta * b.delta,
        a.gamma * b.alpha + a.delta * b.gamma,
        a.gamma * b.beta + a.delta * b.delta,
        a.gram,
    )


def bicharacter(t, a, c) -> int:
    """Exponent of b(a, c) = t(a+c) - t(a) - t(c) in Z/q, on coordinate
    pairs, for a metric group: the q x q form table t."""
    q = len(t)
    s = ((a[0] + c[0]) % q, (a[1] + c[1]) % q)
    return int(t[s] - t[a] - t[c]) % q


def dims_multiset(census) -> dict[int, int]:
    """{dimension: number of simple objects} of a census."""
    out: dict[int, int] = {}
    for _, dim, count in census.entries:
        out[dim] = out.get(dim, 0) + count
    return out


def order_p_scan(ctx: FieldCtx, p: int) -> ExtElement:
    """The first c != 1 of `ker_norm`, in (a0, a1) order, with c^p = 1: the
    least element of order p, found by raising about q / 2 elements to the
    p-th power."""
    return next(c for c in ker_norm(ctx) if c != ctx.one and c ** p == ctx.one)
