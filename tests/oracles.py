"""Reference constructions the tests compare the package against.

None of these is on a CLI path: they are fixtures (a group ring, the
semidirect product's full multiplication table) and small readings of
package objects (orders, block products, coordinates) kept out of `src/`.
"""

import numpy as np

from anisogauge import ExtElement, FieldCtx, FusionRing, Mat2, SplitOrthMap, frobenius
from anisogauge.fusionring import _code_permutation, _matrix_of_c


def cyclic_group_ring(n: int) -> FusionRing:
    """Group ring of Z/n with basis g0..g(n-1)."""
    labels = [f"g{k}" for k in range(n)]
    dual = {f"g{k}": f"g{(-k) % n}" for k in range(n)}
    tensor = {
        (f"g{a}", f"g{b}"): {f"g{(a + b) % n}": 1} for a in range(n) for b in range(n)
    }
    return FusionRing(labels, "g0", dual, tensor)


def semidirect_group_table(p: int, q: int) -> np.ndarray:
    """Multiplication table of the extension field (additively) twisted by c.

    Element (v, k) has index k*q^2 + (a0*q + a1); the product is
    (v + c^k w, k + l).  ExistenceViolated unless p | q + 1.
    """
    perm = _code_permutation(_matrix_of_c(p, q))
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


def order(m: Mat2) -> int:
    """The least n >= 1 with m^n = 1."""
    acc, n, identity = m, 1, Mat2.identity(m.q)
    while acc != identity:
        acc, n = acc * m, n + 1
    return n


def frobenius_matrix(ctx: FieldCtx) -> Mat2:
    """The Galois reflection: the matrix of frobenius in the basis (1, theta)."""
    f1, ft = frobenius(ctx.one), frobenius(ctx.theta)
    return Mat2(ctx.q, f1.a0, ft.a0, f1.a1, ft.a1)


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


def coords(v) -> tuple[int, int]:
    """Canonical-basis coordinates of a plane vector: (a0, a1) of an
    extension element, the pair itself on the hyperbolic plane."""
    return (v.a0, v.a1) if isinstance(v, ExtElement) else tuple(v)


def bicharacter(mg, a, c) -> int:
    """Exponent of b(a, c) = t(a+c) - t(a) - t(c) in Z/m, on coordinate pairs."""
    m = mg.modulus
    s = ((a[0] + c[0]) % m, (a[1] + c[1]) % m)
    return int(mg.t[s] - mg.t[a] - mg.t[c]) % m


def dims_multiset(census) -> dict[int, int]:
    """{dimension: number of simple objects} of a census."""
    out: dict[int, int] = {}
    for _, dim, count in census.entries:
        out[dim] = out.get(dim, 0) + count
    return out
