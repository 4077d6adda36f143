"""Fusion rings, simple-object censuses, and group-rank oracles.

A ring lives on basis indices: its one constructor takes integer arrays,
and basis labels appear only at I/O, in reports and in the `fusionring v1`
text.  The product of basis elements i and j is coef[i, j] times basis
element prod[i, j] or, where prod[i, j] < 0, times the multi-term row
multi[-1 - prod[i, j]], stored primitive (gcd 1, first nonzero positive)
and distinct.  verify_axioms certifies associativity and reciprocity on a
generating set S certified by closure: Light's test on the |S| n^2 triples
with a middle in S, then the anti-involution (x s)^* = s^* x^* on the |S| n
cells (x, s).  When either fails, a full scan reports the first
counterexample.  `_pack` is the one normaliser: `ring_from_text` hands it
flat index entries (i, j, k, v), and it makes the multi-term rows primitive
and distinct; build_extension_ring builds its arrays in that form.  The
ring itself is the only n x n storage, read-only, with prod and coef each
in the smallest signed dtype that holds its values (prod in [-r, n - 1] for
r multi-term rows): at most 3 bytes a cell for the extension ring while
q < 128.  Every reader widens what it gathers to int64, or combines it only
with int64 arrays, before doing arithmetic on it; comparisons and indexing
may read the narrow values.  The certificates (unit, duality, Light's test,
the full scans, the character check) walk the n x n arrays in
`_row_blocks`, so that no int64 temporary holds more than about
_BLOCK_CELLS cells, and Light's test, the duality scan and the character
check reuse scratch allocated once a call; the generator closure reads
only the generators' rows and columns.  Light's test compares single-term sides cell to cell and
handles each multi-term x s (or s y) once over all y (or all x): one
gathered grid over its support, summed by np.add.at on flat indices, less
the other side, one cell a pair, so a multi-term middle costs a few
single-term ones.  The extension ring is built in its narrow dtypes from
the addition table of Z/q.  `gauging.ring_widths` gives the byte widths
of prod and coef, and refuses a ring over `gauging.RING_BYTE_BUDGET`
before any of it is allocated.  fp_dims iterates an integer fixed point
on the n cells (i, i^*) before the character check; there is no floating
point.  Censuses are `gauging.Census` inventories (label, dimension, count)
whose weighted square sum must reproduce the declared global dimension.
The little-group census and the class count act on the same codes, through
the matrix M of v -> c*v for the c of a `gauging.CertifiedPair`: the census
walks, by `_free_orbits`, the free orbits of the dual action w -> M^T w on
the characters, and the class count reads the permutation of M itself.  The
class count is Burnside's count of commuting pairs, from the group law, with
no (p q^2)^2 table, and runs only while p*q^2 is at most
`gauging.COMPLETE_BOUND`.  drinfeld_double_rank certifies a
multiplication table as a group by verify_axioms on its group ring (the table
as prod, coef 1, the inverses as duals) and counts the rank of the double by
Burnside's lemma applied twice: commuting triples over the group order.  The
equivariantization census and DOUBLE_RANK_BOUND, re-exported here, live in
the numpy-free `gauging` module, which certifies the orbit count by argument.
"""

import itertools
import math
from array import array
from collections import namedtuple

import numpy as np

from . import gauging
from .errors import BadParameter, BoundExceeded, decimal
from .gauging import DOUBLE_RANK_BOUND, Census, CertifiedPair, equivariantization_census
from .orthogroup import Mat2, rotation

MAX_COEF = 2 ** 15  # keeps every int64 product and sum in the checks exact
_BLOCK_CELLS = 2 ** 15  # cap on the cells of each int64 temporary, widened from the narrow ring


class FusionRing:
    """prod, coef (n x n) and multi (r x n) as in the module docstring, plus
    unit_index and dual_index, all read-only.  Axioms are not validated here.
    """

    def __init__(self, basis, unit: int, dual, prod, coef, multi):
        """Store the arrays as given and make them read-only, so that no
        in-place write can wrap silently in a narrow dtype.  They must be in
        the form `_pack` gives: prod and coef in the widths of `gauging.ring_widths`,
        and the multi rows int64, primitive and distinct."""
        self.basis, self.unit_index = basis, unit
        self.dual_index = np.asarray(dual, dtype=np.int64)
        self.prod, self.coef, self.multi = prod, coef, multi
        for a in (self.prod, self.coef, self.multi, self.dual_index):
            a.flags.writeable = False

    def _coeffs(self, a, b, c) -> np.ndarray:
        """N(a, b; c) for broadcastable index arrays a, b, c."""
        t, v = _gather(self, (a, b))
        out = np.where(t == c, v, 0)
        multi = t < 0
        if multi.any():
            out[multi] = v[multi] * self.multi[-1 - t[multi], np.broadcast_to(c, t.shape)[multi]]
        return out

    def __repr__(self):
        return f"FusionRing(rank={len(self.basis)}, unit={self.basis[self.unit_index]!r})"


def _row_blocks(rows: int, width: int):
    """Consecutive slices of range(rows), each of about _BLOCK_CELLS / width rows
    (at least one), so a (block x width) temporary holds about _BLOCK_CELLS cells."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return (slice(lo, min(lo + step, rows)) for lo in range(0, rows, step))


def _gather(ring: FusionRing, cells):
    """prod and coef at `cells`, widened to int64 for arithmetic."""
    return ring.prod[cells].astype(np.int64), ring.coef[cells].astype(np.int64)


def _block_entries(ring: FusionRing, rows: slice):
    """The nonzero N(i, j; k) = v with i in `rows`, as index arrays (i, j, k, v)
    in pieces, each in lexicographic order: first the single-term cells, then
    the multi-term cells, expanded in `_row_blocks` chunks."""
    n = len(ring.basis)
    t, c = ring.prod[rows], ring.coef[rows]  # narrow, widened at each gather below
    i, j = np.nonzero((t >= 0) & (c != 0))
    yield i + rows.start, j, t[i, j].astype(np.int64), c[i, j].astype(np.int64)
    mi, mj = np.nonzero(t < 0)
    for chunk in _row_blocks(len(mi), n):
        ci, cj = mi[chunk], mj[chunk]
        scaled = ring.multi[-1 - t[ci, cj].astype(np.int64)] * c[ci, cj, None].astype(np.int64)
        r, k = np.nonzero(scaled)
        yield ci[r] + rows.start, cj[r], k, scaled[r, k]


def _pack(n: int, entries):
    """prod, coef and multi from index entries (i, j, k, v), v an int: the
    one place where a ring's arrays are normalised, called by
    `ring_from_text` on the entries of the text.  Sorted by cell (i, j)
    and k, a repeated (i, j, k) is refused before zero entries are dropped.
    Each cell's scale is the gcd of its |v|, signed like the entry of least
    k, and goes to coef; a multi-term cell's row divided by it is primitive,
    and equal rows are stored once, keyed by a dict.  prod and coef take the
    widths of `gauging.ring_widths`, so an oversized ring is refused before
    any of the three arrays is allocated."""
    flat = array("q")
    for i, j, k, v in entries:
        if abs(v) > MAX_COEF:  # on the int, before int64 could overflow
            raise BadParameter(f"a coefficient of N({i},{j};-) exceeds {MAX_COEF}")
        flat.extend((i * n + j, k, v))
    table = np.frombuffer(flat, dtype=np.int64).reshape(-1, 3)
    table = table[np.lexsort((table[:, 1], table[:, 0]))]  # by cell, then k
    repeat = np.flatnonzero((np.diff(table[:, :2], axis=0) == 0).all(axis=1))
    if len(repeat):
        (i, j), k = divmod(int(table[repeat[0], 0]), n), table[repeat[0], 1]
        raise BadParameter(f"entry {i} {j} {k} is repeated")
    cell, k, v = table[table[:, 2] != 0].T
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    size = np.diff(starts, append=len(cell))
    scale = np.gcd.reduceat(np.abs(v), starts) * np.sign(v[starts])
    w = v // np.repeat(scale, size)
    row, rows = np.full(len(starts), -1), {}  # each cell's multi row id, or -1
    for s in np.flatnonzero(size > 1).tolist():
        part = slice(starts[s], starts[s] + size[s])
        row[s] = rows.setdefault((k[part].tobytes(), w[part].tobytes()), len(rows))
    pw, cw = gauging.ring_widths(n, len(rows), scale.min(initial=0), scale.max(initial=0))
    prod, coef = np.zeros(n * n, dtype=f"i{pw}"), np.zeros(n * n, dtype=f"i{cw}")
    prod[cell[starts]], coef[cell[starts]] = np.where(row < 0, k[starts], -1 - row), scale
    multi, at = np.zeros((len(rows), n), dtype=np.int64), np.repeat(row, size)
    multi[at[at >= 0], k[at >= 0]] = w[at >= 0]  # equal rows write equal values
    return prod.reshape(n, n), coef.reshape(n, n), multi


# four bools, then the text of the first failure or None
AxiomReport = namedtuple("AxiomReport", "passed unit_ok assoc_ok duality_ok counterexample",
                         defaults=(None,))


def build_extension_ring(pair: CertifiedPair) -> FusionRing:
    """The graded ring of a certified pair (p | q + 1), with invertibles
    from the extension field and X_1..X_{p-1}.

    Rules: a*b = a+b on invertibles, a*X_i = X_i*a = X_i,
    X_i*X_j = q*X_{i+j} for i+j != p and the sum of all invertibles for
    i+j = p; X_i^* = X_{p-i}.  BoundExceeded, before any allocation, for a
    ring over `gauging.RING_BYTE_BUDGET`.  The invertible (a0, a1) has index
    a0*q + a1, and X_i has q^2 + i - 1.
    """
    p, q = pair.p, pair.q
    pw, cw = gauging.extension_ring_widths(p, q)
    q2, n, deg = q * q, q * q + p - 1, np.arange(1, p, dtype=np.int64)
    xs, a, neg = q2 + deg - 1, np.arange(q), -np.arange(q) % q
    basis = [f"g{t // q}_{t % q}" for t in range(q2)] + [f"X{i}" for i in range(1, p)]
    dual = np.concatenate([(neg[:, None] * q + neg).ravel(), xs[::-1]])
    prod, coef = np.empty((n, n), dtype=f"i{pw}"), np.ones((n, n), dtype=f"i{cw}")
    # prod[a0 q + a1, b0 q + b1] = add[a0, b0] q + add[a1, b1] for the addition
    # table of Z/q, written in the narrow dtype through a (q, q, q, q) view
    add = ((a[:, None] + a) % q).astype(f"i{pw}")
    np.add(add[:, None, :, None] * q, add[None, :, None, :], out=prod[:q2, :q2].reshape(q, q, q, q))
    prod[:q2, q2:], prod[q2:, :q2] = xs, xs[:, None]
    total = (deg[:, None] + deg) % p
    prod[q2:, q2:] = np.where(total == 0, -1, q2 + total - 1)
    coef[q2:, q2:] = np.where(total == 0, 1, q)
    multi = (np.arange(n) < q2).astype(np.int64)[None]  # X_i X_{p-i}: the sum of all invertibles
    return FusionRing(basis, 0, dual, prod, coef, multi)


def _scratch(buf: np.ndarray, shape) -> np.ndarray:
    """The first cells of the flat buffer buf, as an array of the given shape."""
    return buf[:math.prod(shape)].reshape(shape)


def _spread(ring: FusionRing, out: np.ndarray, r, t, c, at: np.ndarray) -> None:
    """out[r[i]] += c[i] * (row t[i]) over the cells of t and c (one shape, c
    int64, r broadcast), repeats summed: np.add.at on flat indices in the
    scratch `at` adds each cell at column t (0 if multi-term), then each
    multi-term cell its row less that term, in `_row_blocks` chunks."""
    n, flat = out.shape[1], out.reshape(-1)
    at = np.add(r * n, t, out=_scratch(at, t.shape)).reshape(-1)
    cells = np.flatnonzero(t < 0)
    multi = np.unravel_index(cells, t.shape)
    at[cells] -= t[multi]
    np.add.at(flat, at, c.reshape(-1))
    at, t, c = at[cells], t[multi], c[multi]
    for chunk in _row_blocks(len(at), n):
        terms = ring.multi[-1 - t[chunk]] * c[chunk, None]
        terms[:, 0] -= c[chunk]
        i, k = np.nonzero(terms)
        np.add.at(flat, at[chunk][i] + k, terms[i, k])


def _cell_rows(ring: FusionRing, buf: np.ndarray, t, c) -> np.ndarray:
    """The rows c[i] * (row t[i]) as a (len(t), n) view of the int64 buffer
    buf: one cell a row, so no repeats to sum.  t and c may be narrow."""
    out = _scratch(buf, (len(t), len(ring.basis)))
    multi = t < 0
    if multi.any():  # so ring.multi has a row 0, scaled by 0 where t >= 0
        np.multiply(ring.multi[np.where(multi, -1 - t, 0)], np.where(multi, c, 0)[:, None],
                    out=out)
    else:
        out.fill(0)
    single = np.flatnonzero(~multi)
    out[single, t[single]] = c[single]
    return out


def _difference(ring: FusionRing, space: np.ndarray, t1, c1, t, coefs, w) -> np.ndarray:
    """The (k, n) rows sum_j w[j] coefs[j, i] (row t[j, i]) - c1[i] (row t1[i])
    for i < k = len(t1), on (len(w), k) grids t and coefs, in space[0]; the
    grid's int64 values and flat indices go to space[1] and space[2]."""
    out = _cell_rows(ring, space[0], t1, -c1)
    values = np.multiply(w[:, None], coefs, out=_scratch(space[1], t.shape))
    _spread(ring, out, np.arange(len(t1)), t, values, space[2])
    return out


def _first_assoc_failure(ring: FusionRing, middles) -> tuple | None:
    """The lexicographically first basis triple (x, s, y) with s in `middles`
    and (x s) y != x (s y), or None.  For each s, walks x in `_row_blocks`
    and stops at the first block with a failure.  Where x s and s y are
    single-term, each side is one scaled cell, compared as a (row,
    coefficient) pair.  Each multi-term s y is handled once for the block's
    x, and each multi-term x s once for all y in `_row_blocks`: the side over
    the support m of that product is one gathered grid, prod[xs][:, m] or
    prod[m, ys], and the other, one cell a pair, is subtracted in
    `_difference`; where both are multi-term, the x s pass spreads x (s y)
    too.  The int64 blocks, about _BLOCK_CELLS cells each, reuse one scratch
    allocation.  The rows and columns of s are widened to int64, so their
    products with narrow coef gathers are int64; prod is only compared or
    used as indices.
    """
    prod, coef, n = ring.prod, ring.coef, len(ring.basis)
    # int64 blocks, reused: fresh ones would fault in pages the heap gave back
    space = np.empty((3, next(_row_blocks(n, n)).stop * n), dtype=np.int64)
    first = None
    for s in middles:
        (ls, lc), (rs, rc) = _gather(ring, (slice(None), s)), _gather(ring, s)  # x s, s y
        a, b = np.maximum(ls, 0), np.maximum(rs, 0)
        for rows in _row_blocks(n, n):
            ar, single, shape = a[rows], ls[rows] >= 0, (rows.stop - rows.start, n)
            lv = np.multiply(lc[rows, None], coef[ar], out=_scratch(space[0], shape))
            rv = np.multiply(rc, coef[rows][:, b], out=_scratch(space[1], shape))
            bad = (lv != rv) | ((prod[ar] != prod[rows][:, b]) & (lv != 0))
            for y in np.flatnonzero(rs < 0):  # x (s y) over the support m of s y
                w = ring.multi[-1 - rs[y]] * rc[y]
                m = np.flatnonzero(w)
                cheap = np.where(single, lc[rows] * coef[ar, y], 0)
                out = _difference(ring, space, prod[ar, y], cheap,
                                  prod[rows][:, m].T, coef[rows][:, m].T, w[m])
                bad[single, y] = out.any(axis=1)[single]
            for x in rows.start + np.flatnonzero(~single):  # (x s) y over the support m of x s
                w = ring.multi[-1 - ls[x]] * lc[x]
                m = np.flatnonzero(w)
                for cols in _row_blocks(n, n):
                    bc, single_y = b[cols], rs[cols] >= 0
                    cheap = np.where(single_y, rc[cols] * coef[x, bc], 0)
                    out = _difference(ring, space, prod[x, bc], cheap,
                                      prod[m, cols], coef[m, cols], w[m])
                    ym = np.flatnonzero(~single_y)  # x (s y) with s y multi-term too
                    if len(ym):
                        terms = ring.multi[-1 - rs[cols][ym]] * rc[cols][ym, None]
                        i, j = np.nonzero(terms)
                        _spread(ring, out, ym[i], prod[x, j], -terms[i, j] * coef[x, j], space[2])
                    bad[x - rows.start, cols] = out.any(axis=1)
            hits = np.flatnonzero(bad)
            if len(hits):
                x, y = divmod(int(hits[0]), n)
                first = min(first or (n, n, n), (rows.start + x, int(s), y))
                break
    return first


def _generators(ring: FusionRing) -> list[int]:
    """A generating set S, chosen greedily and certified by closure: from the
    unit, add the smallest unreached index to S and close the reached set
    under single-term products a s and s a (a reached, s in S; a nonzero
    coefficient c puts (a s) / c in the subalgebra S generates), until every
    basis element is reached.  For the extension ring S = {g0_1, g1_0, X1}.
    """
    reached = np.zeros(len(ring.basis), dtype=bool)
    reached[ring.unit_index] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        new = np.array(gens[-1:])
        while not reached[new].all():
            reached[new] = True
            r, s = np.flatnonzero(reached), np.array(gens)
            cells = [(r[:, None], s), (s[:, None], r)]  # a s and s a
            t = np.concatenate([ring.prod[cell].ravel() for cell in cells])
            c = np.concatenate([ring.coef[cell].ravel() for cell in cells])
            new = t[(t >= 0) & (c != 0)]
    return gens


def _duality_problem(ring: FusionRing) -> str | None:
    """The first failure of the duality involution or of N(i, j; unit) = [j = i^*],
    the second checked in `_row_blocks` of i: N(i, j; unit) is the weight of
    (i, j) under the unit's indicator, less 1 at j = i^*."""
    basis, dual, n = ring.basis, ring.dual_index, len(ring.basis)
    everyone = np.arange(n)
    bad = np.flatnonzero(dual[dual] != everyone)
    if len(bad):
        return f"dual not involutive at {basis[bad[0]]}"
    weigh = _weights(ring, (everyone == ring.unit_index).astype(np.int64))
    space = np.empty(next(_row_blocks(n, n)).stop * n, dtype=np.int64)  # reused by every block
    for rows in _row_blocks(n, n):
        off = weigh(rows, _scratch(space, (rows.stop - rows.start, n)))
        off[np.arange(len(off)), dual[rows]] -= 1
        if off.any():
            r, j = np.argwhere(off)[0]
            i = rows.start + r
            return f"N({basis[i]},{basis[j]};unit) != {int(j == dual[i])}"
    return None


def _reciprocity_problem(ring: FusionRing) -> str | None:
    """The first failure of reciprocity N(i,j;k) = N(i^*,k;j) = N(k,j^*;i) on
    a nonzero entry, by the full scan.

    Walks i in `_row_blocks`, with no sort: the first block with a failure
    holds the lexicographically first one, which is the least of the first
    failure in each lexicographically ordered piece of `_block_entries`
    (single-term cells, multi-term chunks).
    """
    dual, n = ring.dual_index, len(ring.basis)
    for rows in _row_blocks(n, n):
        hits = []
        for i, j, k, v in _block_entries(ring, rows):
            bad = np.flatnonzero((ring._coeffs(dual[i], k, j) != v)
                                 | (ring._coeffs(k, dual[j], i) != v))
            if len(bad):
                hits.append(tuple(int(a[bad[0]]) for a in (i, j, k)))
        if hits:
            return "reciprocity fails at N({},{};{})".format(*(ring.basis[t] for t in min(hits)))
    return None


def _anti_involution_holds(ring: FusionRing, gens) -> bool:
    """(x s)^* = s^* x^* for every basis x and every s in `gens`, that is
    N(x, s; k) = N(s^*, x^*; k^*) for all k: |gens| n cells, the single-term
    ones compared as (row, coefficient) pairs and the others as dense rows
    in `_row_blocks` chunks."""
    dual, n = ring.dual_index, len(ring.basis)
    for s in gens:
        (lt, lc), (rt, rc) = _gather(ring, (slice(None), s)), _gather(ring, (dual[s], dual))
        single = (lt >= 0) & (rt >= 0)
        if ((lc != rc) | ((dual[np.maximum(lt, 0)] != rt) & (lc != 0)))[single].any():
            return False
        multi = np.flatnonzero(~single)
        for chunk in _row_blocks(len(multi), n):
            x = multi[chunk]
            left, right = (_cell_rows(ring, np.empty(len(x) * n, dtype=np.int64), t[x], c[x])
                           for t, c in ((lt, lc), (rt, rc)))
            if (left[:, dual] != right).any():
                return False
    return True


def verify_axioms(ring: FusionRing) -> AxiomReport:
    """Unit, duality and associativity check, complete at every rank.

    Unit, the duality involution and N(i, j; unit) = [j = i^*] are
    vectorized array checks, in row blocks.  Associativity is Light's test
    (Clifford & Preston, The Algebraic Theory of Semigroups I, 1.2)
    extended bilinearly: the s with (x s) y = x (s y) for all basis x, y form
    a subalgebra, so the generating set S of `_generators` suffices, |S| n^2
    triples instead of n^3.  If that fails, or the unit law does (the
    certificate needs it), the full scan over every middle s reports the
    lexicographically first failing triple.

    Reciprocity N(i,j;k) = N(i^*,k;j) = N(k,j^*;i) is certified the same
    way (Etingof, Gelaki, Nikshych & Ostrik, Tensor Categories, 3.1): once
    the unit law, the involution and N(i, j; unit) hold and Light's test
    passes on S, it checks the anti-involution (x s)^* = s^* x^* for every
    basis x and every s in S, |S| n cells.  That is enough:
    - the y with (x y)^* = y^* x^* for all x form a subalgebra (it holds
      the unit, since unit^* = unit, and by associativity (x y1 y2)^* =
      y2^* (x y1)^* = y2^* y1^* x^*), so it holds on all of the ring;
    - let tau be the coefficient of the unit.  By N(i, j; unit) = [j = i^*]
      tau(i j) = tau(j i) and tau(i^*) = tau(i), and N(i,j;k) = tau(i j k^*);
    - so tau(i j k^*) = tau((i j k^*)^*) = tau(k j^* i^*) = N(k,j^*;i), and
      by symmetry of tau this equals tau(i^* k j^*) = N(i^*,k;j).
    If a premise fails, or the anti-involution does, the full scan over
    every nonzero entry reports the first failure.  The first failing check,
    in the order unit, duality and reciprocity, associativity, names it.
    """
    basis, prod, coef, u = ring.basis, ring.prod, ring.coef, ring.unit_index
    n = len(basis)
    everyone = np.arange(n)
    bad = np.flatnonzero((prod[u] != everyone) | (coef[u] != 1)
                         | (prod[:, u] != everyone) | (coef[:, u] != 1))
    unit = f"unit law fails at {basis[bad[0]]}" if len(bad) else None
    middles = range(n) if unit else _generators(ring)
    fail = _first_assoc_failure(ring, middles)
    certified = fail is None and not unit  # Light's test passed on S
    if fail is not None and not unit:
        fail = _first_assoc_failure(ring, range(n))
    duality = _duality_problem(ring)
    if duality is None and not (certified and _anti_involution_holds(ring, middles)):
        duality = _reciprocity_problem(ring)
    assoc = None if fail is None else "associativity fails at ({},{},{})".format(
        *(basis[t] for t in fail))
    first = next((text for text in (unit, duality, assoc) if text), None)
    return AxiomReport(passed=first is None, unit_ok=unit is None, assoc_ok=fail is None,
                       duality_ok=duality is None, counterexample=first)


def fp_dims(ring: FusionRing) -> dict:
    """The unique positive character d* with d(i)d(j) = sum_k N_ij^k d(k), if integral.

    With W[i, k] = N(i, i^*; k), B = max_i (W 1)(i) and F(e) = isqrt(W e)
    row by row, iterates e <- min(e, F(e)) from e = B on every basis
    element until e stops changing, then certifies e exactly.  On a fusion
    ring this finds d* whenever it is integral:
    - d*(i) = d*(i^*) and d* is a character, so d*(i)^2 = (W d*)(i), hence
      F(d*) = d*;
    - d*(i)^2 = (W d*)(i) <= (W 1)(i) max d*, so max d*^2 <= B max d* and
      the start B is at or above d*;
    - W >= 0 makes F monotone, so every iterate stays at or above d*, and
      the integer sum falls until e^2 <= W e;
    - for m = max e(i)/d*(i), taken at i, m^2 d*(i)^2 = e(i)^2 <= (W e)(i)
      <= m (W d*)(i) = m d*(i)^2, so m <= 1 and e = d*.
    So the BadParameter raised here means some FP dimension is not an
    integer (or the ring is not a fusion ring).  On any ring, W e is clamped at 0 before isqrt, so
    from B >= 0 the iterates stay >= 0 and their sum falls at every step:
    the loop ends.  Each W e is one gather per row on the (i, i^*) cells,
    with no n x n temporary; int64 stays exact since e <= B <= n MAX_COEF
    gives |W e| <= n^2 MAX_COEF^2 < 2^62 while n < 2^16.
    """
    n = len(ring.basis)
    cells = (np.arange(n), ring.dual_index)
    e = np.full(n, _weights(ring, np.ones(n, dtype=np.int64))(cells).max())
    while True:
        step = np.minimum(e, [math.isqrt(max(w, 0)) for w in _weights(ring, e)(cells).tolist()])
        if (step == e).all():
            break
        e = step
    if not _certify_character(ring, e):
        raise BadParameter("no positive integer character found")
    return dict(zip(ring.basis, e.tolist()))


def _weights(ring: FusionRing, e: np.ndarray):
    """The map (cells, out) -> sum_k N(i, j; k) e(k) on the cells (i, j) that
    `cells` picks from prod and coef, in `out` if given: one gather per cell
    from e and from e of each multi-term row, computed once here and stored
    in reverse after e, so that prod indexes it directly (take's mode "wrap"
    counts t < 0 back from the end, to row -1 - t).  No arithmetic touches
    the narrow prod, and the narrow coef only multiplies int64 values."""
    values = np.concatenate([e, (ring.multi @ e)[::-1]])

    def weigh(cells, out=None):
        return np.multiply(ring.coef[cells], values.take(ring.prod[cells], out=out, mode="wrap"),
                           out=out)
    return weigh


def _certify_character(ring: FusionRing, d: np.ndarray) -> bool:
    """d > 0, d(unit) = 1 and d(i) d(j) = sum_k N_ij^k d(k) for all i, j,
    checked in `_row_blocks` of i."""
    if (d <= 0).any() or d[ring.unit_index] != 1:
        return False
    n, weigh = len(d), _weights(ring, d)
    space = np.empty((2, next(_row_blocks(n, n)).stop * n), dtype=np.int64)  # reused by every block
    for rows in _row_blocks(n, n):
        left, right = (_scratch(buf, (rows.stop - rows.start, n)) for buf in space)
        if (np.multiply(d[rows, None], d, out=left) != weigh(rows, right)).any():
            return False
    return True


def _code_permutation(m: Mat2) -> np.ndarray:
    """perm[a0*q + a1] is the code of m applied to (a0, a1), on the same
    codes as the invertibles of `build_extension_ring`."""
    q = m.q
    a0, a1 = np.divmod(np.arange(q * q, dtype=np.int64), q)
    return (m.a * a0 + m.b * a1) % q * q + (m.c * a0 + m.d * a1) % q


def _free_orbits(perm: np.ndarray, p: int) -> np.ndarray:
    """The orbits of `perm` on the nonzero codes, one per row, each row
    ascending and the rows ordered by their least code.  ArithmeticError
    unless every orbit has size exactly p, so that there are
    (len(perm) - 1) / p of them."""
    codes = np.arange(1, len(perm))
    least, image = codes.copy(), perm[codes]
    for k in range(1, p):
        short = np.flatnonzero(image == codes)
        if len(short):
            raise ArithmeticError(f"orbit of code {codes[short[0]]} has size {k}, expected {p}")
        np.minimum(least, image, out=least)
        image = perm[image]
    if perm[0] != 0 or (image != codes).any():
        raise ArithmeticError(f"the permutation moves 0 or does not return every code in {p} steps")
    return codes[np.argsort(least, kind="stable")].reshape(-1, p)


def semidirect_irreps(pair: CertifiedPair) -> Census:
    """Irreducible-representation census of the order-p*q^2 twisted product.

    Little-group method on the characters of the translation part: the trivial
    character is fixed and contributes p linear irreps; every other character
    lies in a free orbit of size p and induces one p-dimensional irrep.  While
    p*q^2 <= `gauging.COMPLETE_BOUND`, the census is cross-checked against the
    conjugacy classes counted by `_class_count` from the group law.
    """
    p, q = pair.p, pair.q
    m = rotation(pair.ctx, pair.c)
    # dual action on characters chi_w: w -> M^T w for M the matrix of v -> c*v
    orbits = len(_free_orbits(_code_permutation(m.transpose()), p))
    census = Census((("linear", 1, p), ("induced", p, orbits)), p * q * q)
    if p * q * q <= gauging.COMPLETE_BOUND:
        classes = _class_count(_code_permutation(m), p, q)
        if classes != census.rank:
            raise ArithmeticError(
                f"class count {classes} disagrees with census rank {census.rank}"
            )
    return census


def _class_count(perm: np.ndarray, p: int, q: int) -> int:
    """The number of conjugacy classes of the order-p q^2 group of pairs
    (v, k), v in F_{q^2} and k in Z/p, with c acting on the codes by `perm`,
    without its multiplication table.

    By Burnside's lemma it is the number of commuting pairs over p q^2.
    By the law (v, k)(w, l) = (v + c^k w, k + l), (v, k) and (w, l) commute
    exactly when v - c^l v = w - c^k w; so with N(x) the number of (v, j)
    with v - c^j v = x, on codes from the powers of `perm`, there are
    sum_x N(x)^2 of them.  ArithmeticError if that is not a multiple of p q^2.
    """
    q2 = q * q
    powers = np.empty((p, q2), dtype=np.int64)  # powers[l] = the codes of c^l
    powers[0] = np.arange(q2)
    for l in range(1, p):
        powers[l] = perm[powers[l - 1]]
    (v0, v1), (c0, c1) = np.divmod(powers[0], q), np.divmod(powers, q)
    counts = np.bincount(((v0 - c0) % q * q + (v1 - c1) % q).ravel(), minlength=q2)
    pairs = int(counts @ counts)
    if pairs % (p * q2):
        raise ArithmeticError(f"{pairs} commuting pairs is not a multiple of {p * q2}")
    return pairs // (p * q2)


def drinfeld_double_rank(table: np.ndarray) -> int:
    """Rank of the double of the group with multiplication table `table`.

    The table is certified as a group by `verify_axioms` on its group ring:
    one basis element per group element, prod the table, coef 1 and dual the
    inverses read off the identity.  The unit law is the two-sided identity,
    the duality checks are the two-sided inverses, and Light's test on a
    generating set certifies associativity.  The rank is the sum over
    classes of the number of classes of the centralizer; Burnside's lemma,
    applied twice, makes that the number of pairwise commuting triples over
    |G|.  BadParameter unless the table is square, its entries lie in
    0..n - 1, exactly one row is x -> x, every row holds that identity (so
    each element has a right inverse to read) and the ring passes;
    ArithmeticError if the triples are not a multiple of |G|.
    """
    table = np.asarray(table)
    n = len(table)
    if n > DOUBLE_RANK_BOUND:
        raise BoundExceeded(f"group order {n} exceeds {DOUBLE_RANK_BOUND}")
    if table.shape != (n, n):
        raise BadParameter("table is not square")
    if table.min() < 0 or table.max() >= n:
        raise BadParameter("table entries out of range")
    identity = np.flatnonzero((table == np.arange(n)).all(axis=1))
    if len(identity) != 1:
        raise BadParameter("table has no unique identity")
    e = int(identity[0])
    is_e = table == e
    lacking = np.flatnonzero(~is_e.any(axis=1))
    if len(lacking):
        raise BadParameter(f"table is not a group: {lacking[0]} has no inverse")
    pw, cw = gauging.ring_widths(n, 0, 1, 1)
    ring = FusionRing([str(g) for g in range(n)], e, np.argmax(is_e, axis=1),
                      table.astype(f"i{pw}"), np.ones((n, n), dtype=f"i{cw}"),
                      np.zeros((0, n), dtype=np.int64))
    report = verify_axioms(ring)
    if not report.passed:
        raise BadParameter(f"table is not a group: {report.counterexample}")
    commute = (table == table.T).astype(np.int64)
    triples = int((commute * (commute @ commute)).sum())
    if triples % n:
        raise ArithmeticError(f"{triples} commuting triples is not a multiple of {n}")
    return triples // n


def ring_to_text(ring: FusionRing) -> str:
    """Plain-text form: header, one dual line per basis label, then the
    nonzero tensor entries as 0-based index quadruples in lexicographic order.
    Holds every entry at once to sort them; the certificates walk
    `_block_entries` a block of rows at a time."""
    basis, n = ring.basis, len(ring.basis)
    if any(label.split() != [label] for label in basis) or len(set(basis)) != n:
        raise BadParameter("basis labels must be distinct, non-empty and free of whitespace")
    lines = [f"fusionring v1 {n}"]
    lines += [f"{label} {basis[d]}" for label, d in zip(basis, ring.dual_index.tolist())]
    i, j, k, v = (np.concatenate(a) for a in zip(*_block_entries(ring, slice(0, n))))
    order = np.argsort((i * n + j) * n + k, kind="stable")
    entries = zip(*(a[order].tolist() for a in (i, j, k, v)))
    lines.extend(f"{i} {j} {k} {v}" for i, j, k, v in entries)
    return "\n".join(lines) + "\n"


def ring_from_text(text: str) -> FusionRing:
    """Parse the `ring_to_text` form in one pass over its lines; malformed
    input raises BadParameter, and a ring whose arrays would exceed
    `gauging.RING_BYTE_BUDGET` raises BoundExceeded before they are allocated."""
    lines = filter(None, map(str.split, text.splitlines()))
    try:
        magic, version, n = next(lines)
        n = decimal(n)
    except (StopIteration, ValueError):
        raise BadParameter("expected a 'fusionring v1 N' header") from None
    named = list(itertools.islice(lines, max(n, 0)))
    if (magic, version) != ("fusionring", "v1") or n < 1 or len(named) != n \
            or any(len(l) != 2 for l in named):
        raise BadParameter("expected a 'fusionring v1 N' header and N lines 'label dual'")
    basis = [label for label, _ in named]
    index = {label: t for t, label in enumerate(basis)}
    if len(index) != n:
        raise BadParameter("basis labels are not distinct")
    if any(d not in index for _, d in named):
        raise BadParameter("a dual label is not a basis label")

    def entries():
        for line in lines:
            try:
                i, j, k, v = map(decimal, line)
            except ValueError:
                raise BadParameter(f"entry {' '.join(line)!r} is not 'i j k v'") from None
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise BadParameter(f"entry {' '.join(line)!r} has an index outside 0..{n - 1}")
            yield i, j, k, v

    prod, coef, multi = _pack(n, entries())
    # the least u whose row and column are x -> x with coefficient 1: left-unit
    # candidates are found in _row_blocks, then each candidate's column is checked
    everyone = np.arange(n)
    left = (u for rows in _row_blocks(n, n) for u in rows.start + np.flatnonzero(
        ((prod[rows] == everyone) & (coef[rows] == 1)).all(axis=1)))
    unit = next((u for u in left if ((prod[:, u] == everyone) & (coef[:, u] == 1)).all()), None)
    if unit is None:
        raise BadParameter("no unit found in serialized ring")
    return FusionRing(basis, int(unit), [index[d] for _, d in named], prod, coef, multi)
