import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisogauge import (
    BadParameter,
    ExistenceViolated,
    FusionRing,
    build_extension_ring,
    certify_pair,
    drinfeld_double_rank,
    equivariantization_census,
    fp_dims,
    ring_from_text,
    ring_to_text,
    semidirect_irreps,
    verify_axioms,
)
from anisogauge import fusionring, gauging
from anisogauge.errors import BoundExceeded
from anisogauge.ffield import is_prime, make_field, pick_order_p
from anisogauge.fusionring import (
    AxiomReport,
    _anti_involution_holds,
    _certify_character,
    _class_count,
    _first_assoc_failure,
    _free_orbits,
    _generators,
    _spread,
)
from oracles import (
    commuting_pair_orbits, conjugacy_classes, cyclic_group_ring, degree_zero_ring, dims_multiset,
    generated_rank, perm_of_c, ring_of, semidirect_group_table, tensor_of,
)


def test_extension_ring_rules_3_5():
    ring = build_extension_ring(certify_pair(3, 5))
    assert len(ring.basis) == 25 + 2
    tensor, dual = tensor_of(ring), _dual(ring)
    # invertibles multiply by vector addition
    assert tensor.get(("g1_2", "g3_4"), {}) == {"g4_1": 1}
    assert tensor.get(("g0_0", "X1"), {}) == {"X1": 1}
    assert tensor.get(("X1", "g2_3"), {}) == {"X1": 1}
    # X1 X1 = q X2; X1 X2 = sum of all invertibles
    assert tensor.get(("X1", "X1"), {}) == {"X2": 5}
    row = tensor.get(("X1", "X2"), {})
    assert len(row) == 25 and set(row.values()) == {1}
    assert dual["X1"] == "X2" and dual["X2"] == "X1"
    assert dual["g1_2"] == "g4_3"


def test_extension_ring_existence():
    with pytest.raises(ExistenceViolated):
        build_extension_ring(certify_pair(3, 7))
    with pytest.raises(ExistenceViolated):
        build_extension_ring(certify_pair(3, 3))


def test_axioms_pass_3_5():
    assert verify_axioms(build_extension_ring(certify_pair(3, 5))).passed


def test_axioms_pass_group_ring():
    for n in (1, 2, 5, 8):
        assert verify_axioms(cyclic_group_ring(n)).passed


def test_axioms_pass_even_prime_pairs():
    # q = 2 and p = 2 variants of the extension ring are rings too
    for p, q in [(3, 2), (2, 5), (2, 7)]:
        ring = build_extension_ring(certify_pair(p, q))
        assert verify_axioms(ring).passed, (p, q)
        dims = fp_dims(ring)
        assert set(dims.values()) == {1, q}
        assert sum(v * v for v in dims.values()) == p * q * q


def test_axioms_mutation_detected():
    bad = _with(build_extension_ring(certify_pair(3, 5)), {("X1", "X1"): {"X2": 6}})  # q+1 instead of q
    report = verify_axioms(bad)
    assert not report.passed
    assert not report.assoc_ok
    assert report.counterexample is not None


def test_anti_involution_fails_on_a_single_term_cell():
    # X1 X1 = q X2 and X2 X2 = q X1 are single-term cells; N(X1, X1; X2) = q + 1
    # alone breaks (X1 X1)^* = X1^* X1^* there
    ring = build_extension_ring(certify_pair(3, 5))
    bad = _with(ring, {("X1", "X1"): {"X2": 6}})
    assert _anti_involution_holds(ring, _generators(ring))
    assert not _anti_involution_holds(bad, _generators(bad))


def test_certify_pair_refuses_a_composite():
    for p, q in [(4, 7), (3, 9)]:
        with pytest.raises(BadParameter, match=rf"^\({p}, {q}\) must be prime$"):
            certify_pair(p, q)


def test_axioms_unit_violation_detected():
    bad = _with(cyclic_group_ring(3), {("g0", "g1"): {"g2": 1}})
    report = verify_axioms(bad)
    assert not report.passed and not report.unit_ok


def test_axioms_dual_not_involutive_detected():
    # g2^* = g1 but g1^* = g1: the dual map is not an involution
    ring = cyclic_group_ring(3)
    dual = ring.dual_index.copy()
    dual[1] = 1
    bad = FusionRing(ring.basis, ring.unit_index, dual, ring.prod, ring.coef, ring.multi)
    report = verify_axioms(bad)
    assert report.unit_ok and not report.duality_ok and not report.passed
    assert report.counterexample == "dual not involutive at g2"


def _s3_rep_ring() -> FusionRing:
    """The three-object ring 1, s, V with V V = 1 + s + V."""
    tensor = {
        ("1", "1"): {"1": 1}, ("1", "s"): {"s": 1}, ("1", "V"): {"V": 1},
        ("s", "1"): {"s": 1}, ("s", "s"): {"1": 1}, ("s", "V"): {"V": 1},
        ("V", "1"): {"V": 1}, ("V", "s"): {"V": 1},
        ("V", "V"): {"1": 1, "s": 1, "V": 1},
    }
    return ring_of(["1", "s", "V"], "1", {"1": "1", "s": "s", "V": "V"}, tensor)


def _commutative_ring(basis, products) -> FusionRing:
    """A commutative ring with every basis element self-dual, the first one
    the unit; `products` gives the row of each unordered non-unit pair."""
    unit = basis[0]
    tensor = {(unit, x): {x: 1} for x in basis} | {(x, unit): {x: 1} for x in basis}
    for (x, y), row in products.items():
        tensor[x, y] = tensor[y, x] = row
    return ring_of(basis, unit, {x: x for x in basis}, tensor)


def _s4_rep_ring() -> FusionRing:
    """Rep(S4): 1, sign s, the 2-dimensional V, the standard W and W' = W s."""
    return _commutative_ring(["1", "s", "V", "W", "W'"], {
        ("s", "s"): {"1": 1}, ("s", "V"): {"V": 1}, ("s", "W"): {"W'": 1}, ("s", "W'"): {"W": 1},
        ("V", "V"): {"1": 1, "s": 1, "V": 1},
        ("V", "W"): {"W": 1, "W'": 1}, ("V", "W'"): {"W": 1, "W'": 1},
        ("W", "W"): {"1": 1, "V": 1, "W": 1, "W'": 1},
        ("W'", "W'"): {"1": 1, "V": 1, "W": 1, "W'": 1},
        ("W", "W'"): {"s": 1, "V": 1, "W": 1, "W'": 1},
    })


def _tambara_yamagami_ring() -> FusionRing:
    """TY(Z/2 x Z/2): the Klein four-group 0, a, b, c = a b and m, with
    g m = m g = m and m m the sum of the group."""
    klein = ["0", "a", "b", "c"]
    products = {(x, y): {klein[i ^ j]: 1} for i, x in enumerate(klein) for j, y in enumerate(klein)
                if 0 < i <= j}
    products |= {(g, "m"): {"m": 1} for g in klein[1:]}
    products["m", "m"] = {g: 1 for g in klein}
    return _commutative_ring(klein + ["m"], products)


def _product_ring(a: FusionRing, b: FusionRing) -> FusionRing:
    """The product ring A (x) B on the labels (x, y), x in A and y in B, with
    N((x,y),(x',y');(z,z')) = N_A(x,x';z) N_B(y,y';z'), built on the arrays:
    the outer products of primitive rows are primitive and distinct, and prod
    and coef are narrowed to the widths of `gauging.ring_widths`."""
    na, nb = len(a.basis), len(b.basis)

    def rows(ring):  # the row id of each cell, and the rows: basis vectors, then multi
        n, prod = len(ring.basis), ring.prod.astype(np.int64)
        ids = np.where(prod >= 0, prod, n - 1 - prod)
        return ids, np.vstack([np.eye(n, dtype=np.int64), ring.multi])

    (ida, rowsa), (idb, rowsb) = rows(a), rows(b)
    width = len(rowsb)
    key = (ida[:, None, :, None] * width + idb[None, :, None, :]).reshape(na * nb, na * nb)
    ca, cb = a.coef.astype(np.int64), b.coef.astype(np.int64)
    coef = (ca[:, None, :, None] * cb[None, :, None, :]).reshape(na * nb, na * nb)
    ka, kb = np.divmod(key, width)
    prod, multi = ka * nb + kb, (ka >= na) | (kb >= nb)
    keys, at = np.unique(key[multi], return_inverse=True)
    prod[multi] = -1 - at.reshape(-1)
    outer = rowsa[keys // width, :, None] * rowsb[keys % width, None, :]
    pw, cw = gauging.ring_widths(na * nb, len(keys), coef.min(), coef.max())
    return FusionRing([(x, y) for x in a.basis for y in b.basis],
                      a.unit_index * nb + b.unit_index,
                      (a.dual_index[:, None] * nb + b.dual_index).reshape(-1),
                      prod.astype(f"i{pw}"), coef.astype(f"i{cw}"), outer.reshape(len(keys), -1))


def _mul(table: dict, left: dict, right: dict) -> dict:
    """The product of two label combinations {label: coefficient} under the
    label-level tensor `table` of `tensor_of`, with zero terms dropped."""
    out = {}
    for a, ca in left.items():
        for b, cb in right.items():
            for k, v in table.get((a, b), {}).items():
                out[k] = out.get(k, 0) + ca * cb * v
    return {k: v for k, v in out.items() if v}


def _reference_report(ring: FusionRing) -> AxiomReport:
    """Brute-force oracle on the label-level tensor: every check, every triple."""
    basis, unit, dual = ring.basis, ring.basis[ring.unit_index], _dual(ring)
    pos = {label: t for t, label in enumerate(basis)}
    table = tensor_of(ring)

    def row(i, j):
        return table.get((i, j), {})

    problems = []
    bad = [j for j in basis if row(unit, j) != {j: 1} or row(j, unit) != {j: 1}]
    unit_ok = not bad
    if bad:
        problems.append(f"unit law fails at {bad[0]}")
    bad = [i for i in basis if dual[dual[i]] != i]
    duality_ok = not bad
    if bad:
        problems.append(f"dual not involutive at {bad[0]}")
    else:
        bad = [(i, j) for i in basis for j in basis
               if row(i, j).get(unit, 0) != int(j == dual[i])]
        if bad:
            duality_ok = False
            i, j = bad[0]
            problems.append(f"N({i},{j};unit) != {int(j == dual[i])}")
    if duality_ok:
        bad = [(i, j, k) for i in basis for j in basis
               for k, v in sorted(row(i, j).items(), key=lambda kv: pos[kv[0]])
               if row(dual[i], k).get(j, 0) != v or row(k, dual[j]).get(i, 0) != v]
        if bad:
            duality_ok = False
            problems.append("reciprocity fails at N({},{};{})".format(*bad[0]))
    first = next(
        ((i, j, k) for i in basis for j in basis for k in basis
         if _mul(table, row(i, j), {k: 1}) != _mul(table, {i: 1}, row(j, k))),
        None,
    )
    if first is not None:
        problems.append("associativity fails at ({},{},{})".format(*first))
    return AxiomReport(not problems, unit_ok, first is None, duality_ok,
                       problems[0] if problems else None)


def _dual(ring: FusionRing) -> dict:
    """{label: the label of its dual}."""
    return {label: ring.basis[d] for label, d in zip(ring.basis, ring.dual_index.tolist())}


def _retensor(ring: FusionRing, tensor: dict) -> FusionRing:
    """The ring on the basis, unit and duals of `ring`, with the label-level `tensor`."""
    return ring_of(ring.basis, ring.basis[ring.unit_index], _dual(ring), tensor)


def _with(ring: FusionRing, changes: dict) -> FusionRing:
    return _retensor(ring, tensor_of(ring) | changes)


def _scale_orbit(ring: FusionRing, i: str, j: str, k: str, value: int) -> FusionRing:
    """Set N(i,j;k) to value on its whole reciprocity orbit, so that duality
    still holds and only associativity can break."""
    dual = _dual(ring)
    orbit, todo = set(), [(i, j, k)]
    while todo:
        t = todo.pop()
        if t not in orbit:
            orbit.add(t)
            a, b, c = t
            todo += [(dual[a], c, b), (c, dual[b], a)]
    tensor = tensor_of(ring)
    for a, b, c in orbit:
        tensor.setdefault((a, b), {})[c] = value
    return _retensor(ring, tensor)


RINGS = {
    "extension-3-5": lambda: build_extension_ring(certify_pair(3, 5)),
    "cyclic-6": lambda: cyclic_group_ring(6),
    "s3-reps": _s3_rep_ring,
    "s4-reps": _s4_rep_ring,
    "ty-klein": _tambara_yamagami_ring,
    # rank 11; O0 O0 = O1 + 2 O3 and nearly every other product of orbit sums is multi-term
    "degree-zero-3-5": lambda: degree_zero_ring(3, 5),
}

MUTATIONS = {
    # coefficient, kept consistent with reciprocity: only associativity breaks
    ("extension-3-5", "coefficient"): lambda r: _scale_orbit(r, "X1", "X1", "X2", 6),
    ("cyclic-6", "coefficient"): lambda r: _scale_orbit(r, "g1", "g1", "g2", 2),
    ("s3-reps", "coefficient"): lambda r: _scale_orbit(r, "s", "V", "V", 2),
    ("degree-zero-3-5", "coefficient"): lambda r: _scale_orbit(r, "O0", "O0", "O3", 3),
    # a single-term product sent to the wrong basis element
    ("extension-3-5", "target"): lambda r: _with(r, {("g1_0", "g0_1"): {"g1_2": 1}}),
    ("cyclic-6", "target"): lambda r: _with(r, {("g2", "g3"): {"g1": 1}}),
    ("s3-reps", "target"): lambda r: _with(r, {("V", "s"): {"s": 1}}),
    # a term of the multi-term O0 O1 = O2 + O5 + O6 moved to another orbit
    ("degree-zero-3-5", "target"): lambda r: _with(r, {("O0", "O1"): {"O2": 1, "O5": 1, "O7": 1}}),
    # one entry changed without its reciprocity partners
    ("extension-3-5", "reciprocity"): lambda r: _with(r, {("X1", "X1"): {"X2": 6}}),
    ("cyclic-6", "reciprocity"): lambda r: _with(r, {("g1", "g1"): {"g2": 2}}),
    ("s3-reps", "reciprocity"): lambda r: _with(r, {("V", "V"): {"1": 1, "s": 2, "V": 1}}),
    # a single-term entry whose reciprocity partner N(X1,X2;g0_1) sits in the
    # multi-term cell X1 X2, which comes first
    ("extension-3-5", "reciprocity-multi-first"): lambda r: _with(r, {("X2", "g0_1"): {"X2": 2}}),
    # N(i, j; unit) != [j = i^*], in a single-term cell and in multi-term rows
    ("cyclic-6", "unit-entry"): lambda r: _with(r, {("g1", "g2"): {"g0": 1}}),
    ("s3-reps", "unit-entry"): lambda r: _with(r, {("V", "V"): {"1": 2, "s": 1, "V": 1}}),
    ("extension-3-5", "unit-entry"): lambda r: _with(
        r, {("X1", "X2"): {label: 1 + (label == "g0_0") for label in r.basis[:25]}}),
}

# _BLOCK_CELLS values: 1 and 37 give one row per block at rank 27; 110 gives
# blocks of 4 rows there, the last one (g4_4, X1, X2) ending short
SMALL_BLOCKS = [1, 37, 110]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_axioms_match_reference(name):
    ring = RINGS[name]()
    assert verify_axioms(ring) == _reference_report(ring)
    assert verify_axioms(ring).passed


@pytest.mark.parametrize("name,kind", sorted(MUTATIONS))
def test_mutations_caught_with_reference_counterexample(name, kind):
    bad = MUTATIONS[(name, kind)](RINGS[name]())
    report = verify_axioms(bad)
    assert not report.passed
    assert report == _reference_report(bad)
    if kind == "coefficient":
        assert report.unit_ok and report.duality_ok and not report.assoc_ok
        assert report.counterexample.startswith("associativity fails at")


def _associative_non_reciprocal_ring() -> FusionRing:
    """1, a, b with a^* = b, a a = b, a b = b a = 1 + a and b b = a + b: an
    associative ring with a unit and N(i, j; unit) = [j = i^*], but
    N(a, b; a) = 1 while N(a^*, a; b) = N(b, a; b) = 0."""
    tensor = {("1", x): {x: 1} for x in "1ab"} | {(x, "1"): {x: 1} for x in "ab"}
    tensor |= {("a", "a"): {"b": 1}, ("a", "b"): {"1": 1, "a": 1}, ("b", "a"): {"1": 1, "a": 1},
               ("b", "b"): {"a": 1, "b": 1}}
    return ring_of(["1", "a", "b"], "1", {"1": "1", "a": "b", "b": "a"}, tensor)


def test_reciprocity_certificate_rejects_an_associative_ring():
    # every premise of the certificate holds, so the anti-involution is what fails
    ring = _associative_non_reciprocal_ring()
    gens = _generators(ring)
    assert _first_assoc_failure(ring, gens) is None
    assert not _anti_involution_holds(ring, gens)
    report = verify_axioms(ring)
    assert report == _reference_report(ring)
    assert report.unit_ok and report.assoc_ok and not report.duality_ok
    assert report.counterexample == "reciprocity fails at N(a,b;a)"


def test_passing_rings_verify_without_the_full_scans(monkeypatch):
    # Light's test and the anti-involution on the generators decide alone
    light = fusionring._first_assoc_failure

    def generators_only(ring, middles):
        if len(middles) == len(ring.basis):
            raise AssertionError("the full associativity scan ran")
        return light(ring, middles)

    def no_scan(ring):
        raise AssertionError("the full reciprocity scan ran")

    monkeypatch.setattr(fusionring, "_first_assoc_failure", generators_only)
    monkeypatch.setattr(fusionring, "_reciprocity_problem", no_scan)
    for ring in [build_extension_ring(certify_pair(3, 5)), build_extension_ring(certify_pair(5, 19))] + [
            make() for make in RINGS.values()]:
        assert verify_axioms(ring).passed


def _first_failure_by_brute_force(ring: FusionRing, s: int) -> tuple | None:
    """The first (x, s, y) with (x s) y != x (s y), every product expanded
    from the label-level tensor."""
    table, middle = tensor_of(ring), ring.basis[s]
    pos = {label: t for t, label in enumerate(ring.basis)}
    return next(((pos[x], s, pos[y]) for x in ring.basis for y in ring.basis
                 if _mul(table, _mul(table, {x: 1}, {middle: 1}), {y: 1})
                 != _mul(table, {x: 1}, _mul(table, {middle: 1}, {y: 1}))), None)


# pytest names the tuple cases by position (case5, case6, ...), so cases are
# appended: rings and mutations added later go after the earlier ones
_ADDED_RING = "degree-zero-3-5"
_MIDDLE_CASES = (sorted(set(RINGS) - {_ADDED_RING})
                 + sorted(k for k in MUTATIONS if k[0] != _ADDED_RING)
                 + [_ADDED_RING] + sorted(k for k in MUTATIONS if k[0] == _ADDED_RING))


@pytest.mark.parametrize("case", _MIDDLE_CASES)
def test_light_matches_brute_force_on_each_middle(case, monkeypatch):
    # each middle alone, at the default block size and in small blocks.  The
    # cases cover a multi-term x s meeting a multi-term s y (X2 X1, X1 X2 in
    # extension-3-5; V V in s3-reps) and expensive-side cells that are
    # multi-term themselves (V V under s = V in s3-reps, m m in ty-klein)
    ring = RINGS[case]() if case in RINGS else MUTATIONS[case](RINGS[case[0]]())
    expected = [_first_failure_by_brute_force(ring, s) for s in range(len(ring.basis))]
    for cells in [fusionring._BLOCK_CELLS] + SMALL_BLOCKS:
        monkeypatch.setattr(fusionring, "_BLOCK_CELLS", cells)
        assert [_first_assoc_failure(ring, [s]) for s in range(len(ring.basis))] == expected


@pytest.mark.parametrize("cells", SMALL_BLOCKS)
def test_axioms_match_reference_in_small_blocks(cells, monkeypatch):
    monkeypatch.setattr(fusionring, "_BLOCK_CELLS", cells)
    for name in sorted(RINGS):
        test_axioms_match_reference(name)
    for name, kind in sorted(MUTATIONS):
        test_mutations_caught_with_reference_counterexample(name, kind)
    test_reciprocity_certificate_rejects_an_associative_ring()


def test_reciprocity_reports_the_first_failure_across_cell_kinds():
    # failures at N(X1,X2;g0_1) (multi-term cell) and at N(X2,g0_1;X2),
    # N(X2,g0_4;X2) (single-term cells), all in one row block by default
    bad = MUTATIONS[("extension-3-5", "reciprocity-multi-first")](RINGS["extension-3-5"]())
    at = bad.basis.index
    assert bad.prod[at("X1"), at("X2")] < 0
    assert bad.prod[at("X2"), at("g0_1")] >= 0
    assert verify_axioms(bad).counterexample == "reciprocity fails at N(X1,X2;g0_1)"


@pytest.mark.parametrize("cells", SMALL_BLOCKS)
def test_ring_build_and_fp_dims_independent_of_block_size(cells, monkeypatch):
    rings = {name: make() for name, make in RINGS.items()}
    dims = {name: fp_dims(ring) for name, ring in rings.items()}
    monkeypatch.setattr(fusionring, "_BLOCK_CELLS", cells)
    blocked = build_extension_ring(certify_pair(3, 5))
    for attr in ("prod", "coef", "multi", "dual_index"):
        assert np.array_equal(getattr(blocked, attr), getattr(rings["extension-3-5"], attr))
    assert blocked.basis == rings["extension-3-5"].basis
    assert {name: fp_dims(ring) for name, ring in rings.items()} == dims


@pytest.mark.parametrize("cells", SMALL_BLOCKS)
def test_dense_rows_independent_of_block_size(cells, monkeypatch):
    ring = _s3_rep_ring()
    vv = ring.prod[2, 2]  # V V = 1 + s + V, a multi-term row
    r, t, c = np.array([0, 1, 1, 0]), np.array([vv, vv, 2, vv]), np.array([1, 2, 3, 4])
    monkeypatch.setattr(fusionring, "_BLOCK_CELLS", cells)
    out = np.zeros((2, 3), dtype=np.int64)
    _spread(ring, out, r, t, c, np.empty(len(t), dtype=np.int64))
    assert out.tolist() == [[5, 5, 5], [2, 2, 5]]
    # a grid with no multi-term cell: repeats still summed
    out = np.zeros((2, 3), dtype=np.int64)
    _spread(ring, out, r, np.array([2, 0, 0, 2]), c, np.empty(len(t), dtype=np.int64))
    assert out.tolist() == [[0, 0, 5], [5, 0, 0]]


def _traced_peak_mb(f) -> float:
    """The tracemalloc peak while f() runs, above the level when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def test_certificates_stay_in_bounded_memory():
    # rank 531; the ring's own prod and coef take 0.85 MB.  Light's test on
    # the multi-term middle X1 holds a dense block, its gathered grid and
    # the grid's flat indices, about _BLOCK_CELLS int64 cells each
    ring = build_extension_ring(certify_pair(3, 23))
    assert _traced_peak_mb(lambda: verify_axioms(ring)) < 2
    assert _traced_peak_mb(lambda: fp_dims(ring)) < 4
    g01, x1 = (_traced_peak_mb(lambda: _first_assoc_failure(ring, [ring.basis.index(s)]))
               for s in ("g0_1", "X1"))
    assert x1 <= 1.5 * g01


def test_build_stays_in_bounded_memory():
    # rank 531 stores prod in int16 and coef in int8, 3 bytes a cell; the
    # build's int64 blocks hold about _BLOCK_CELLS cells each
    pair = certify_pair(3, 23)
    assert _traced_peak_mb(lambda: build_extension_ring(pair)) < 2
    ring = build_extension_ring(pair)
    assert (ring.prod.dtype, ring.coef.dtype) == (np.int16, np.int8)
    assert ring.prod.nbytes + ring.coef.nbytes == 3 * 531 ** 2


def test_ring_byte_budget(monkeypatch):
    # the rank-27 ring stores prod and coef in int8, 2 bytes a cell, and its
    # one int64 multi row; rank 5043 (q = 71) stays inside, in int16 and int8
    fits = 2 * 27 * 27 + 8 * 27
    monkeypatch.setattr(gauging, "RING_BYTE_BUDGET", fits)
    assert len(build_extension_ring(certify_pair(3, 5)).basis) == 27
    monkeypatch.setattr(gauging, "RING_BYTE_BUDGET", fits - 1)
    with pytest.raises(BoundExceeded, match=f"rank 27 needs {fits} bytes"):
        build_extension_ring(certify_pair(3, 5))
    monkeypatch.undo()
    assert gauging.extension_ring_widths(3, 71) == (2, 1)
    with pytest.raises(BoundExceeded, match="rank 38811"):
        gauging.extension_ring_widths(3, 197)


def test_ring_widths_match_the_smallest_numpy_dtype():
    # numpy is the reference: the itemsize of the first signed dtype whose
    # iinfo holds [lo, hi], for lo and hi at and one past -2^e and 2^e - 1
    edges = sorted({0, *(v for e in (7, 15, 31) for v in (-2 ** e - 1, -2 ** e, 2 ** e - 1, 2 ** e))})
    for lo, hi in ((lo, hi) for lo in edges for hi in edges if lo <= hi):
        want = next(np.dtype(t).itemsize for t in (np.int8, np.int16, np.int32, np.int64)
                    if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)
        assert gauging.ring_widths(1, 0, lo, hi)[1] == want, (lo, hi)
        assert gauging.ring_widths(1, 0, np.int64(lo), np.int64(hi))[1] == want, (lo, hi)


def test_ring_widths_refuse_one_byte_over_the_budget(monkeypatch):
    # rank 200 with 3 multi rows: int16 prod, int32 coef and int64 multi
    size = 200 * 200 * (2 + 4) + 3 * 200 * 8
    monkeypatch.setattr(gauging, "RING_BYTE_BUDGET", size)
    assert gauging.ring_widths(200, 3, -1, 2 ** 15) == (2, 4)
    monkeypatch.setattr(gauging, "RING_BYTE_BUDGET", size - 1)
    with pytest.raises(BoundExceeded, match=f"rank 200 needs {size} bytes, over the budget of "
                                            f"{size - 1}$"):
        gauging.ring_widths(200, 3, -1, 2 ** 15)


def test_ring_from_text_refuses_an_oversized_ring(monkeypatch):
    # a rank-2000 text with one entry would store prod in int16 and coef in
    # int8 (12 MB); the refusal comes before any of it is allocated
    n, size = 2000, 3 * 2000 ** 2
    text = "\n".join([f"fusionring v1 {n}", *(f"a{i} a{i}" for i in range(n)), "0 0 0 1"])
    monkeypatch.setattr(gauging, "RING_BYTE_BUDGET", size - 1)
    with pytest.raises(BoundExceeded, match=f"rank {n} needs {size} bytes"):
        ring_from_text(text)
    assert _traced_peak_mb(lambda: pytest.raises(BoundExceeded, ring_from_text, text)) < 2
    monkeypatch.setattr(gauging, "RING_BYTE_BUDGET", size)
    with pytest.raises(BadParameter, match="no unit"):
        ring_from_text(text)


def test_ring_from_text_counts_multi_rows_in_the_budget(monkeypatch):
    # rank 1000 with 999 distinct two-term cells N(i, i) = 1 + 2 i: int16
    # prod, int8 coef and 999 int64 multi rows, from a 31 KB text
    n = 1000
    size = 3 * n * n + 8 * (n - 1) * n
    text = "\n".join([f"fusionring v1 {n}", *(f"a{i} a{i}" for i in range(n)),
                      *(f"0 {j} {j} 1" for j in range(n)), *(f"{i} 0 {i} 1" for i in range(1, n)),
                      *(f"{i} {i} {k} {v}" for i in range(1, n) for k, v in ((0, 1), (i, 2)))])
    monkeypatch.setattr(gauging, "RING_BYTE_BUDGET", size - 1)
    with pytest.raises(BoundExceeded, match=f"rank {n} needs {size} bytes"):
        ring_from_text(text)
    monkeypatch.setattr(gauging, "RING_BYTE_BUDGET", size)
    ring = ring_from_text(text)
    assert len(ring.multi) == n - 1
    assert ring.prod.nbytes + ring.coef.nbytes + ring.multi.nbytes == size


def test_ring_from_text_in_bounded_memory():
    # rank 123; the parse holds flat int64 entries, not a dict per cell
    text = ring_to_text(build_extension_ring(certify_pair(3, 11)))
    assert _traced_peak_mb(lambda: ring_from_text(text)) < 5


def test_ring_from_text_finds_the_unit_in_bounded_memory():
    # rank 2000 with only the unit's row and column: int16 prod and int8 coef
    # take 11.4 MB, and the unit search adds no n x n temporary
    n = 2000
    text = "\n".join([f"fusionring v1 {n}", *(f"a{i} a{i}" for i in range(n)),
                      *(f"0 {j} {j} 1" for j in range(n)), *(f"{i} 0 {i} 1" for i in range(1, n))])
    assert _traced_peak_mb(lambda: ring_from_text(text)) < 13.5
    assert ring_from_text(text).unit_index == 0


def test_pack_stores_each_primitive_row_once():
    # the cells 2 + 4 b and 1 + 2 b share the primitive row [1, 2]
    ring = ring_of(["a", "b"], "a", {"a": "a", "b": "b"},
                   {("a", "a"): {"a": 2, "b": 4}, ("a", "b"): {"a": 1, "b": 2}})
    assert ring.multi.tolist() == [[1, 2]]
    assert ring.prod[0].tolist() == [-1, -1] and ring.coef[0].tolist() == [2, 1]
    assert tensor_of(ring).get(("a", "a"), {}) == {"a": 2, "b": 4}


@pytest.mark.parametrize("value", [fusionring.MAX_COEF + 1, 10 ** 20])
def test_ring_from_text_refuses_a_coefficient_past_max(value):
    # `_pack` refuses it on the int, before int64 could overflow
    with pytest.raises(BadParameter, match=r"N\(0,0;-\) exceeds"):
        ring_from_text(f"fusionring v1 1\n1 1\n0 0 0 {value}\n")


def test_stored_arrays_are_read_only():
    # an in-place write into a narrow array could wrap silently
    for ring in (build_extension_ring(certify_pair(3, 5)), _s3_rep_ring()):
        for attr in ("prod", "coef", "multi", "dual_index"):
            array = getattr(ring, attr)
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0


def _as_int64(make, monkeypatch):
    """make() with prod and coef stored in int64, as the int64 reference."""
    with monkeypatch.context() as m:
        m.setattr(gauging, "_signed_width", lambda lo, hi: 8)
        ring = make()
    assert ring.prod.dtype == ring.coef.dtype == np.int64
    return ring


def _fp_dims_or_refusal(ring):
    try:
        return fp_dims(ring)
    except BadParameter as refusal:
        return str(refusal)


def _square_ring(c: int) -> FusionRing:
    """1 and X with X X = c X: associative, with the character d(X) = c for
    c > 0, but N(X, X; unit) = 0, so duality fails."""
    return ring_of(["1", "X"], "1", {"1": "1", "X": "X"},
                   {("1", "1"): {"1": 1}, ("1", "X"): {"X": 1}, ("X", "1"): {"X": 1},
                    ("X", "X"): {"X": c}})


def _wrapping_ring() -> FusionRing:
    """(a b) c = 127 (z c) = 254 w but a (b c) = -(a z) = -2 w, so the ring
    is not associative; in int8, 254 wraps to -2 and the two sides agree."""
    basis = ["1", "a", "b", "c", "z", "w"]
    tensor = {("1", x): {x: 1} for x in basis} | {(x, "1"): {x: 1} for x in basis}
    tensor |= {("a", "b"): {"z": 127}, ("z", "c"): {"w": 2}, ("b", "c"): {"z": -1},
               ("a", "z"): {"w": 2}}
    return ring_of(basis, "1", {x: x for x in basis}, tensor)


def _rescaled_ring() -> FusionRing:
    """1 and a with a a = 400 + 200 a: the primitive row [2, 1] at the
    scale 200, past int8."""
    return ring_of(["1", "a"], "1", {"1": "1", "a": "a"},
                   {("1", "1"): {"1": 1}, ("1", "a"): {"a": 1}, ("a", "1"): {"a": 1},
                    ("a", "a"): {"1": 400, "a": 200}})


DTYPE_EDGES = {
    "coefficient-127": (lambda: _square_ring(127), np.int8),
    "coefficient-128": (lambda: _square_ring(128), np.int16),
    "coefficient-max": (lambda: _square_ring(fusionring.MAX_COEF), np.int32),
    "coefficient-min": (lambda: _square_ring(-fusionring.MAX_COEF), np.int16),
    "light-product-wraps-int8": (_wrapping_ring, np.int8),
    "rescale": (_rescaled_ring, np.int16),
    "orbit-127": (lambda: _scale_orbit(_s3_rep_ring(), "s", "V", "V", 127), np.int8),
    "orbit-128": (lambda: _scale_orbit(_s3_rep_ring(), "s", "V", "V", 128), np.int16),
}


def _matches_int64_reference(make, monkeypatch) -> FusionRing:
    ring, wide = make(), _as_int64(make, monkeypatch)
    assert verify_axioms(ring) == verify_axioms(wide) == _reference_report(ring)
    assert _fp_dims_or_refusal(ring) == _fp_dims_or_refusal(wide)
    return ring


@pytest.mark.parametrize("name", sorted(DTYPE_EDGES))
def test_dtype_edges_match_int64_references(name, monkeypatch):
    make, coef_dtype = DTYPE_EDGES[name]
    assert _matches_int64_reference(make, monkeypatch).coef.dtype == coef_dtype


def test_dtype_edges_give_the_expected_answers():
    assert fp_dims(_square_ring(fusionring.MAX_COEF)) == {"1": 1, "X": fusionring.MAX_COEF}
    assert verify_axioms(_square_ring(128)).assoc_ok
    assert not verify_axioms(_wrapping_ring()).assoc_ok
    ring = _rescaled_ring()
    assert tensor_of(ring).get(("a", "a"), {}) == {"1": 400, "a": 200}
    assert (ring.multi.tolist(), ring.coef[1, 1]) == ([[2, 1]], 200)


def test_multi_term_row_ids_past_int8_match_int64_reference(monkeypatch):
    # rank 126 with 42 multi-term rows stores prod in int8, but the ids
    # n - 1 - t of the multi-term rows that fp_dims weighs reach 167
    def make():
        return _product_ring(_s3_rep_ring(), cyclic_group_ring(42))

    ring, wide = make(), _as_int64(make, monkeypatch)
    assert (ring.prod.dtype, len(ring.multi)) == (np.int8, 42)
    assert verify_axioms(ring) == verify_axioms(wide) == AxiomReport(True, True, True, True)
    assert fp_dims(ring) == fp_dims(wide)


@pytest.mark.parametrize("cells", SMALL_BLOCKS)
def test_mutations_in_small_blocks_match_int64_references(cells, monkeypatch):
    monkeypatch.setattr(fusionring, "_BLOCK_CELLS", cells)
    for name, kind in sorted(MUTATIONS):
        _matches_int64_reference(lambda: MUTATIONS[(name, kind)](RINGS[name]()), monkeypatch)


def test_generators_of_extension_ring():
    for p, q in [(3, 5), (3, 23), (2, 7), (3, 2)]:
        ring = build_extension_ring(certify_pair(p, q))
        assert [ring.basis[g] for g in _generators(ring)] == ["g0_1", "g1_0", "X1"]


def test_full_scan_when_closure_reaches_nothing_more():
    # s reaches only {1, s} and V is no single-term product, so every non-unit
    # element is a generator: Light's test is the full scan (its mutations
    # are covered above)
    ring = _s3_rep_ring()
    assert [ring.basis[g] for g in _generators(ring)] == ["s", "V"]
    assert verify_axioms(ring).passed
    golden = ring_of(["1", "t"], "1", {"1": "1", "t": "t"},
                     {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1},
                      ("t", "1"): {"t": 1}, ("t", "t"): {"1": 1, "t": 1}})
    assert [golden.basis[g] for g in _generators(golden)] == ["t"]
    assert verify_axioms(golden) == _reference_report(golden)


@pytest.mark.parametrize("p,q,most", [(3, 5, 4), (3, 11, 7)])
def test_closure_reaches_through_multi_term_products(p, q, most):
    # in Z0 nearly every product of two orbit sums is multi-term: a closure
    # through single-term products alone kept 9 of 11 and 41 of 43 elements
    ring = degree_zero_ring(p, q)
    assert len(_generators(ring)) <= most
    assert verify_axioms(ring).passed
    dims = fp_dims(ring)
    assert set(dims.values()) == {1, p}
    assert sum(d * d for d in dims.values()) == p * q * q


@pytest.mark.parametrize("name", sorted(RINGS) + ["degree-zero-3-11", "degree-zero-7-13"])
def test_generators_generate_the_ring(name):
    # what the closure certifies: the products of S span the whole ring
    ring = RINGS[name]() if name in RINGS else degree_zero_ring(*map(int, name.split("-")[2:]))
    assert generated_rank(ring, _generators(ring)) == len(ring.basis)


def test_fp_dims_extension_rings():
    ring = build_extension_ring(certify_pair(3, 5))
    dims = fp_dims(ring)
    assert dims["X1"] == dims["X2"] == 5
    assert all(dims[l] == 1 for l in ring.basis if l.startswith("g"))
    assert sum(v * v for v in dims.values()) == 75


def test_fp_dims_group_ring():
    dims = fp_dims(cyclic_group_ring(6))
    assert set(dims.values()) == {1}


def test_fp_dims_detects_invertibles():
    ring = build_extension_ring(certify_pair(3, 5))
    dims, tensor, dual = fp_dims(ring), tensor_of(ring), _dual(ring)
    for label in ring.basis:
        row = tensor.get((label, dual[label]), {})
        invertible = row == {ring.basis[ring.unit_index]: 1}
        assert (dims[label] == 1) == invertible


def test_fp_dims_power_iteration_fallback():
    # three-object ring with a 2-dimensional object V, whose V V = 1 + s + V
    # is a multi-term row: the integer fixed point reaches d(V) = 2
    ring = _s3_rep_ring()
    assert verify_axioms(ring).passed
    dims = fp_dims(ring)
    assert dims == {"1": 1, "s": 1, "V": 2}
    assert all(type(v) is int for v in dims.values())


@pytest.mark.parametrize("make,dims", [
    (_s4_rep_ring, [1, 1, 2, 3, 3]),
    (_tambara_yamagami_ring, [1, 1, 1, 1, 2]),
])
def test_fp_dims_several_non_invertibles(make, dims):
    ring = make()
    assert verify_axioms(ring).passed
    assert list(fp_dims(ring).values()) == dims


_FACTORS = RINGS | {
    "cyclic-4": lambda: cyclic_group_ring(4),
    "extension-3-2": lambda: build_extension_ring(certify_pair(3, 2)),
}


@pytest.mark.parametrize("left,right", [
    ("s3-reps", "s4-reps"), ("s3-reps", "s3-reps"), ("ty-klein", "cyclic-4"),
    ("s4-reps", "extension-3-2"), ("ty-klein", "s3-reps"), ("extension-3-2", "cyclic-4"),
])
def test_fp_dims_multiply_on_product_rings(left, right):
    a, b = _FACTORS[left](), _FACTORS[right]()
    ring = _product_ring(a, b)
    assert verify_axioms(ring).passed
    da, db = fp_dims(a), fp_dims(b)
    assert fp_dims(ring) == {(x, y): da[x] * db[y] for x in a.basis for y in b.basis}


def test_fp_dims_rank_600_in_bounded_memory():
    # Rep(S3) (x) Z/200: 200 objects of dimension 2 and 200 multi-term rows,
    # so no group-like shortcut applies; the fixed point reads the n cells
    # (i, i^*) and the character check reads the ring in row blocks
    ring = _product_ring(_s3_rep_ring(), cyclic_group_ring(200))
    assert len(ring.basis) == 600 and len(ring.multi) == 200
    dims = fp_dims(ring)
    assert dims == {(x, f"g{k}"): 2 if x == "V" else 1 for x in "1sV" for k in range(200)}
    assert _traced_peak_mb(lambda: fp_dims(ring)) < 4


def test_fp_dims_irrational_raises():
    # golden-ratio ring has no rational character
    ring = ring_of(
        ["1", "t"],
        "1",
        {"1": "1", "t": "t"},
        {("1", "1"): {"1": 1}, ("1", "t"): {"t": 1},
         ("t", "1"): {"t": 1}, ("t", "t"): {"1": 1, "t": 1}},
    )
    assert verify_axioms(ring).passed
    with pytest.raises(BadParameter, match="^no positive integer character found$"):
        fp_dims(ring)


def test_grading():
    p, q = 3, 5
    ring = build_extension_ring(certify_pair(p, q))

    def degree(label):
        return 0 if label.startswith("g") else int(label[1:])

    for (i, j), row in tensor_of(ring).items():
        for k in row:
            assert degree(k) == (degree(i) + degree(j)) % p


@pytest.mark.parametrize(
    "p,q,orbits", [(3, 5, 8), (3, 2, 1), (5, 19, 72)]
)
def test_orbit_census(p, q, orbits):
    orbs = _orbit_codes(p, q)
    assert orbs.shape == (orbits, p) and orbits == (q * q - 1) // p
    assert sorted(orbs.ravel().tolist()) == list(range(1, q * q))


def _orbit_codes(p, q):
    """The free orbits of v -> c*v on the nonzero codes a0*q + a1, one per row."""
    return _free_orbits(perm_of_c(p, q), p)


def _orbit_walk(p, q):
    """Reference orbit census: walk v -> c*v on the field elements one by one,
    as rows of codes a0*q + a1, each ascending, ordered by their least code."""
    ctx = make_field(q)
    c = pick_order_p(ctx, p)
    seen, orbits = set(), []
    for v in ctx.elements():
        if not v or v in seen:
            continue
        orbit, w = [v], c * v
        while w != v:
            orbit.append(w)
            w = c * w
        seen.update(orbit)
        orbits.append(sorted(x.a0 * q + x.a1 for x in orbit))
    return sorted(orbits)


@pytest.mark.parametrize("p,q", [(3, 2), (3, 5), (3, 11), (7, 13), (5, 19), (3, 23)])
def test_orbit_census_matches_element_walk(p, q):
    assert _orbit_codes(p, q).tolist() == _orbit_walk(p, q)


def test_free_orbits_rejects_a_short_orbit():
    perm = np.array([0, 2, 3, 1, 4, 5, 6])  # a 3-cycle, then three fixed codes
    with pytest.raises(ArithmeticError, match="has size 1"):
        _free_orbits(perm, 3)
    with pytest.raises(ArithmeticError, match="has size 2"):
        _free_orbits(np.array([0, 2, 1, 4, 5, 6, 3]), 3)
    for perm in ([0, 2, 3, 4, 1], [1, 2, 0, 4, 5, 3]):  # a 4-cycle; a 3-cycle through 0
        with pytest.raises(ArithmeticError, match="in 3 steps"):
            _free_orbits(np.array(perm), 3)
    assert _free_orbits(np.array([0, 2, 3, 1, 6, 4, 5]), 3).tolist() == [[1, 2, 3], [4, 5, 6]]


def test_orbit_census_existence():
    with pytest.raises(ExistenceViolated):
        certify_pair(5, 7)


def test_equivariantization_census_3_5():
    census = equivariantization_census(certify_pair(3, 5))
    assert census.rank == 17
    assert dims_multiset(census) == {1: 3, 3: 8, 5: 6}
    assert census.global_dim == 225


def test_equivariantization_census_3_2():
    census = equivariantization_census(certify_pair(3, 2))
    assert census.rank == 10
    assert dims_multiset(census) == {1: 3, 3: 1, 2: 6}
    assert census.global_dim == 36


def test_equivariantization_census_5_19():
    census = equivariantization_census(certify_pair(5, 19))
    assert census.rank == 97 == 25 + 72
    assert census.global_dim == 9025


ODD_PRIMES_TO_50 = [n for n in range(3, 51, 2) if all(n % d for d in range(3, n, 2))]
CENSUS_PAIRS = [(p, q) for q in ODD_PRIMES_TO_50 for p in ODD_PRIMES_TO_50
                if p < q and (q + 1) % p == 0]


@pytest.mark.parametrize("p,q", CENSUS_PAIRS + [(3, 2), (2, 3), (3, 1013)])
def test_census_orbit_count_matches_free_orbit_walk(p, q):
    # the census certifies (q^2 - 1) / p by the order of c; the walk counts
    walked = len(_orbit_codes(p, q))
    assert equivariantization_census(certify_pair(p, q)).entries[1] == ("orbit-sum", p, walked)


def test_rank_formula_consistency():
    for q in [n for n in range(2, 51) if all(n % d for d in range(2, n))]:
        for p in (2, 3, 5, 7, 11, 13):
            if p == q or (q + 1) % p != 0:
                continue
            census = equivariantization_census(certify_pair(p, q))
            assert census.rank == p + (q * q - 1) // p + p * (p - 1)
            assert census.rank == p * p + (q * q - 1) // p
            assert census.global_dim == p * p * q * q


def test_semidirect_irreps_3_2():
    census = semidirect_irreps(certify_pair(3, 2))
    assert dims_multiset(census) == {1: 3, 3: 1}
    assert census.global_dim == 12
    table = semidirect_group_table(3, 2)
    assert len(table) == 12
    assert len(conjugacy_classes(table)) == 4


# every pair that `_require_pair` accepts with p q^2 <= 2000, even primes
# included: p | q + 1 gives p <= q + 1, and p >= 2 gives q <= 31
GATED_PAIRS_2000 = [
    (p, q) for q in range(2, 32) for p in range(2, q + 2)
    if is_prime(p) and is_prime(q) and (q + 1) % p == 0 and p * q * q <= 2000
]


@pytest.mark.parametrize("p,q", GATED_PAIRS_2000)
def test_class_count_from_the_law_matches_the_table(p, q):
    perm = perm_of_c(p, q)
    assert _class_count(perm, p, q) == len(conjugacy_classes(semidirect_group_table(p, q)))


def test_class_count_refuses_a_pair_count_that_is_not_a_multiple_of_the_order():
    # swapping two codes leaves a permutation that is not linear, so the
    # pairs are not a group and Burnside's count does not divide
    perm = perm_of_c(3, 5)
    perm[[1, 2]] = perm[[2, 1]]
    with pytest.raises(ArithmeticError, match="835 commuting pairs is not a multiple of 75"):
        _class_count(perm, 3, 5)
    assert _class_count(np.arange(25), 3, 5) == 75  # c = 1: the abelian group Z/3 x F_25


def test_semidirect_group_table_existence():
    with pytest.raises(ExistenceViolated):
        semidirect_group_table(3, 7)


def test_semidirect_irreps_3_5():
    census = semidirect_irreps(certify_pair(3, 5))
    assert dims_multiset(census) == {1: 3, 3: 8}
    assert census.global_dim == 75


def test_semidirect_irreps_5_19():
    census = semidirect_irreps(certify_pair(5, 19))
    assert dims_multiset(census) == {1: 5, 5: 72}


def test_semidirect_matches_census_degree_zero():
    for p, q in [(3, 5), (3, 2), (2, 3), (2, 7), (7, 13)]:
        pair = certify_pair(p, q)
        eq = equivariantization_census(pair)
        sd = semidirect_irreps(pair)
        degree0 = {(dim, count) for _, dim, count in eq.entries[:2]}
        assert degree0 == {(dim, count) for _, dim, count in sd.entries}


def test_drinfeld_double_rank_cyclic():
    for n in (1, 2, 3, 7, 12):
        table = np.array([[(a + b) % n for b in range(n)] for a in range(n)])
        assert drinfeld_double_rank(table) == n * n


def test_drinfeld_double_rank_bound():
    n = 201
    table = np.array([[(a + b) % n for b in range(n)] for a in range(n)])
    with pytest.raises(BoundExceeded):
        drinfeld_double_rank(table)


# identity 0 and two-sided inverses, but (1 1) 2 = 2 while 1 (1 2) = 4
LOOP_5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("rows, message", [
    ([[0, 1, 2]], "table is not square"),
    ([[0, 1], [1, 2]], "table entries out of range"),
    ([[0, 1], [0, 1]], "table has no unique identity"),
    ([[0, 1], [1, 1]], "table is not a group: 1 has no inverse"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "table is not a group: unit law fails at 1"),
    (LOOP_5, "table is not a group: reciprocity fails at N(1,2;3)"),
])
def test_drinfeld_double_rank_refuses_a_table_that_is_not_a_group(rows, message):
    with pytest.raises(BadParameter) as err:
        drinfeld_double_rank(np.array(rows))
    assert str(err.value) == message


def test_drinfeld_double_rank_refuses_triples_that_are_not_a_multiple_of_the_order(monkeypatch):
    # only a table that is not a group can get past a passing certificate
    monkeypatch.setattr(fusionring, "verify_axioms",
                        lambda ring: AxiomReport(True, True, True, True))
    with pytest.raises(ArithmeticError, match="29 commuting triples is not a multiple of 5"):
        drinfeld_double_rank(np.array(LOOP_5))


def test_drinfeld_double_rank_against_orbit_oracle():
    import itertools

    perms = list(itertools.permutations(range(3)))
    compose = lambda a, b: tuple(a[b[i]] for i in range(3))  # noqa: E731
    s3 = np.array([[perms.index(compose(a, b)) for b in perms] for a in perms])
    assert drinfeld_double_rank(s3) == 8 == commuting_pair_orbits(s3)

    els = [(a, k) for k in range(3) for a in range(7)]
    mul = lambda x, y: ((x[0] + pow(2, x[1], 7) * y[0]) % 7, (x[1] + y[1]) % 3)  # noqa: E731
    t21 = np.array([[els.index(mul(x, y)) for y in els] for x in els])
    assert drinfeld_double_rank(t21) == commuting_pair_orbits(t21) == 25

    # the twisted product groups themselves, when small enough
    t12 = semidirect_group_table(3, 2)
    assert drinfeld_double_rank(t12) == commuting_pair_orbits(t12)
    t18 = semidirect_group_table(2, 3)
    assert drinfeld_double_rank(t18) == commuting_pair_orbits(t18)


def test_serialization_round_trip():
    # every ring fixture and every mutation ring; the extension ring has one
    # multi-term row and the group ring none
    rings = {name: make() for name, make in RINGS.items()}
    rings |= {case: mutate(RINGS[case[0]]()) for case, mutate in MUTATIONS.items()}
    assert (len(rings["extension-3-5"].multi), len(rings["cyclic-6"].multi)) == (1, 0)
    for name, ring in rings.items():
        text = ring_to_text(ring)
        back = ring_from_text(text)
        assert back.basis == ring.basis, name
        assert back.unit_index == ring.unit_index, name
        assert back.dual_index.tolist() == ring.dual_index.tolist(), name
        for attr in ("prod", "coef", "multi"):
            assert getattr(back, attr).dtype == getattr(ring, attr).dtype, (name, attr)
            assert np.array_equal(getattr(back, attr), getattr(ring, attr)), (name, attr)
        assert ring_to_text(back) == text, name  # a fixed point


def test_serialization_header():
    text = ring_to_text(cyclic_group_ring(3))
    lines = text.splitlines()
    assert lines[0] == "fusionring v1 3"
    assert lines[1] == "g0 g0"
    assert lines[2] == "g1 g2"


@pytest.mark.parametrize("basis", [
    ["", "g1"], ["a\tb", "g1"], ["a\nb", "g1"], ["a b", "g1"], [" g0", "g1"], ["g0", "g0"],
])
def test_ring_to_text_refuses_labels_its_reader_refuses(basis):
    # an empty label, whitespace inside a label or a repeated label would be
    # written, then refused by `ring_from_text`
    ring = cyclic_group_ring(2)
    relabelled = FusionRing(basis, ring.unit_index, ring.dual_index, ring.prod, ring.coef,
                            ring.multi)
    with pytest.raises(BadParameter):
        ring_to_text(relabelled)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "fusionring v1",
        "fusionring v1 x",
        "fusionring v2 1\ne e\n0 0 0 1\n",
        "fusionring v1 2\ne e\n",
        "fusionring v1 1\ne e\n0 0 1 1\n",
        "fusionring v1 1\ne e\n0 0 -1 1\n",
        "fusionring v1 1\ne e\n0 0 0\n",
        "fusionring v1 1\ne e\n0 0 0 one\n",
        "fusionring v1 1\ne f\n0 0 0 1\n",
        "fusionring v1 2\ne e\ne e\n0 0 0 1\n",
        "fusionring v1 1\ne e\n0 0 0 99999999999999999999\n",
        "fusionring v1 1\ne e\n0 0 0 0\n0 0 0 1\n",
        "fusionring v1 1\ne e\n0 0 0 2\n",
        "fusionring v1 2\na a\nb b\n0 0 0 1\n0 1 1 1\n1 0 1 1\n1 1 0 1\n1 1 0 5\n",
        "fusionring v1 2\na a\nb b\n0 0 0 1\n0 1 1 1\n",
        "fusionring v1 2\na a\nb b\n0 0 0 1\n1 0 1 1\n",
        # int() would read each of these as a well-formed Z/2
        "fusionring v1 2\ne e\ng g\n0 0 0 1\n0 1 1 1\n1 0 1 1\n1 1 0 +1\n",
        "fusionring v1 2\ne e\ng g\n0 0 0 1\n0 1 1 1\n1 0 1 1\n1 1 0 0_1\n",
        "fusionring v1 2\ne e\ng g\n0 0 0 1\n0 1 1 1\n1 0 1 1\n1 1 0 \u0661\n",
        "fusionring v1 \u0662\ne e\ng g\n0 0 0 1\n0 1 1 1\n1 0 1 1\n1 1 0 1\n",
    ],
)
def test_ring_from_text_rejects_malformed(text):
    with pytest.raises(BadParameter):
        ring_from_text(text)


_TEXT_3_5 = ring_to_text(build_extension_ring(certify_pair(3, 5)))


@settings(max_examples=150, deadline=None)
@given(
    cut=st.integers(0, len(_TEXT_3_5)),
    edits=st.lists(
        st.tuples(st.integers(0, len(_TEXT_3_5) - 1),
                  st.sampled_from(list("0123456789 -xXg_\nfusionrv"))),
        max_size=4,
    ),
)
def test_ring_from_text_fuzz(cut, edits):
    chars = list(_TEXT_3_5)
    for at, ch in edits:
        chars[at] = ch
    text = "".join(chars)[:cut]
    try:
        ring = ring_from_text(text)
    except BadParameter:
        return
    assert tensor_of(ring_from_text(ring_to_text(ring))) == tensor_of(ring)
    _fp_dims_certifies_or_refuses(ring)


def _fp_dims_certifies_or_refuses(ring: FusionRing) -> None:
    """Negative and zero coefficients parse, so a parsed ring is any integer
    ring: fp_dims either returns a certified character or refuses the ring
    for having none, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            dims = fp_dims(ring)
        except BadParameter as refusal:
            assert str(refusal) == "no positive integer character found"
            return
    assert _certify_character(ring, np.array([dims[label] for label in ring.basis]))


def _unital_ring(n, data, coefficient, duals, terms=2) -> FusionRing:
    """A ring that parses: basis element 0 is the unit and every other cell
    gets up to `terms` terms with coefficients drawn from `coefficient`."""
    entries = [f"0 {j} {j} 1" for j in range(n)] + [f"{i} 0 {i} 1" for i in range(1, n)]
    for i in range(1, n):
        for j in range(1, n):
            row = data.draw(st.dictionaries(st.integers(0, n - 1), coefficient, max_size=terms))
            entries += [f"{i} {j} {k} {v}" for k, v in row.items()]
    text = "\n".join([f"fusionring v1 {n}", *(f"b{i} b{d}" for i, d in enumerate(duals)), *entries])
    return ring_from_text(text)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_fp_dims_fuzz_on_unital_rings(n, data):
    # the edits above rarely keep a unit, so this builds rings that parse:
    # every cell gets up to two terms with any coefficient the format takes,
    # and the duals are arbitrary
    coefficient = st.one_of(st.integers(-3, 3), st.integers(-fusionring.MAX_COEF, fusionring.MAX_COEF))
    duals = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    _fp_dims_certifies_or_refuses(_unital_ring(n, data, coefficient, duals))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 5), data=st.data())
def test_axioms_fuzz_match_reference(n, data):
    # involutive duals and small coefficients, so that the unit-row check
    # often holds and Light's test meets multi-term rows on either side
    order = data.draw(st.permutations(range(1, n)))
    pairs = data.draw(st.integers(0, (n - 1) // 2))
    duals = list(range(n))
    for a, b in zip(order[:pairs], order[pairs:2 * pairs]):
        duals[a], duals[b] = b, a
    ring = _unital_ring(n, data, st.sampled_from([1, 1, 2, -1]), duals, terms=3)
    assert verify_axioms(ring) == _reference_report(ring)
