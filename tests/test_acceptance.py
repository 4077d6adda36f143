"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every check is exact; the only tolerances are the two runtime caps.
"""

import itertools
import json
import time

import numpy as np
import pytest

from anisogauge import (
    Mat2,
    build_anisotropic,
    build_extension_ring,
    build_hyperbolic,
    certify_pair,
    dihedral_generators,
    drinfeld_double_rank,
    enumerate_orth,
    equivariantization_census,
    fp_dims,
    gt_criterion,
    hyperbolic_control,
    is_prime,
    make_field,
    non_group_theoretical_suite,
    pick_order_p,
    quartic_identity_check,
    rotation,
    semidirect_irreps,
    split_embedding,
    verify_axioms,
)
from anisogauge.cli import main
from oracles import (
    commuting_pair_orbits, conjugacy_classes, dims_multiset, order, semidirect_group_table,
)

PRIMES_50 = [n for n in range(2, 51) if is_prime(n)]
ODD_PRIMES_50 = [n for n in PRIMES_50 if n != 2]

ODD_VALID_PAIRS_2000 = [(3, 5), (3, 11), (3, 17), (3, 23), (5, 19), (7, 13)]

ALL_VALID_PAIRS_2000 = sorted(
    (p, q)
    for p in PRIMES_50
    for q in PRIMES_50
    if p != q and (q + 1) % p == 0 and p * q * q <= 2000
)

CRITERION_PAIRS_50 = [
    (p, q)
    for q in ODD_PRIMES_50
    for p in ODD_PRIMES_50
    if p < q and (q + 1) % p == 0
]


def report(number: int, description: str):
    def decorator(fn):
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@report(1, "census 3 5 reports rank 17, dims (1x3, 3x8, 5x6), sum 225, < 1 s")
def test_criterion_1_rank_17():
    start = time.perf_counter()
    census = equivariantization_census(certify_pair(3, 5))
    elapsed = time.perf_counter() - start
    assert census.rank == 17
    assert dims_multiset(census) == {1: 3, 3: 8, 5: 6}
    assert census.global_dim == 225
    assert elapsed < 1.0, f"census took {elapsed:.2f}s"


@report(2, "dihedral orders 2(q+1) / 2(q-1) with presentation, q in {3..13}, < 5 s")
def test_criterion_2_dihedral_orders():
    start = time.perf_counter()
    for q in (3, 5, 7, 11, 13):
        ctx = make_field(q)
        maps = enumerate_orth(build_anisotropic(ctx))
        assert len(maps) == 2 * (q + 1), q
        r, s = dihedral_generators(maps)
        assert order(r) == q + 1 and (s * s) == Mat2.identity(q)
        hmaps = enumerate_orth(build_hyperbolic(ctx))
        assert len(hmaps) == 2 * (q - 1), q
        dihedral_generators(hmaps)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"enumeration took {elapsed:.2f}s"


@report(3, "fusion axioms + FP dims {1, q} + global dim p*q^2 for all odd pairs <= 2000")
def test_criterion_3_fusion_axioms():
    pairs = [
        (p, q)
        for (p, q) in ALL_VALID_PAIRS_2000
        if p % 2 == 1 and q % 2 == 1
    ]
    assert pairs == ODD_VALID_PAIRS_2000
    for p, q in pairs:
        ring = build_extension_ring(certify_pair(p, q))
        rep = verify_axioms(ring)
        assert rep.passed, (p, q, rep.counterexample)
        dims = fp_dims(ring)
        assert set(dims.values()) == {1, q}, (p, q)
        assert sum(v * v for v in dims.values()) == p * q * q, (p, q)


@report(4, "non-GT verdict for all odd p | q+1, q <= 50; GT for hyperbolic controls")
def test_criterion_4_verdicts():
    assert CRITERION_PAIRS_50, "no pairs found"
    for p, q in CRITERION_PAIRS_50:
        pair = certify_pair(p, q)
        report = non_group_theoretical_suite(pair, build_anisotropic(pair.ctx))
        assert all(ok for _, ok, _ in report), (p, q)
    for q in ODD_PRIMES_50:
        plane = build_hyperbolic(make_field(q))
        for a in range(2, q - 1):  # F_q minus {0, 1, -1}
            verdict = gt_criterion(hyperbolic_control(plane, a))
            assert verdict.group_theoretical, (q, a)


@report(5, "block identity A = I + g, lambda = c, quartic expansion for q <= 100")
def test_criterion_5_analytic_identities():
    for p, q in CRITERION_PAIRS_50:
        ctx = make_field(q)
        c = pick_order_p(ctx, p)
        rho = rotation(ctx, c)
        m = split_embedding(build_anisotropic(ctx), rho)
        a = m.alpha + m.beta * m.delta * m.beta.inverse()
        assert a == Mat2.identity(q) + rho, (p, q)
        lam = (ctx.one + c) / (ctx.one + c.inverse())
        assert lam == c, (p, q)
    for q in [n for n in range(2, 101) if is_prime(n)]:
        assert quartic_identity_check(q), q


@report(6, "semidirect irreps match census degree-0 part and brute-force classes")
def test_criterion_6_census_cross_validation():
    for p, q in ALL_VALID_PAIRS_2000:
        pair = certify_pair(p, q)
        eq = equivariantization_census(pair)
        sd = semidirect_irreps(pair)  # internally cross-checks class counts
        degree0 = {(dim, count) for _, dim, count in eq.entries[:2]}
        assert degree0 == {(dim, count) for _, dim, count in sd.entries}, (p, q)
        classes = conjugacy_classes(semidirect_group_table(p, q))
        assert len(classes) == p + (q * q - 1) // p, (p, q)
        assert sum(len(c) for c in classes) == p * q * q, (p, q)


@report(7, "sum of count * dim^2 equals (p*q)^2 for every census with q <= 50")
def test_criterion_7_sum_of_squares():
    emitted = 0
    for q in PRIMES_50:
        for p in PRIMES_50:
            if p == q or (q + 1) % p != 0:
                continue
            census = equivariantization_census(certify_pair(p, q))
            total = sum(count * dim * dim for _, dim, count in census.entries)
            assert total == p * p * q * q == census.global_dim, (p, q)
            assert census.rank == p * p + (q * q - 1) // p, (p, q)
            emitted += 1
    assert emitted >= 20


@report(8, "double rank: S3 = 8, Z/n = n^2, order-21 group matches pair-count oracle")
def test_criterion_8_double_rank():
    perms = list(itertools.permutations(range(3)))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    s3 = np.array([[perms.index(compose(a, b)) for b in perms] for a in perms])
    assert drinfeld_double_rank(s3) == 8
    assert commuting_pair_orbits(s3) == 8
    for n in (2, 3, 6, 10):
        zn = np.array([[(a + b) % n for b in range(n)] for a in range(n)])
        assert drinfeld_double_rank(zn) == n * n
        assert commuting_pair_orbits(zn) == n * n
    els = [(a, k) for k in range(3) for a in range(7)]

    def mul21(x, y):
        return ((x[0] + pow(2, x[1], 7) * y[0]) % 7, (x[1] + y[1]) % 3)

    t21 = np.array([[els.index(mul21(x, y)) for y in els] for x in els])
    assert drinfeld_double_rank(t21) == commuting_pair_orbits(t21) == 25


@report(9, "repeated runs of every command produce byte-identical payloads")
def test_criterion_9_determinism():
    import contextlib
    import io
    import os
    import tempfile

    def capture(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "z4.txt")
        with open(path, "w") as f:
            f.write("4\n" + "\n".join(" ".join(str((a + b) % 4) for b in range(4)) for a in range(4)) + "\n")
        commands = [
            ["census", "3", "5"],
            ["census", "3", "5", "--format", "json"],
            ["census", "3", "5", "--format", "csv"],
            ["census", "5", "19", "--format", "csv"],
            ["verify", "3", "5", "--format", "json"],
            ["verify", "3", "2"],
            ["sweep", "12", "--format", "json"],
            ["sweep", "12", "--format", "csv"],
            ["double-rank", path, "--format", "json"],
        ]
        for argv in commands:
            code1, out1 = capture(argv)
            code2, out2 = capture(argv)
            assert code1 == code2
            assert out1 == out2, argv
            assert out1, argv
