import functools
import subprocess
import sys

import pytest

from anisogauge import cli, ffield, fusionring, orthogroup, suite
from anisogauge.gauging import certify_pair
from anisogauge.quadspace import AnisotropicSpace, HyperbolicSpace, QuadSpace

from oracles import child_env

ROWS = [
    "norm-one-subgroup",
    "anisotropic-orthogonal",
    "hyperbolic-orthogonal",
    "metric-group",
    "fusion-axioms",
    "fp-dims",
    "census",
    "semidirect-cross-check",
    "quartic-identity",
    "criterion-eigenvalues-swap",
    "criterion-lambda-equals-c",
    "criterion-lambda-not-in-base",
    "criterion-non-gt-verdict",
    "hyperbolic-controls",
]


def test_rows_pass_in_payload_order():
    rows = suite.verify_rows(certify_pair(3, 5))
    assert [row["name"] for row in rows] == ROWS
    assert all(row["status"] == "pass" for row in rows)


def test_even_prime_rows_skip():
    skipped = [row for row in suite.verify_rows(certify_pair(3, 2)) if row["status"] != "pass"]
    assert skipped == [
        {"name": "criterion-suite", "status": "skip",
         "detail": "even prime (q=2); needs odd characteristic"},
        {"name": "hyperbolic-controls", "status": "skip",
         "detail": "q=2; needs odd characteristic"},
    ]


def test_skip_clause_matches_the_class_count(monkeypatch):
    # `semidirect_irreps` decides whether the brute-force class count runs,
    # and the row detail says whether it did: the two must agree
    counted = []
    class_count = fusionring._class_count
    monkeypatch.setattr(
        fusionring, "_class_count", lambda *args: counted.append(args[1:]) or class_count(*args))
    for (p, q), runs in [((5, 19), True), ((3, 29), False)]:
        counted.clear()
        rows = suite.verify_rows(certify_pair(p, q))
        (row,) = [row for row in rows if row["name"] == "semidirect-cross-check"]
        assert row["status"] == "pass"
        assert counted == ([(p, q)] if runs else [])
        assert ("brute-force class count skipped" in row["detail"]) is not runs


@pytest.mark.parametrize("run,planes,derived", [
    (lambda: suite.verify_rows(certify_pair(3, 23)), 1, 2),
    (lambda: cli.main(["sweep", "20", "--format", "json"]), 5, 10),  # five pairs verified
], ids=["verify-3-23", "sweep-20"])
def test_each_plane_is_built_once_and_derives_its_values_once(capsys, monkeypatch, run, planes,
                                                               derived):
    # per pair: one anisotropic plane for its rows and the criterion suite,
    # one hyperbolic plane for its row and every control, and one derivation
    # of Q(e1), Q(e2), B'(e1, e2) by each
    built, derivations = [], []
    init, values = QuadSpace.__init__, QuadSpace.__dict__["polar_values"].func
    monkeypatch.setattr(QuadSpace, "__init__",
                        lambda self, ctx: built.append(type(self)) or init(self, ctx))
    counted = functools.cached_property(lambda self: derivations.append(self) or values(self))
    counted.__set_name__(QuadSpace, "polar_values")
    monkeypatch.setattr(QuadSpace, "polar_values", counted)
    run()
    capsys.readouterr()
    assert (built.count(AnisotropicSpace), built.count(HyperbolicSpace), len(derivations)) == (
        planes, planes, derived)


def test_a_verify_certifies_each_cyclic_group_once(monkeypatch):
    # the norm-one generator is certified once, for the pair's c, and read
    # again by its row and the anisotropic rotation; the hyperbolic
    # rotation's generator is certified once for its plane
    orders, generator = [], ffield._generator
    counted = lambda ctx, candidates, n: orders.append(n) or generator(ctx, candidates, n)
    monkeypatch.setattr(ffield, "_generator", counted)
    monkeypatch.setattr(orthogroup, "_generator", counted)
    ffield.norm_one_generator.cache_clear()
    rows = suite.verify_rows(certify_pair(3, 23))
    assert all(row["status"] == "pass" for row in rows)
    assert orders == [24, 22]


def test_import_loads_no_cli():
    probe = "import sys, anisogauge.suite; print('anisogauge.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
