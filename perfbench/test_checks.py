"""Tests of the benchmark harness itself: each checker accepts a correct
output and counts a corrupted one as failed, the double-rank reference is
right, and the span aggregation adds up.

    python3 -m pytest perfbench        (or: python3 -m unittest discover -s perfbench)
"""

import hashlib
import json
import tempfile
import unittest
from pathlib import Path

import numpy as np

import checks
import run
import spans
import workloads


def emit(payload: dict) -> bytes:
    """Stdout of `--format json`: the compact payload plus its sha256."""
    digest = hashlib.sha256(json.dumps(payload, separators=(",", ":")).encode()).hexdigest()
    return (json.dumps({**payload, "sha256": digest}, separators=(",", ":")) + "\n").encode()


def verify_payload(p: int, q: int) -> dict:
    names = ["norm-one-subgroup", "anisotropic-orthogonal", "fusion-axioms", "criterion-suite",
             "hyperbolic-controls"]
    rows = [{"name": n, "status": "pass", "detail": "ok"} for n in names]
    if q == 2:
        rows[3]["status"] = rows[4]["status"] = "skip"
    return {"command": "verify", "p": p, "q": q, "bound": 2000, "checks": rows, "passed": True}


def census_payload(p: int, q: int) -> dict:
    orbits = (q * q - 1) // p
    entries = [{"label": "(1,chi)", "dim": 1, "count": p},
               {"label": "orbit-sum", "dim": p, "count": orbits},
               {"label": "(X_i,chi)", "dim": q, "count": p * (p - 1)}]
    return {"command": "census", "p": p, "q": q, "defining_poly": "x^2 - 2",
            "rank": p * p + orbits, "entries": entries, "sum_dim_sq": p * p * q * q,
            "expected_dim": p * p * q * q}


def sweep_payload(qmax: int) -> dict:
    rows = []
    for q in checks.odd_primes(qmax):
        for p in checks.odd_primes(q - 1):
            gate = (q + 1) % p == 0
            row = {"p": p, "q": q, "gate": gate, "rank": None, "verify": ""}
            if gate:
                row["rank"] = p * p + (q * q - 1) // p
                row["verify"] = "pass" if p * q * q <= 2000 else "skipped-bound"
            rows.append(row)
    return {"command": "sweep", "qmax": qmax, "rows": rows}


class CheckerTest(unittest.TestCase):
    def assertPasses(self, check, code, out, err=b""):
        self.assertIsNone(checks.failure(check, code, out, err))

    def assertFails(self, check, code, out, err=b""):
        self.assertIsNotNone(checks.failure(check, code, out, err))

    def test_correct_outputs_pass(self):
        self.assertPasses(checks.verify(3, 23), 0, emit(verify_payload(3, 23)))
        self.assertPasses(checks.verify(3, 2), 0, emit(verify_payload(3, 2)))
        self.assertPasses(checks.census(19, 37), 0, emit(census_payload(19, 37)))
        self.assertPasses(checks.sweep(20), 0, emit(sweep_payload(20)))
        self.assertPasses(checks.sweep(50), 0, emit(sweep_payload(50)))
        self.assertPasses(checks.error_exit(3), 3, b"", b"error: p*q^2 = 2523 exceeds bound 2000\n")
        self.assertPasses(checks.bare_import, 0, b"")

    def test_verify_check_flipped_to_fail(self):
        payload = verify_payload(3, 23)
        payload["checks"][2]["status"] = "fail"
        self.assertFails(checks.verify(3, 23), 0, emit(payload))

    def test_skip_only_on_even_q(self):
        payload = verify_payload(3, 5)
        payload["checks"][4]["status"] = "skip"
        self.assertFails(checks.verify(3, 5), 0, emit(payload))

    def test_wrong_census_rank(self):
        payload = census_payload(3, 5)
        payload["rank"] += 1
        self.assertFails(checks.census(3, 5), 0, emit(payload))

    def test_wrong_census_counts(self):
        payload = census_payload(7, 13)
        payload["entries"][1]["count"] += 1
        self.assertFails(checks.census(7, 13), 0, emit(payload))

    def test_stale_sha256(self):
        payload = verify_payload(3, 5)
        out = emit(payload)
        payload["checks"][0]["detail"] = "changed after hashing"
        stale = json.loads(out)["sha256"]
        tampered = json.dumps({**payload, "sha256": stale}, separators=(",", ":")) + "\n"
        self.assertFails(checks.verify(3, 5), 0, tampered.encode())

    def test_missing_sweep_row(self):
        payload = sweep_payload(20)
        del payload["rows"][5]
        self.assertFails(checks.sweep(20), 0, emit(payload))

    def test_wrong_sweep_verdict(self):
        payload = sweep_payload(20)
        row = next(r for r in payload["rows"] if r["gate"])
        row["verify"] = "fail"
        self.assertFails(checks.sweep(20), 0, emit(payload))

    def test_wrong_exit_code(self):
        self.assertFails(checks.error_exit(3), 2, b"", b"error: p=3 does not divide q+1=8\n")
        self.assertFails(checks.verify(3, 5), 1, emit(verify_payload(3, 5)))

    def test_error_path_output(self):
        self.assertFails(checks.error_exit(2), 2, b"{}\n", b"error: x\n")
        self.assertFails(checks.error_exit(2), 2, b"", b"Traceback (most recent call last):\n")

    def test_malformed_payload(self):
        payload = verify_payload(3, 5)
        del payload["checks"][0]["status"]
        self.assertFails(checks.verify(3, 5), 0, emit(payload))
        self.assertFails(checks.verify(3, 5), 0, b"not json\n")

    def test_double_rank(self):
        self.assertPasses(checks.double_rank(156, 7), 0,
                          emit({"command": "double-rank", "order": 156, "rank": 7}))
        self.assertFails(checks.double_rank(156, 7), 0,
                         emit({"command": "double-rank", "order": 156, "rank": 8}))


class BenchCountsFailuresTest(unittest.TestCase):
    def test_corrupted_and_nondeterministic_outputs_count_as_failed(self):
        with tempfile.TemporaryDirectory() as tmp:
            bench = run.Bench(Path(tmp))
            op = workloads.Op("census 3 5", ("census", "3", "5"), checks.census(3, 5))
            good = emit(census_payload(3, 5))
            bad = census_payload(3, 5)
            bad["rank"] = 18
            other = census_payload(3, 5)
            other["defining_poly"] = "x^2 - 3"
            for out in (good, emit(bad), good, emit(other)):
                bench._check(op, run.Outcome(0, out, b"", 0.3, 0.3, 30.0))
            self.assertEqual((bench.attempted, bench.failed), (4, 2))


class DoubleRankReferenceTest(unittest.TestCase):
    def test_known_groups(self):
        cyclic = np.add.outer(np.arange(5), np.arange(5)) % 5
        self.assertEqual(workloads.double_rank_reference(cyclic), 25)
        s3 = workloads.affine_group_table(3)  # AGL(1, F_3) is S_3
        self.assertEqual(len(s3), 6)
        self.assertEqual(workloads.double_rank_reference(s3), 8)

    def test_relabelling_keeps_the_group_and_the_rank(self):
        table = workloads.affine_group_table(workloads.AFFINE_PRIME)
        rng = np.random.default_rng(7)
        perm = rng.permutation(len(table))
        relabelled = workloads.relabel(table, perm)
        a, b = 17, 101
        self.assertEqual(relabelled[perm[a], perm[b]], perm[table[a, b]])
        self.assertEqual(workloads.double_rank_reference(relabelled),
                         workloads.double_rank_reference(table))

    def test_short_cmds_is_seeded(self):
        with tempfile.TemporaryDirectory() as tmp:
            first = [op.label for op in workloads.build("short_cmds", 3, Path(tmp))]
            table = (Path(tmp) / "group.txt").read_text()
            again = [op.label for op in workloads.build("short_cmds", 3, Path(tmp))]
            self.assertEqual(first, again)
            self.assertEqual(table, (Path(tmp) / "group.txt").read_text())
            self.assertEqual(len(first), 20)
            self.assertEqual(len(workloads.census_pairs(50)), 13)


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "cmd": 1}


class SpanAggregationTest(unittest.TestCase):
    def record(self):
        return {"cmd": 1, "import_s": 0.25, "spans": [
            span("cli.main", 0.0, 10.0, None),
            span("gtcheck.non_group_theoretical_suite", 1.0, 4.0, 0),
            span("gtcheck.gt_criterion", 2.0, 3.0, 1),
            span("gtcheck.gt_criterion", 5.0, 5.5, 0),
            {**span("orthogroup.enumerate_orth", 6.0, 9.0, 0), "size": 48},
            span("ffield.ker_norm", 7.0, 8.0, 4),
        ]}

    def test_self_times_partition_the_command(self):
        m = spans.command_metrics(self.record())
        self.assertAlmostEqual(m["gtcheck.self_s"], 3.5)  # nested gt_criterion counted once
        self.assertAlmostEqual(m["orthogroup.self_s"], 2.0)
        self.assertAlmostEqual(m["ffield.self_s"], 1.0)
        self.assertAlmostEqual(m["cli.self_s"], 3.5)
        self.assertAlmostEqual(sum(m[f"{mod}.self_s"] for mod in spans.MODULES if
                                   f"{mod}.self_s" in m), 10.0)

    def test_inclusive_times_and_counts(self):
        m = spans.command_metrics(self.record())
        self.assertAlmostEqual(m["gtcheck.gt_criterion_s"], 1.5)
        self.assertEqual(m["gtcheck.gt_criterion.calls"], 2)
        self.assertAlmostEqual(m["orthogroup.enumerate_orth_s"], 3.0)
        self.assertEqual(m["orthogroup.maps"], 48)
        self.assertEqual(m["cli.import_s"], 0.25)

    def test_same_name_nesting_counts_once(self):
        record = {"cmd": 1, "import_s": 0.0, "spans": [
            span("cli.main", 0.0, 4.0, None),
            span("gtcheck.gt_criterion", 1.0, 3.0, 0),
            span("gtcheck.gt_criterion", 1.5, 2.0, 1),
        ]}
        m = spans.command_metrics(record)
        self.assertAlmostEqual(m["gtcheck.gt_criterion_s"], 2.0)
        self.assertEqual(m["gtcheck.gt_criterion.calls"], 2)

    def test_sequence_reports_every_metric(self):
        totals = spans.sequence_metrics([self.record(), self.record()])
        self.assertEqual(set(totals), {n for n in spans.metric_names() if not n.startswith("trace.")})
        self.assertAlmostEqual(totals["cli.import_s"], 0.5)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match_the_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END_UNITS))
        self.assertEqual([m["unit"] for m in spec["end_to_end"]], list(run.END_TO_END_UNITS.values()))
        self.assertEqual([m["name"] for m in spec["per_layer"]], spans.metric_names())
        self.assertEqual([m["unit"] for m in spec["per_layer"]],
                         [spans.unit(n) for n in spans.metric_names()])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
