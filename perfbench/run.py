"""Benchmark of the anisogauge CLI: time to a checked verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is read from `src/`
(PYTHONPATH=src), because it is not installed.  Every command is a fresh
`python -m anisogauge.cli ...` process, run one at a time, and every output
is checked (see checks.py).  The workload's command sequence starts again
and again until S seconds have passed, so it runs at least once and the
last repetition ends after S seconds.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` the sequence runs without tracing first, then again through
tracer.py, which times the layers inside each process; the last line holds
the per-layer metrics, including the tracing overhead.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_IMPORTS = 11
OP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Outcome:
    code: int
    out: bytes
    err: bytes
    wall: float
    cpu: float
    rss_mb: float


def spawn(cmd: list[str], env: dict, workdir: Path) -> Outcome:
    """Run one child to completion; wall time, and CPU time and peak RSS
    from the child's rusage."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(proc.returncode, out.read(), err.read(), wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


class Bench:
    """Runs operations one at a time and counts the ones that fail.

    An operation fails when its check fails, or when its stdout differs from
    that of an earlier run of the same command in this benchmark run.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "ANISOGAUGE_BOUND"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        # Children write no bytecode caches, so they write nothing outside
        # the checkout and every run imports the same way.
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[str, bytes] = {}
        self.traced = 0

    def python(self, code: str) -> Outcome:
        return spawn([sys.executable, "-c", code], self.env, self.workdir)

    def run(self, op: workloads.Op) -> Outcome:
        if op.argv is None:
            cmd = [sys.executable, "-c", "import anisogauge"]
        else:
            cmd = [sys.executable, "-m", "anisogauge.cli", *op.argv]
        outcome = spawn(cmd, {**self.env, **op.env}, self.workdir)
        self._check(op, outcome)
        return outcome

    def run_traced(self, op: workloads.Op) -> tuple[Outcome, dict]:
        self.traced += 1
        span_file = self.workdir / f"spans-{self.traced}.json"
        tail = ["--import-only"] if op.argv is None else ["--", *op.argv]
        cmd = [sys.executable, str(HERE / "tracer.py"), str(span_file), str(self.traced), *tail]
        outcome = spawn(cmd, {**self.env, **op.env}, self.workdir)
        self._check(op, outcome)
        record = {"cmd": self.traced, "import_s": 0.0, "spans": []}
        if span_file.exists():  # absent or cut short when the tracer was killed
            try:
                record = json.loads(span_file.read_text())
            except ValueError:
                pass
            span_file.unlink()
        return outcome, record

    def _check(self, op: workloads.Op, outcome: Outcome) -> None:
        self.attempted += 1
        reason = checks.failure(op.check, outcome.code, outcome.out, outcome.err)
        if reason is None and self.outputs.setdefault(op.label, outcome.out) != outcome.out:
            reason = "stdout differs from an earlier run of the same command"
        if reason is not None:
            self.failed += 1
            print(f"FAIL {op.label}: {reason}", file=sys.stderr)


def repeat(run_sequence, seconds: float) -> list:
    """Results of whole sequences, started until `seconds` have passed."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(run_sequence())
    return results


def setup_seconds(bench: Bench) -> float:
    """Median wall time of bare `import anisogauge` processes."""
    times = []
    for _ in range(SETUP_IMPORTS):
        outcome = bench.python("import anisogauge")
        if outcome.code != 0:
            raise RuntimeError(f"import anisogauge failed: {outcome.err[-300:]!r}")
        times.append(outcome.wall)
    return statistics.median(times)


def end_to_end(sequences: list[list[Outcome]]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(sum(o.wall for o in seq) for seq in sequences),
        "cmd_p50_s": statistics.median(o.wall for seq in sequences for o in seq),
        "cpu_s": statistics.median(sum(o.cpu for o in seq) for seq in sequences),
        "peak_rss_mb": max(o.rss_mb for seq in sequences for o in seq),
    }


def per_layer(sequences: list[list[tuple[Outcome, dict]]], untraced_wall: float) -> dict[str, float]:
    rows = []
    for seq in sequences:
        row = spans.sequence_metrics([record for _, record in seq])
        row["trace.wall_s"] = sum(outcome.wall for outcome, _ in seq)
        rows.append(row)
    metrics = spans.median_metrics(rows)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    return {name: metrics[name] for name in spans.metric_names()}


def measure(args, bench: Bench) -> dict[str, dict]:
    warm = bench.python("import anisogauge.cli")  # fills the file cache
    if warm.code != 0:
        raise RuntimeError(f"cannot import anisogauge.cli from src/: {warm.err[-300:]!r}")
    setup = None if args.trace else setup_seconds(bench)
    ops = workloads.build(args.workload, args.seed, bench.workdir)
    sequences = repeat(lambda: [bench.run(op) for op in ops], args.seconds)
    print(f"sequences {len(sequences)}, wall_s each "
          + " ".join(f"{sum(o.wall for o in seq):.3f}" for seq in sequences))
    untraced = end_to_end(sequences)
    if args.trace:
        traced = repeat(lambda: [bench.run_traced(op) for op in ops], args.seconds)
        layer = per_layer(traced, untraced["wall_s"])
        return {name: {"value": v, "unit": spans.unit(name)} for name, v in layer.items()}
    untraced["setup_s"] = setup
    return {name: {"value": untraced[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "anisogauge" / "cli.py").is_file():
        print(f"error: {ROOT} is not an anisogauge source checkout (no src/anisogauge)",
              file=sys.stderr)
        return 2
    print(f"env python={platform.python_version()} numpy={np.__version__} "
          f"nproc={len(os.sched_getaffinity(0))} workload={args.workload} seed={args.seed}")
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        bench = Bench(workdir)
        metrics = measure(args, bench)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"summary attempted={bench.attempted} failed={bench.failed} "
          f"fail_ratio={bench.failed / bench.attempted:.6g}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
