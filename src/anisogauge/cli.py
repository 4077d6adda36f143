"""Command-line driver emitting deterministic machine-readable reports.

Commands: census, verify, sweep, double-rank.  Exit codes: 0 success, 1 check
failure (a failed verify row, or an ArithmeticError raised by a certification),
2 existence violated, 3 bound exceeded, 64 usage, 74 stdout closed.
This module parses the arguments, applies the gates and formats the payload.
`verify` refuses p*q^2 over its bound, a pair `gauging.certify_pair` refuses,
then a ring over its byte budget; it and `sweep` hand `suite.verify_rows` the
certified pair, and the rows, with the rule that turns an error into a fail
row, come from there.  `gauging.COMPLETE_BOUND`, the largest p*q^2 at which
every verify check runs, is verify's default bound and sweep's verify cutoff.
Output for a fixed command line is byte-identical across runs; timing is
opt-in and goes to stderr so it never touches the payload.
`run()`, the entry of `python -m anisogauge.cli` and of the console script,
flushes stdout and stderr and then ends the process with `os._exit`, so
`atexit` handlers that an embedding caller registers do not run; in-process
callers use `main`, which returns the exit code.
Only `verify` past its gates, `sweep` past its cap and `double-rank` past
reading its table load numpy, so `census` and the refusals start quickly.
The payload digest is CPython's built-in SHA-256: no command loads OpenSSL.
"""

import argparse
import json
import os
import sys
import time

try:  # hashlib would map OpenSSL's libcrypto
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:  # a build without the built-in hashes, e.g. for FIPS
        from hashlib import sha256

# numpy-free modules only; the array layers are imported inside the
# commands that need them
from . import gauging
from .errors import AnisogaugeError, BadParameter, BoundExceeded, ExistenceViolated, decimal
# `ker_norm` and `make_field` are unused here: they are imported by name
# only because the traced benchmark patches them on this module
from .ffield import PRIME_TEST_LIMIT, is_prime, ker_norm, make_field  # noqa: F401

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_EXISTENCE = 2
EXIT_BOUND = 3
EXIT_USAGE = 64
EXIT_IO = 74

SWEEP_HARD_CAP = 200


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _prime(text: str) -> int:
    """A prime below PRIME_TEST_LIMIT, where `is_prime` runs in bounded time."""
    try:
        value = decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value >= PRIME_TEST_LIMIT:
        raise argparse.ArgumentTypeError(
            f"{value} is too large: primes must be below {PRIME_TEST_LIMIT}")
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"{value} is not prime")
    return value


def _payload_json(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":"))


def _csv_cell(value) -> str:
    """None as empty, a bool in lower case, and `;` for every `,`."""
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else str(value).replace(",", ";")


def _emit(payload: dict, fmt: str, table_lines, csv_fields: tuple, csv_rows) -> None:
    """Print the payload as json, the table lines, or CSV: `csv_fields` of the `csv_rows` dicts."""
    digest = sha256(_payload_json(payload).encode()).hexdigest()
    if fmt == "json":
        print(_payload_json({**payload, "sha256": digest}))
    elif fmt == "csv":
        print(",".join(csv_fields))
        for row in csv_rows:
            print(",".join(_csv_cell(row[field]) for field in csv_fields))
    else:
        for line in table_lines:
            print(line)
        print(f"sha256 {digest}")


def _non_negative(text: str) -> int:
    """A bound, from --bound or ANISOGAUGE_BOUND, or sweep's qmax: a
    non-negative integer."""
    try:
        value = decimal(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return value


def _bound(flag: int | None) -> int:
    """verify's cap on p*q^2: --bound, else ANISOGAUGE_BOUND, else gauging.COMPLETE_BOUND.
    Either must parse with `_non_negative`; otherwise it is a usage error."""
    if flag is not None:
        return flag
    raw = os.environ.get("ANISOGAUGE_BOUND")
    if raw is None:
        return gauging.COMPLETE_BOUND
    try:
        return _non_negative(raw)
    except argparse.ArgumentTypeError as err:
        print(f"error: ANISOGAUGE_BOUND={err}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_census(p: int, q: int, fmt: str) -> int:
    pair = gauging.certify_pair(p, q)
    census, ctx = gauging.equivariantization_census(pair), pair.ctx
    entries = [
        {"label": label, "dim": dim, "count": count}
        for label, dim, count in census.entries
    ]
    payload = {
        "command": "census",
        "p": p,
        "q": q,
        "defining_poly": ctx.poly_str(),
        "rank": census.rank,
        "entries": entries,
        "sum_dim_sq": census.global_dim,
        "expected_dim": p * p * q * q,
    }
    table = [
        f"p={p} q={q} defining_poly={ctx.poly_str()}",
        f"rank {census.rank}",
    ]
    table += [f"  dim {e['dim']:>3} count {e['count']:>4}  {e['label']}" for e in entries]
    table.append(f"sum_dim_sq {census.global_dim} = p^2*q^2")
    _emit(payload, fmt, table, ("label", "dim", "count"), entries)
    return EXIT_OK


def cmd_verify(p: int, q: int, bound: int, fmt: str) -> int:
    if p * q * q > bound:
        raise BoundExceeded(f"p*q^2 = {p * q * q} exceeds bound {bound}")
    pair = gauging.certify_pair(p, q)
    from . import fusionring, suite

    fusionring._require_ring_budget(p, q)
    checks = suite.verify_rows(pair)
    failed = [c for c in checks if c["status"] == "fail"]
    payload = {
        "command": "verify",
        "p": p,
        "q": q,
        "bound": bound,
        "checks": checks,
        "passed": not failed,
    }
    table = [f"verify p={p} q={q}"]
    table += [f"  {c['status'].upper():<4} {c['name']}: {c['detail']}" for c in checks]
    table.append(f"result {'PASS' if not failed else 'FAIL'}")
    _emit(payload, fmt, table, ("name", "status", "detail"), checks)
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def cmd_sweep(qmax: int, fmt: str) -> int:
    if qmax > SWEEP_HARD_CAP:
        raise BoundExceeded(f"qmax={qmax} exceeds bound {SWEEP_HARD_CAP}")
    from . import suite

    rows = []
    primes = [k for k in range(3, qmax + 1, 2) if is_prime(k)]
    for i, q in enumerate(primes):
        for p in primes[:i]:  # odd primes p < q, so the gate is p | q + 1 alone
            row = {"p": p, "q": q, "gate": gauging._exists(p, q), "rank": None, "verify": ""}
            if row["gate"]:
                row["rank"] = p * p + (q * q - 1) // p
                if p * q * q <= gauging.COMPLETE_BOUND:
                    checks = suite.verify_rows(gauging.certify_pair(p, q))
                    ok = all(c["status"] != "fail" for c in checks)
                    row["verify"] = "pass" if ok else "fail"
                else:
                    row["verify"] = "skipped-bound"
            rows.append(row)
    payload = {"command": "sweep", "qmax": qmax, "rows": rows}
    table = [f"sweep qmax={qmax}"]
    for r in rows:
        rank = "" if r["rank"] is None else f" rank={r['rank']}"
        verify = f" verify={r['verify']}" if r["verify"] else ""
        table.append(f"  p={r['p']} q={r['q']} gate={str(r['gate']).lower()}{rank}{verify}")
    _emit(payload, fmt, table, ("p", "q", "gate", "rank", "verify"), rows)
    return EXIT_CHECK_FAILED if any(r["verify"] == "fail" for r in rows) else EXIT_OK


def cmd_double_rank(path: str, fmt: str) -> int:
    try:
        with open(path) as fh:
            tokens = []
            while not tokens and (line := fh.readline()):  # the header, past blank lines
                tokens = line.split()
            if not tokens:
                raise ValueError("no group order in a blank file")
            n = decimal(tokens[0])
            if n < 1:
                raise ValueError(f"group order {n} is not positive")
            if n > gauging.DOUBLE_RANK_BOUND:  # refused before the n^2 entries are read
                raise BoundExceeded(f"group order {n} exceeds {gauging.DOUBLE_RANK_BOUND}")
            tokens += fh.read().split()
        if len(tokens) != 1 + n * n:
            raise ValueError(f"expected {n * n} entries, got {len(tokens) - 1}")
        entries = list(map(decimal, tokens[1:]))
        import numpy as np  # not before, so that the refusals above skip it

        table = np.array(entries, dtype=np.int32).reshape(n, n)
    except BoundExceeded:  # a ValueError, but not a malformed table
        raise
    except (OSError, ValueError, OverflowError) as err:
        raise BadParameter(f"cannot read group table: {err}") from None
    from . import fusionring

    rank = fusionring.drinfeld_double_rank(table)
    payload = {"command": "double-rank", "order": int(n), "rank": rank}
    table_lines = [f"group order {n}", f"double rank {rank}"]
    _emit(payload, fmt, table_lines, ("order", "rank"), [payload])
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="anisogauge", description=__doc__)
    parser.add_argument("--timing", action="store_true", help="print elapsed time to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("census", help="simple-object census for (p, q)")
    c.add_argument("p", type=_prime)
    c.add_argument("q", type=_prime)
    c.add_argument("--format", default="table", choices=["table", "json", "csv"])

    v = sub.add_parser("verify", help="full verification suite for (p, q)")
    v.add_argument("p", type=_prime)
    v.add_argument("q", type=_prime)
    v.add_argument("--bound", type=_non_negative, default=None, help="cap on p*q^2")
    v.add_argument("--format", default="table", choices=["table", "json", "csv"])

    s = sub.add_parser("sweep", help="existence sweep over odd prime pairs")
    s.add_argument("qmax", type=_non_negative, help=f"largest swept q, at most {SWEEP_HARD_CAP}")
    s.add_argument("--format", default="table", choices=["table", "json", "csv"])

    d = sub.add_parser("double-rank", help="rank of the double from a multiplication table")
    d.add_argument("group_file")
    d.add_argument("--format", default="table", choices=["table", "json", "csv"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.command == "census":
            code = cmd_census(args.p, args.q, args.format)
        elif args.command == "verify":
            code = cmd_verify(args.p, args.q, _bound(args.bound), args.format)
        elif args.command == "sweep":
            code = cmd_sweep(args.qmax, args.format)
        else:
            code = cmd_double_rank(args.group_file, args.format)
    except (AnisogaugeError, ArithmeticError) as err:
        ours = isinstance(err, AnisogaugeError)  # else a certification failed
        print(f"error: {err}" if ours else f"error: {type(err).__name__}: {err}", file=sys.stderr)
        if isinstance(err, ExistenceViolated):
            code = EXIT_EXISTENCE
        elif isinstance(err, BoundExceeded):
            code = EXIT_BOUND
        else:
            code = EXIT_USAGE if ours else EXIT_CHECK_FAILED
    if args.timing:
        print(f"elapsed {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


def run() -> None:
    # numpy's bundled OpenBLAS starts one worker thread per core when numpy
    # is imported, and each spins for about 60 ms of CPU before it sleeps.
    # No command makes a BLAS call worth a second thread, and the spin costs
    # a short run wall time whenever the cores are shared, so the program
    # keeps BLAS to one thread unless the caller sets it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        try:
            code = main()
        except SystemExit as stop:  # argparse's usage error (64) and --help (0)
            code = stop.code
        sys.stdout.flush()
    except BrokenPipeError as err:
        print(f"error: cannot write to stdout: {err}", file=sys.stderr)
        code = EXIT_IO
    # The program writes only stdout and stderr, and both are flushed here,
    # so interpreter finalization (tens of ms of module teardown) has no
    # work left to do: end the process at once.
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
