"""Output checks for every operation the benchmark runs.

Each check takes the exit code, stdout and stderr of one command and raises
`BadOutput` when they are wrong.  The checks use only the arithmetic the
paper states (rank formulas, census counts, the existence gate) and never
call anisogauge.
"""

import hashlib
import json

VERIFY_BOUND = 2000  # `verify`'s default cap on p*q^2, which `sweep` applies per row


class BadOutput(Exception):
    """An operation's exit code or output is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise BadOutput(message)


def odd_primes(n: int) -> list[int]:
    return [k for k in range(3, n + 1, 2) if all(k % d for d in range(3, int(k**0.5) + 1, 2))]


def payload(code: int, out: bytes, err: bytes) -> dict:
    """The JSON payload of a successful command, with its sha256 verified.

    The digest must be the sha256 of the compact payload without the
    `sha256` key, and stdout must be exactly that payload plus the digest.
    """
    _require(code == 0, f"exit code {code}, stderr {err[-300:]!r}")
    try:
        data = json.loads(out)
    except ValueError as exc:
        raise BadOutput(f"stdout is not JSON: {exc}") from None
    _require(isinstance(data, dict) and "sha256" in data, "payload has no sha256")
    body = {k: v for k, v in data.items() if k != "sha256"}
    canonical = json.dumps(body, separators=(",", ":"))
    _require(data["sha256"] == hashlib.sha256(canonical.encode()).hexdigest(), "stale sha256")
    _require(out == (json.dumps(data, separators=(",", ":")) + "\n").encode(),
             "stdout is not the canonical payload")
    return data


def verify(p: int, q: int):
    # The documented skips: the criterion suite needs odd p and q, the
    # hyperbolic controls need odd q.
    skippable = set()
    if p == 2 or q == 2:
        skippable.add("criterion-suite")
    if q == 2:
        skippable.add("hyperbolic-controls")

    def check(code: int, out: bytes, err: bytes) -> None:
        data = payload(code, out, err)
        _require((data.get("command"), data.get("p"), data.get("q")) == ("verify", p, q),
                 "payload is for another command")
        checks = data.get("checks") or []
        _require(bool(checks), "no checks reported")
        for c in checks:
            ok = c["status"] == "pass" or (c["status"] == "skip" and c["name"] in skippable)
            _require(ok, f"check {c['name']} is {c['status']}: {c['detail']}")
        _require(data.get("passed") is True, "passed is not true")

    return check


def census(p: int, q: int):
    orbits = (q * q - 1) // p

    def check(code: int, out: bytes, err: bytes) -> None:
        data = payload(code, out, err)
        _require((data.get("command"), data.get("p"), data.get("q")) == ("census", p, q),
                 "payload is for another command")
        _require(data.get("rank") == p * p + orbits, f"rank {data.get('rank')}")
        _require(data.get("sum_dim_sq") == p * p * q * q, f"sum_dim_sq {data.get('sum_dim_sq')}")
        entries = data.get("entries") or []
        counts = [e["count"] for e in entries]
        _require(counts == [p, orbits, p * (p - 1)], f"counts {counts}")
        _require(sum(e["count"] * e["dim"] ** 2 for e in entries) == p * p * q * q,
                 "entry squares do not sum to p^2 q^2")

    return check


def sweep(qmax: int):
    primes = odd_primes(qmax)
    want = {}
    for q in primes:
        for p in primes:
            if p < q:
                gate = (q + 1) % p == 0
                rank = p * p + (q * q - 1) // p if gate else None
                status = ("pass" if p * q * q <= VERIFY_BOUND else "skipped-bound") if gate else ""
                want[(p, q)] = {"p": p, "q": q, "gate": gate, "rank": rank, "verify": status}

    def check(code: int, out: bytes, err: bytes) -> None:
        data = payload(code, out, err)
        _require((data.get("command"), data.get("qmax")) == ("sweep", qmax),
                 "payload is for another command")
        rows = data.get("rows") or []
        got = {(r["p"], r["q"]): r for r in rows}
        _require(len(got) == len(rows), "duplicate sweep rows")
        _require(got.keys() == want.keys(),
                 f"missing rows {sorted(want.keys() - got.keys())}, "
                 f"extra rows {sorted(got.keys() - want.keys())}")
        for key, row in want.items():
            _require(got[key] == row, f"row {got[key]} should be {row}")

    return check


def double_rank(order: int, rank: int):
    def check(code: int, out: bytes, err: bytes) -> None:
        data = payload(code, out, err)
        _require(data.get("command") == "double-rank", "payload is for another command")
        _require(data.get("order") == order, f"order {data.get('order')}, want {order}")
        _require(data.get("rank") == rank, f"rank {data.get('rank')}, want {rank}")

    return check


def error_exit(expected: int):
    def check(code: int, out: bytes, err: bytes) -> None:
        _require(code == expected, f"exit code {code}, want {expected}")
        _require(out == b"", "stdout is not empty")
        _require(err.startswith(b"error:"), f"stderr {err[:200]!r} does not start with error:")

    return check


def bare_import(code: int, out: bytes, err: bytes) -> None:
    _require(code == 0, f"exit code {code}, stderr {err[-300:]!r}")
    _require(out == b"", "stdout is not empty")


def failure(check, code: int, out: bytes, err: bytes) -> str | None:
    """Why the output fails `check`, or None when it passes.

    A payload missing a key or holding a value of the wrong type fails too.
    """
    try:
        check(code, out, err)
    except BadOutput as exc:
        return str(exc)
    except (LookupError, TypeError, AttributeError) as exc:
        return f"malformed payload: {exc!r}"
    return None
