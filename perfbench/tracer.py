"""Run one anisogauge CLI command in this process with its layer calls timed.

    python perfbench/tracer.py SPANFILE CMD_ID -- ARGV...
    python perfbench/tracer.py SPANFILE CMD_ID --import-only

The first form imports `anisogauge.cli`, wraps the module-level functions
listed in `spans.WRAPPED`, calls `cli.main(ARGV)` and exits with its code,
so stdout, stderr and the exit code are those of
`python -m anisogauge.cli ARGV`.  The second form only imports the package.
Spans stay in memory and are written to SPANFILE as JSON when the command
ends, together with the import time.
"""

import functools
import json
import sys
import time

from spans import ROOT, SIZES, WRAPPED


def _wrap(spans: list, stack: list, cmd: int, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": stack[-1] if stack else None, "cmd": cmd}
        stack.append(len(spans))
        spans.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name in SIZES:
                span["size"] = SIZES[name][1](result)
            return result
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    return traced


def _exit_code(err: SystemExit) -> int:
    if err.code is None:
        return 0
    return err.code if isinstance(err.code, int) else 1


def main(argv: list[str]) -> int:
    out_path, cmd, rest = argv[0], int(argv[1]), argv[2:]
    record = {"cmd": cmd, "import_s": 0.0, "spans": []}
    t0 = time.perf_counter()
    if rest == ["--import-only"]:
        import anisogauge  # noqa: F401

        record["import_s"] = time.perf_counter() - t0
        _write(out_path, record)
        return 0
    if rest[:1] != ["--"]:
        raise SystemExit("usage: tracer.py SPANFILE CMD_ID (--import-only | -- ARGV...)")
    from anisogauge import cli, fusionring, gtcheck, orthogroup, quadspace

    record["import_s"] = time.perf_counter() - t0
    spans, stack = record["spans"], []
    owners = {"ffield": cli, "quadspace": quadspace, "orthogroup": orthogroup,
              "fusionring": fusionring, "gtcheck": gtcheck}
    for mod, names in WRAPPED.items():
        for fn in names:
            owner = owners[mod]
            setattr(owner, fn, _wrap(spans, stack, cmd, f"{mod}.{fn}", getattr(owner, fn)))
    try:
        code = _wrap(spans, stack, cmd, ROOT, cli.main)(rest[1:])
    except SystemExit as err:
        code = _exit_code(err)
    finally:
        sys.stdout.flush()
        _write(out_path, record)
    return code


def _write(path: str, record: dict) -> None:
    with open(path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
