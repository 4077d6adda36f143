"""The CLI process ends at one flushed `os._exit` in `cli.run`: each test runs
the CLI as a subprocess, through `python -m anisogauge.cli` and through a
caller of `run`, and reads what reached its stdout, its stderr and its
exit code."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import anisogauge
from anisogauge import cli

SRC = str(Path(anisogauge.__file__).resolve().parent.parent)

ENTRIES = {
    "module": ["-m", "anisogauge.cli"],
    "run": ["-c", "from anisogauge.cli import run; run()"],
}


def cli_process(entry: str, argv: list, **kwargs) -> subprocess.CompletedProcess:
    # PYTHONUNBUFFERED would write each print at once and hide a lost flush
    environ = {**os.environ, "PYTHONPATH": SRC}
    for name in ("ANISOGAUGE_BOUND", "PYTHONUNBUFFERED"):
        environ.pop(name, None)
    return subprocess.run([sys.executable, *ENTRIES[entry], *argv], env=environ, timeout=60,
                          **kwargs)


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_payload_larger_than_the_stdout_buffer_arrives_whole(entry, capsys):
    argv = ["sweep", "200", "--format", "json"]
    done = cli_process(entry, argv, capture_output=True)
    assert cli.main(argv) == done.returncode == cli.EXIT_OK
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 4 * io.DEFAULT_BUFFER_SIZE
    assert done.stdout == expected
    data = json.loads(done.stdout)
    digest = data.pop("sha256")
    assert hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,code", [
    (["--timing", "census", "3", "5"], cli.EXIT_OK),
    (["--timing", "verify", "3", "7"], cli.EXIT_EXISTENCE),
])
def test_the_timing_line_reaches_stderr(argv, code):
    done = cli_process("module", argv, capture_output=True, text=True)
    assert done.returncode == code
    assert re.fullmatch(r"elapsed \d+\.\d{3}s", done.stderr.splitlines()[-1])


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv,code", [
    (["census", "3", "5"], cli.EXIT_OK),
    (["verify", "--help"], cli.EXIT_OK),
    (["verify", "3", "7"], cli.EXIT_EXISTENCE),
    (["verify", "3", "29"], cli.EXIT_BOUND),
    (["verify", "3", "4"], cli.EXIT_USAGE),
])
def test_exit_codes_through_each_entry(entry, argv, code, capsys):
    # the process writes what in-process `main` writes, and exits with its code
    done = cli_process(entry, argv, capture_output=True, text=True)
    try:
        returned = cli.main(argv)
    except SystemExit as stop:  # argparse's usage error and --help
        returned = stop.code
    captured = capsys.readouterr()
    assert done.returncode == returned == code
    assert (done.stdout, done.stderr) == (captured.out, captured.err)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv", [
    ["census", "3", "5"],  # fits the buffer: the final flush fails
    ["sweep", "200", "--format", "json"],  # overflows it: a print inside `main` fails
    ["--help"],  # argparse's exit 0: the final flush fails
])
def test_a_closed_stdout_exits_74_through_each_entry(entry, argv):
    read, write = os.pipe()
    os.close(read)
    try:
        done = cli_process(entry, argv, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert done.returncode == cli.EXIT_IO
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: cannot write to stdout: ")
