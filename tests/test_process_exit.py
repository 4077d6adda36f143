"""The CLI process ends at one flushed `os._exit` in `cli.run`: each test runs
the CLI as a subprocess, through `python -m anisogauge.cli` and through a
caller of `run`, and reads what reached its stdout, its stderr and its
exit code.  The installed `anisogauge` script enters through `run` too
(`sys.exit(run())`), so this module is the one matrix of exit codes; the
numpy-free CI job repeats none of it but three checks of that script's
wiring to `run`."""

import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from anisogauge import cli

from oracles import child_env

ENTRIES = {
    "module": ["-m", "anisogauge.cli"],
    "run": ["-c", "from anisogauge.cli import run; run()"],
}


def cli_process(entry: str, argv: list, env=None, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *ENTRIES[entry], *argv], env=env or child_env(),
                          timeout=60, **kwargs)


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


def closed_process(fd: int, how: str, entry: str, argv: list, env=None) -> subprocess.CompletedProcess:
    """The CLI run with descriptor `fd` (1, stdout, or 2, stderr) closed and
    the other one captured: "pipe" gives it a pipe whose read end is closed
    (EPIPE); "fd1" or "fd2" starts it through `sh` with `1>&-` or `2>&-`, so
    the interpreter finds the descriptor closed and sets `sys.stdout` or
    `sys.stderr` to None."""
    closed, captured = ("stdout", "stderr") if fd == 1 else ("stderr", "stdout")
    if how == f"fd{fd}":
        command = ["sh", "-c", f'exec "$0" "$@" {fd}>&-', sys.executable, *ENTRIES[entry], *argv]
        return subprocess.run(command, env=env or child_env(), timeout=60,
                              **{captured: subprocess.PIPE})
    read, write = os.pipe()
    os.close(read)
    try:
        return cli_process(entry, argv, env, **{closed: write, captured: subprocess.PIPE})
    finally:
        os.close(write)


def assert_exits_74_on_a_closed_stdout(entry: str, argv: list, env=None, how="pipe") -> None:
    done = closed_process(1, how, entry, argv, env)
    assert done.returncode == cli.EXIT_IO
    (line,) = done.stderr.decode().splitlines()
    assert line.startswith("error: cannot write to stdout: ")
    if how == "pipe":  # the reader has gone: the line names the failure
        assert os.strerror(errno.EPIPE) in line


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv", [
    ["census", "3", "5"],  # fits the buffer: the final flush fails
    ["sweep", "200", "--format", "json"],  # overflows it: a print inside `main` fails
    ["--help"],  # argparse's exit 0: the final flush fails
    ["verify", "3", "5", "--format", "json"],  # a verify payload: the final flush fails
])
def test_a_closed_stdout_exits_74_through_each_entry(entry, argv):
    assert_exits_74_on_a_closed_stdout(entry, argv)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_an_unbuffered_help_to_a_closed_stdout_exits_74(entry, argv):
    # unbuffered, the help text is written inside argparse, which would
    # swallow the OSError and exit 0 with nothing printed
    assert_exits_74_on_a_closed_stdout(entry, argv, child_env(PYTHONUNBUFFERED="1"))


UNBUFFERED = pytest.mark.parametrize("unbuffered", [{}, {"PYTHONUNBUFFERED": "1"}],
                                     ids=["buffered", "unbuffered"])


@UNBUFFERED
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv", [
    ["census", "3", "5", "--format", "json"],
    ["verify", "3", "5"],
    ["sweep", "20"],
    ["sweep", "200", "--format", "json"],
    ["--help"],
    ["verify", "--help"],
], ids=["census", "verify", "sweep", "sweep-json", "help", "verify-help"])
def test_a_stdout_closed_at_start_up_exits_74(argv, entry, unbuffered):
    # `sys.stdout` is None: the payload or help text is refused by `_say`,
    # where `print` would drop it and the final flush raise AttributeError
    assert_exits_74_on_a_closed_stdout(entry, argv, child_env(**unbuffered), how="fd1")


@UNBUFFERED
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv,code", [
    (["verify", "3", "7"], cli.EXIT_EXISTENCE),
    (["verify", "3", "29"], cli.EXIT_BOUND),
    (["verify", "3"], cli.EXIT_USAGE),
], ids=["existence", "bound", "usage"])
def test_a_refusal_with_stdout_closed_at_start_up_keeps_its_code(argv, code, entry, unbuffered,
                                                                   capsys):
    # a refusal writes nothing to stdout, so it keeps its code and its stderr
    done = closed_process(1, "fd1", entry, argv, child_env(**unbuffered))
    try:
        cli.main(argv)
    except SystemExit:  # argparse's usage error
        pass
    assert done.returncode == code
    assert done.stderr.decode() == capsys.readouterr().err


@UNBUFFERED
@pytest.mark.parametrize("how", ["pipe", "fd2"])
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("argv,env,code", [
    (["verify", "3", "7"], {}, cli.EXIT_EXISTENCE),
    (["verify", "3", "29"], {}, cli.EXIT_BOUND),
    (["verify", "3"], {}, cli.EXIT_USAGE),
    (["verify", "3", "5"], {"ANISOGAUGE_BOUND": "x"}, cli.EXIT_USAGE),
    (["double-rank", "no-such-file.txt"], {}, cli.EXIT_USAGE),
    (["--timing", "census", "3", "5", "--format", "json"], {}, cli.EXIT_OK),
], ids=["existence", "bound", "usage", "env-bound", "missing-file", "timing"])
def test_a_closed_stderr_keeps_the_exit_code(argv, env, code, entry, how, unbuffered):
    # each stderr line is dropped: it neither turns the exit code into 1 or
    # 120 nor reaches stdout, and the payload arrives whole
    done = closed_process(2, how, entry, argv, child_env(**env, **unbuffered))
    assert done.returncode == code
    if code != cli.EXIT_OK:
        assert done.stdout == b""
        return
    (line,) = done.stdout.splitlines()
    data = json.loads(line)
    digest = data.pop("sha256")
    assert hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest() == digest


def stdout_on_device(device: str, entry: str, argv: list, env) -> subprocess.CompletedProcess:
    """The CLI with stdout on a device and stderr captured: "full" is
    /dev/full, where every write fails with ENOSPC; "read-only" is /dev/null
    opened for reading, where every write fails with EBADF."""
    fd = os.open("/dev/full", os.O_WRONLY) if device == "full" else os.open(os.devnull, os.O_RDONLY)
    try:
        return cli_process(entry, argv, env, stdout=fd, stderr=subprocess.PIPE)
    finally:
        os.close(fd)


@UNBUFFERED
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("device,argv,code", [
    ("full", ["census", "3", "5", "--format", "json"], cli.EXIT_IO),
    ("full", ["sweep", "200", "--format", "json"], cli.EXIT_IO),  # overflows the buffer
    ("full", ["--help"], cli.EXIT_IO),
    ("read-only", ["census", "3", "5"], cli.EXIT_IO),
    ("full", ["verify", "3", "7"], cli.EXIT_EXISTENCE),
], ids=["census-full", "sweep-json-full", "help-full", "census-read-only", "refusal-full"])
def test_any_failed_stdout_write_exits_74(device, argv, code, entry, unbuffered):
    # ENOSPC and EBADF fail the write as EPIPE does: buffered at the final
    # flush, unbuffered inside `_say`; either way one `error:` line, and the
    # text left in the buffer gives no second one.  A refusal writes nothing
    # to stdout, so it keeps its own code
    done = stdout_on_device(device, entry, argv, child_env(**unbuffered))
    assert done.returncode == code
    (line,) = done.stderr.decode().splitlines()
    if code == cli.EXIT_IO:
        assert line.startswith("error: cannot write to stdout: ")
    else:
        assert line == "error: p=3 does not divide q+1=8"


def run_with_main(body: str, **kwargs) -> subprocess.CompletedProcess:
    """`cli.run()` in a child whose `cli.main` is replaced by `body`, the
    statements of a function of `argv`."""
    script = ("import errno, os\n"
              "from anisogauge import cli\n"
              "def main(argv=None):\n"
              + "".join(f"    {line}\n" for line in body.splitlines())
              + "cli.main = main\n"
              "cli.run()\n")
    return subprocess.run([sys.executable, "-c", script], env=child_env(), text=True,
                          timeout=60, **kwargs)


def test_an_oserror_outside_the_stdout_writes_is_not_reported_as_one():
    # only `_say`'s write and `run`'s flush read as a failed stdout write:
    # an OSError raised elsewhere in `main` keeps its traceback
    done = run_with_main("raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))",
                         capture_output=True)
    assert done.returncode not in (cli.EXIT_OK, cli.EXIT_IO)
    assert done.stdout == ""
    assert "Traceback" in done.stderr and "cannot write to stdout" not in done.stderr


def test_text_left_in_the_buffer_after_a_failed_write_gives_no_second_error():
    # a short write waits in the buffer, a long one fails and leaves it
    # there: `run` does not flush it again, so one `error:` line
    fd = os.open("/dev/full", os.O_WRONLY)
    try:
        done = run_with_main('cli._say("a" * 100)\ncli._say("b" * 100000)\nreturn 0',
                             stdout=fd, stderr=subprocess.PIPE)
    finally:
        os.close(fd)
    assert done.returncode == cli.EXIT_IO
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: cannot write to stdout: ")
