import csv
import errno
import hashlib
import itertools
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anisogauge import cli, ffield, fusionring, gauging, gtcheck, suite
from anisogauge.cli import main, sha256
from anisogauge.errors import BadParameter, ExistenceViolated

from oracles import child_env


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_census_table(capsys):
    code, out, _ = run(capsys, ["census", "3", "5"])
    assert code == 0
    assert "rank 17" in out
    assert "sum_dim_sq 225" in out
    assert "sha256 " in out


def test_census_existence_violated(capsys):
    code, _, err = run(capsys, ["census", "3", "7"])
    assert code == 2
    assert "does not divide" in err


def test_census_json_5_19(capsys):
    code, out, _ = run(capsys, ["census", "5", "19", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 97
    assert data["sum_dim_sq"] == 9025
    assert [e["count"] for e in data["entries"]] == [5, 72, 20]


def test_census_json_3_2(capsys):
    # q = 2: the extension's defining polynomial is x^2 + x + 1, not x^2 - d
    code, out, _ = run(capsys, ["census", "3", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert (data["defining_poly"], data["rank"], data["sum_dim_sq"]) == ("x^2 + x + 1", 10, 36)


def test_census_csv(capsys):
    code, out, _ = run(capsys, ["census", "3", "5", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "label,dim,count"
    assert "orbit-sum,3,8" in out


def test_verify_3_5_green(capsys):
    code, out, _ = run(capsys, ["verify", "3", "5"])
    assert code == 0
    assert "result PASS" in out
    assert "FAIL" not in out.replace("result PASS", "")


def test_verify_3_2_skips_criterion(capsys):
    code, out, _ = run(capsys, ["verify", "3", "2"])
    assert code == 0
    assert "SKIP criterion-suite" in out
    assert "result PASS" in out


def test_verify_bound_exceeded(capsys):
    code, _, err = run(capsys, ["verify", "7", "97"])
    assert code == 3
    assert "exceeds bound" in err


def _cap_address_space():
    limit = 2 ** 29  # numpy imports in well under this; a ring past the budget would not fit
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_verify_refuses_a_ring_over_its_byte_budget():
    # rank 38811 would store prod in int32 and coef in int16, plus one int64
    # multi row, 9 GB in all;
    # the refusal comes before they are allocated, and the child runs in a
    # 512 MB address space, so a regression fails with a traceback instead
    # of allocating
    done = subprocess.run(
        [sys.executable, "-m", "anisogauge.cli", "verify", "3", "197", "--bound", "1000000"],
        env=child_env(), capture_output=True, text=True,
        preexec_fn=_cap_address_space)
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == ("error: the ring of rank 38811 needs 9038072814 bytes, "
                           f"over the budget of {gauging.RING_BYTE_BUDGET}\n")


def test_verify_existence(capsys):
    code, _, err = run(capsys, ["verify", "3", "7"])
    assert code == 2


def test_verify_env_bound(capsys, monkeypatch):
    monkeypatch.setenv("ANISOGAUGE_BOUND", "10")
    code, _, err = run(capsys, ["verify", "3", "5"])
    assert code == 3
    monkeypatch.setenv("ANISOGAUGE_BOUND", "100")
    code, out, _ = run(capsys, ["verify", "3", "5"])
    assert code == 0
    code, out, err = run(capsys, ["verify", "3", "11"])
    assert code == 3 and out == "" and err.startswith("error:")
    monkeypatch.setenv("ANISOGAUGE_BOUND", "0")  # zero is a bound, not "unset"
    code, out, err = run(capsys, ["verify", "3", "5"])
    assert code == 3 and "exceeds bound 0" in err


@pytest.mark.parametrize("raw", ["abc", "-1", "2.5", "", "1_000", " +75 ", "+75", " 75",
                                 "\u0661\u0661"])
def test_env_bound_rejects_bad_values(capsys, monkeypatch, raw):
    monkeypatch.setenv("ANISOGAUGE_BOUND", raw)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "3", "5"])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ANISOGAUGE_BOUND")
    # an explicit --bound wins and the variable is not read
    code, _, _ = run(capsys, ["verify", "3", "5", "--bound", "100"])
    assert code == 0


@pytest.mark.parametrize("raw", ["-1", "abc", "1_000", "+75", " 75", "\u0661\u0661"])
def test_bound_flag_rejects_bad_values(capsys, raw):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "3", "5", "--bound", raw])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument --bound: {raw!r} is not a non-negative integer" in captured.err


@pytest.mark.parametrize("raw", ["-5", "abc"])
def test_sweep_rejects_bad_qmax(capsys, raw):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--", raw])
    assert exc.value.code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument qmax: {raw!r} is not a non-negative integer" in captured.err


def test_sweep_rows(capsys):
    code, out, _ = run(capsys, ["sweep", "20", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p,q,gate,rank,verify"
    assert "3,5,true,17,pass" in lines
    assert "3,7,false,," in lines
    assert "3,11,true,49,pass" in lines
    assert "5,19,true,97,pass" in lines
    assert "3,17,true,105,pass" in lines
    # deterministic row order: q ascending then p ascending
    keys = [tuple(map(int, l.split(",")[:2]))[::-1] for l in lines[1:]]
    assert keys == sorted(keys)


def test_sweep_small(capsys):
    code, out, _ = run(capsys, ["sweep", "6", "--format", "csv"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert rows == ["3,5,true,17,pass"]


def test_sweep_lists_the_primes_once(capsys, monkeypatch):
    # each p is taken from the prefix of the one list of odd primes up to
    # qmax: one primality test per odd k <= qmax, not one pass per q
    tested = []
    is_prime = cli.is_prime
    monkeypatch.setattr(cli, "is_prime", lambda k: tested.append(k) or is_prime(k))
    monkeypatch.setattr(suite, "verify_rows", lambda pair: [])
    code, _, _ = run(capsys, ["sweep", "200"])
    assert code == 0
    assert tested == list(range(3, 201, 2))


def test_sweep_tests_each_prime_once(capsys, monkeypatch):
    # the gate of a swept pair is p | q + 1 alone: p and q come from the
    # sweep's list of odd primes, so no stage re-tests them pair by pair
    tested, gated = [], []
    for module in (cli, ffield, gauging, gtcheck):
        monkeypatch.setattr(
            module, "is_prime", lambda k, f=module.is_prime: tested.append(k) or f(k))
    gate = gtcheck.existence_gate
    monkeypatch.setattr(
        gtcheck, "existence_gate", lambda p, q: gated.append((p, q)) or gate(p, q))
    code, _, _ = run(capsys, ["sweep", "200", "--format", "json"])
    assert code == 0
    assert len(tested) <= 150 and gated == []


def test_raising_the_complete_bound_moves_every_reader(capsys, monkeypatch):
    # verify's default bound, the class count, the row's "skipped" clause
    # and the sweep's verify cutoff all read gauging.COMPLETE_BOUND
    monkeypatch.delenv("ANISOGAUGE_BOUND", raising=False)
    monkeypatch.setattr(gauging, "COMPLETE_BOUND", 2600)
    counted = []
    class_count = fusionring._class_count
    monkeypatch.setattr(fusionring, "_class_count",
                        lambda perm, p, q: counted.append((p, q)) or class_count(perm, p, q))
    code, out, _ = run(capsys, ["verify", "3", "29", "--format", "csv"])
    assert code == 0 and counted == [(3, 29)]
    assert "semidirect-cross-check,pass,irreps rank 283" in out.splitlines()
    code, out, _ = run(capsys, ["sweep", "30", "--format", "csv"])
    assert code == 0
    rows = out.splitlines()
    assert "3,29,true,289,pass" in rows and "5,29,true,193,skipped-bound" in rows


def test_sweep_bound(capsys):
    # qmax is the range, refused only past the hard cap; each pair is
    # verified only under verify's default cap on p*q^2
    code, _, _ = run(capsys, ["sweep", "60"])
    assert code == 0
    code, out, err = run(capsys, ["sweep", "201"])
    assert code == 3 and out == "" and err == "error: qmax=201 exceeds bound 200\n"


def test_sweep_takes_no_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "20", "--bound", "20"])
    assert exc.value.code == 64
    assert "unrecognized arguments: --bound 20" in capsys.readouterr().err


@pytest.mark.parametrize("raw", ["0", "abc"])
def test_sweep_ignores_the_env_bound(capsys, monkeypatch, raw):
    # ANISOGAUGE_BOUND is verify's cap on p*q^2 alone
    monkeypatch.delenv("ANISOGAUGE_BOUND", raising=False)
    expected = run(capsys, ["sweep", "20"])
    monkeypatch.setenv("ANISOGAUGE_BOUND", raw)
    assert run(capsys, ["sweep", "20"]) == expected


def test_usage_errors_exit_64(capsys):
    # a prime argument is a plain ASCII decimal: `int` alone would read
    # 1_1 and the Arabic-Indic digits as 11
    for argv, message in [
        (["census", "4", "5"], "4 is not prime"),
        (["census", "3", "-3"], "-3 is not prime"),
        (["census", "3", "1_1"], "'1_1' is not an integer"),
        (["census", "3", "\u0661\u0661"], "'\u0661\u0661' is not an integer"),
        (["unknown-command"], "invalid choice"),
        ([], "required"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        assert message in capsys.readouterr().err


def _s3_table_text() -> str:
    perms = list(itertools.permutations(range(3)))

    def compose(a, b):
        return tuple(a[b[i]] for i in range(3))

    rows = [[perms.index(compose(a, b)) for b in perms] for a in perms]
    return "6\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"


def test_double_rank_s3(capsys, tmp_path):
    path = tmp_path / "s3.txt"
    path.write_text(_s3_table_text())
    code, out, _ = run(capsys, ["double-rank", str(path)])
    assert code == 0
    assert "double rank 8" in out


def test_double_rank_json(capsys, tmp_path):
    n = 5
    path = tmp_path / "z5.txt"
    rows = "\n".join(" ".join(str((a + b) % n) for b in range(n)) for a in range(n))
    path.write_text(f"{n}\n{rows}\n")
    code, out, _ = run(capsys, ["double-rank", str(path), "--format", "json"])
    assert code == 0
    assert json.loads(out)["rank"] == 25


def test_double_rank_rejects_non_group(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 1\n1 1\n")
    code, _, err = run(capsys, ["double-rank", str(path)])
    assert code == 64


@pytest.mark.parametrize("rows", [
    # the order-5 loop: identity 0 and two-sided inverses, but not associative
    [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
    # row 0 is x -> x but column 0 is not: an identity on the left only
    [[0, 1, 2], [2, 0, 1], [1, 2, 0]],
])
def test_double_rank_refuses_a_table_that_is_not_a_group(tmp_path, rows):
    path = tmp_path / "table.txt"
    path.write_text(f"{len(rows)}\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    done = subprocess.run([sys.executable, "-m", "anisogauge.cli", "double-rank", str(path)],
                          env=child_env(), capture_output=True,
                          text=True, timeout=60)
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert done.returncode == 64 and done.stdout == ""
    assert len(errors) == 1 and errors[0].startswith("error: table is not a group: ")


@pytest.mark.parametrize("text", ["201", "201\nnot a table\n", "\n\n2000\n0 1\n"])
def test_double_rank_refuses_an_order_over_the_bound_from_its_header(capsys, tmp_path, text):
    # the entries after the header are not read, so whatever follows it is
    # refused for the order alone
    path = tmp_path / "table.txt"
    path.write_text(text)
    code, out, err = run(capsys, ["double-rank", str(path)])
    n = text.split()[0]
    assert code == 3 and out == ""
    assert err == f"error: group order {n} exceeds {fusionring.DOUBLE_RANK_BOUND}\n"


def test_double_rank_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["double-rank", str(tmp_path / "missing.txt")])
    assert code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "3", "5", "--format", "json"],
        ["census", "3", "5"],
        ["census", "3", "5", "--format", "csv"],
        ["verify", "3", "5", "--format", "json"],
        ["sweep", "12", "--format", "json"],
        ["sweep", "12", "--format", "csv"],
    ],
)
def test_repeated_runs_byte_identical(capsys, argv):
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_timing_goes_to_stderr_only(capsys):
    code, out, err = run(capsys, ["--timing", "census", "3", "5"])
    assert code == 0
    assert "elapsed" in err and "elapsed" not in out


def test_verify_csv(capsys):
    code, out, _ = run(capsys, ["verify", "3", "5", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,status,detail"
    assert any(l.startswith("fusion-axioms,pass") for l in lines)


def test_csv_rows_have_as_many_fields_as_the_header(capsys, tmp_path):
    # a comma inside a field becomes ';', as in verify's detail column
    path = tmp_path / "s3.txt"
    path.write_text(_s3_table_text())
    for argv in (["census", "3", "5"], ["verify", "3", "5"], ["verify", "3", "2"],
                 ["sweep", "20"], ["double-rank", str(path)]):
        _, out, _ = run(capsys, argv + ["--format", "csv"])
        header, *rows = csv.reader(out.splitlines())
        assert rows and all(len(row) == len(header) for row in rows), (argv, out)


@pytest.mark.parametrize("argv,code,message", [
    (["census", "3", "1000000000000000003"], 2, "p=3 does not divide"),
    (["census", "2", "1000000000000000003"], 3, "exceeds bound 10000"),
    (["verify", "1000000016000000063", "5"], 64, "1000000016000000063 is not prime"),
    (["census", "3", "3317044064679887385961981"], 64, "is too large: primes must be below"),
])
def test_large_prime_arguments_are_decided_in_bounded_time(argv, code, message):
    # 10^18 + 3 is prime, (10^9 + 7)(10^9 + 9) is not, and the last value
    # is the least strong pseudoprime to the prime bases up to 41
    done = subprocess.run([sys.executable, "-m", "anisogauge.cli", *argv],
                          env=child_env(), capture_output=True,
                          text=True, timeout=20)
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert done.returncode == code and done.stdout == ""
    assert len(errors) == 1 and message in errors[0]


@pytest.mark.parametrize("argv", [["census", "3", "5"]])
def test_a_closed_stdout_exits_74(argv):
    # the reader has closed the pipe before the payload is written; the
    # exit-code matrix over both entries is in test_process_exit, this pins
    # that the one stderr line names the failure, EPIPE
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "anisogauge.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=child_env(),
                              text=True, timeout=60)
    finally:
        os.close(write)
    assert done.returncode == cli.EXIT_IO == 74
    assert "Traceback" not in done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: cannot write to stdout: ")
    assert os.strerror(errno.EPIPE) in line


def test_census_bound_exceeded(capsys):
    code, _, err = run(capsys, ["census", "3", "10007"])
    assert code == 3
    assert "exceeds bound" in err


def test_verify_refuses_the_field_bound_before_the_ring_budget(capsys):
    # `certify_pair` builds the field before the ring budget is read, so
    # verify refuses q > 10000 with census's words
    code, out, err = run(capsys, ["verify", "3", "10007", "--bound", "10000000000000"])
    assert code == 3 and out == ""
    assert err == "error: q=10007 exceeds bound 10000\n"
    assert run(capsys, ["census", "3", "10007"])[2] == err


def test_frontier_payload_digest(capsys):
    # the largest verify the golden payloads do not cover: p*q^2 = 15123,
    # rank 5043, every row but the class count
    code, out, _ = run(capsys, ["verify", "3", "71", "--bound", "20000", "--format", "json"])
    assert code == 0
    assert json.loads(out)["sha256"] == (
        "f7b7623a2e302f99977163424cb750aaf89d403fc81076746d9b5daab594d261")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "78cd66aa85f7eaca3ae735d0d2d0b24b287a559936162aabb8d1e423cbd367ef")


@pytest.mark.parametrize("length", [0, 1, 55, 56, 63, 64, 65, 119, 120, 4096])
def test_digest_matches_hashlib_at_padding_boundaries(length):
    # SHA-256 pads to 64-byte blocks; the length field fits after 55 bytes
    data = bytes(range(256)) * 16
    assert sha256(data[:length]).hexdigest() == hashlib.sha256(data[:length]).hexdigest()


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=1000))
def test_digest_matches_hashlib(data):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def _payload_and_digest_agree(out: str) -> dict:
    data = json.loads(out)
    digest = data.pop("sha256")
    body = json.dumps(data, separators=(",", ":")).encode()
    assert hashlib.sha256(body).hexdigest() == digest
    return data


def test_verify_stage_raise_becomes_fail_row(capsys, monkeypatch):
    def broken(ring):
        raise BadParameter("no consistent positive character found")

    monkeypatch.setattr(fusionring, "fp_dims", broken)
    code, out, err = run(capsys, ["verify", "3", "5", "--format", "json"])
    assert code == 1 and err == ""
    data = _payload_and_digest_agree(out)
    assert data["passed"] is False
    rows = {c["name"]: c for c in data["checks"]}
    assert rows["fp-dims"]["status"] == "fail"
    assert rows["fp-dims"]["detail"] == "BadParameter: no consistent positive character found"
    assert all(c["status"] == "pass" for name, c in rows.items() if name != "fp-dims")


def test_verify_class_count_disagreement_is_one_fail_row(capsys, monkeypatch):
    # the census cross-check against the class count of the group law
    class_count = fusionring._class_count
    monkeypatch.setattr(fusionring, "_class_count", lambda *args: class_count(*args) + 1)
    code, out, err = run(capsys, ["verify", "3", "5", "--format", "json"])
    assert code == 1 and err == ""
    rows = {c["name"]: c for c in _payload_and_digest_agree(out)["checks"]}
    assert rows["semidirect-cross-check"]["status"] == "fail"
    assert (rows["semidirect-cross-check"]["detail"]
            == "ArithmeticError: class count 12 disagrees with census rank 11")
    assert all(c["status"] == "pass" for name, c in rows.items() if name != "semidirect-cross-check")


def test_verify_failed_input_fails_every_reader(capsys, monkeypatch):
    calls = []

    def broken(pair):
        calls.append((pair.p, pair.q))
        raise ArithmeticError("ring build broke")

    monkeypatch.setattr(fusionring, "build_extension_ring", broken)
    code, out, _ = run(capsys, ["verify", "3", "5", "--format", "json"])
    assert code == 1
    rows = {c["name"]: c for c in _payload_and_digest_agree(out)["checks"]}
    failed = {name for name, c in rows.items() if c["status"] == "fail"}
    assert failed == {"fusion-axioms", "fp-dims"}
    assert rows["fp-dims"]["detail"] == "ArithmeticError: ring build broke"
    assert calls == [(3, 5)]  # the builder ran once; its error reached both readers


def test_verify_criterion_suite_raise_is_one_row(capsys, monkeypatch):
    def broken(pair, space):
        raise ExistenceViolated("suite broke")

    monkeypatch.setattr(gtcheck, "non_group_theoretical_suite", broken)
    code, out, _ = run(capsys, ["verify", "3", "5", "--format", "csv"])
    assert code == 1
    lines = out.splitlines()
    assert "criterion-suite,fail,ExistenceViolated: suite broke" in lines
    assert not any(l.startswith("criterion-eigenvalues-swap") for l in lines)
    assert any(l.startswith("hyperbolic-controls,pass") for l in lines)


def test_verify_program_bug_propagates(monkeypatch):
    def broken(ring):
        raise KeyError("bug")

    monkeypatch.setattr(fusionring, "fp_dims", broken)
    with pytest.raises(KeyError):
        main(["verify", "3", "5"])


def test_sweep_isolates_a_failing_pair(capsys, monkeypatch):
    free_orbits = fusionring._free_orbits

    def broken(perm, p):
        if len(perm) == 11 * 11:
            raise ArithmeticError("wrong number of orbits")
        return free_orbits(perm, p)

    monkeypatch.setattr(fusionring, "_free_orbits", broken)
    code, out, _ = run(capsys, ["sweep", "11", "--format", "csv"])
    assert code == 1
    assert out.splitlines()[1:] == [
        "3,5,true,17,pass",
        "3,7,false,,",
        "5,7,false,,",
        "3,11,true,49,fail",
        "5,11,false,,",
        "7,11,false,,",
    ]


def test_census_certification_failure_exits_1(capsys, monkeypatch):
    def broken(ctx, p):
        return ctx.theta  # theta^3 = 2*theta in F_25, so not of order 3

    monkeypatch.setattr(gauging, "pick_order_p", broken)
    code, out, err = run(capsys, ["census", "3", "5"])
    assert code == 1 and out == ""
    assert err == "error: ArithmeticError: c = 0+1t does not have order 3\n"
    monkeypatch.setattr(gauging, "pick_order_p", lambda ctx, p: ctx.one)
    code, out, err = run(capsys, ["census", "3", "5"])
    assert code == 1 and out == ""
    assert err == "error: ArithmeticError: c = 1 does not have order 3\n"


def test_an_uncertified_norm_one_generator_exits_1(capsys, monkeypatch):
    # a `_generator` that finds no element of order q + 1 refuses the pair:
    # `certify_pair` raises, and verify prints one `error:` line and no payload
    generator = ffield._generator
    monkeypatch.setattr(ffield, "_generator", lambda ctx, candidates, n: generator(ctx, (), n))
    ffield.norm_one_generator.cache_clear()
    with pytest.raises(ArithmeticError, match="no element of order 6"):
        gauging.certify_pair(3, 5)
    code, out, err = run(capsys, ["verify", "3", "5"])
    assert code == 1 and out == ""
    assert err == "error: ArithmeticError: no element of order 6: the group is not cyclic\n"


def test_verify_reads_one_certified_pair(capsys, monkeypatch):
    # every verify row reads the record of `certify_pair`, so a c of the
    # wrong order refuses the pair before any row, as it does for census
    monkeypatch.setattr(gauging, "pick_order_p", lambda ctx, p: ctx.theta)
    code, out, err = run(capsys, ["verify", "3", "5", "--format", "json"])
    assert code == 1 and out == ""
    assert err == "error: ArithmeticError: c = 0+1t does not have order 3\n"


@pytest.mark.parametrize("argv,fields,picks", [
    (["verify", "3", "23"], 1, 1),
    (["sweep", "20"], 5, 5),  # five pairs verified, each as verify does
    (["census", "3", "23"], 1, 1),
])
def test_verify_builds_the_field_and_the_pair_once(capsys, monkeypatch, argv, fields, picks):
    # every stage reads the field of the certified pair: none builds another
    from anisogauge.ffield import FieldCtx

    built, picked = [], []
    init, pick = FieldCtx.__init__, gauging.pick_order_p
    monkeypatch.setattr(FieldCtx, "__init__", lambda self, q: built.append(q) or init(self, q))
    monkeypatch.setattr(gauging, "pick_order_p", lambda ctx, p: picked.append(p) or pick(ctx, p))
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert (len(built), len(picked)) == (fields, picks)


def test_semidirect_detail_says_when_brute_force_is_skipped(capsys):
    code, out, _ = run(capsys, ["verify", "3", "29", "--bound", "3000", "--format", "csv"])
    assert code == 0
    assert (
        "semidirect-cross-check,pass,irreps rank 283; brute-force class count skipped"
        " (p*q^2 > 2000)" in out.splitlines()
    )
    _, out, _ = run(capsys, ["verify", "3", "5", "--format", "csv"])
    assert "semidirect-cross-check,pass,irreps rank 11" in out.splitlines()


def test_timing_prints_after_error(capsys):
    code, out, err = run(capsys, ["--timing", "verify", "3", "7"])
    assert code == 2 and out == ""
    first, second = err.splitlines()
    assert first == "error: p=3 does not divide q+1=8"
    assert second.startswith("elapsed ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1\n99999999999999999999\n", "error: cannot read group table: "),
        ("0\n", "error: cannot read group table: group order 0 is not positive\n"),
        ("-1\n0\n", "error: cannot read group table: group order -1 is not positive\n"),
        ("", "error: cannot read group table: no group order in a blank file\n"),
        ("  \n\n", "error: cannot read group table: no group order in a blank file\n"),
        ("2\n0 1\n1 0_0\n", "error: cannot read group table: '0_0' is not a plain decimal\n"),
        ("\u0662\n0 1\n1 0\n",
         "error: cannot read group table: '\u0662' is not a plain decimal\n"),
        ("2\n0 1\n1 +0\n", "error: cannot read group table: '+0' is not a plain decimal\n"),
        ("2\n0 1\n1\n", "error: cannot read group table: expected 4 entries, got 3\n"),
    ],
)
def test_double_rank_rejects_bad_entries(capsys, tmp_path, text, message):
    path = tmp_path / "table.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["double-rank", str(path)])
    assert code == 64 and out == ""
    assert err.startswith(message) and err.count("\n") == 1


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.one_of(
    st.text(),
    # well-shaped tables: an order n and n*n arbitrary integer entries
    st.integers(-1, 3).flatmap(lambda n: st.lists(
        st.integers(-(2**70), 2**70), min_size=max(n, 0) ** 2, max_size=max(n, 0) ** 2,
    ).map(lambda xs: " ".join(map(str, [n, *xs])))),
))
def test_double_rank_reader_fuzz(capsys, tmp_path, text):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    code, out, err = run(capsys, ["double-rank", str(path)])
    assert code in (0, 3, 64)
    if code == 0:
        assert out.startswith("group order ") and err == ""
    else:
        assert out == "" and err.startswith("error: ")
