import itertools
import json

import pytest

from anisogauge.cli import main


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
    code, _, _ = run(capsys, ["sweep", "3"])
    assert code == 3


@pytest.mark.parametrize("raw", ["abc", "-1", "2.5", ""])
def test_env_bound_rejects_bad_values(capsys, monkeypatch, raw):
    monkeypatch.setenv("ANISOGAUGE_BOUND", raw)
    for argv in (["verify", "3", "5"], ["sweep", "6"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ANISOGAUGE_BOUND")
    # an explicit --bound wins and the variable is not read
    code, _, _ = run(capsys, ["verify", "3", "5", "--bound", "100"])
    assert code == 0


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


def test_sweep_bound(capsys):
    code, _, err = run(capsys, ["sweep", "500"])
    assert code == 3
    code, _, err = run(capsys, ["sweep", "60"])  # default bound 50
    assert code == 3


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "4", "5"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["unknown-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64


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


def test_census_bound_exceeded(capsys):
    code, _, err = run(capsys, ["census", "3", "10007"])
    assert code == 3
    assert "exceeds bound" in err
