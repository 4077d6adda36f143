import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import anisogauge
from anisogauge import _EXPORTS

from oracles import child_env

# Runs the CLI in a fresh interpreter, then reports, on its last two lines,
# the `anisogauge` modules it loaded, and its exit code and which of numpy,
# numpy.ma, inspect, dataclasses and _hashlib were loaded.  inspect (with
# ast, dis and tokenize) comes with dataclasses, and numpy imports it too;
# _hashlib is hashlib's binding to OpenSSL.
PROBE = """
import sys
argv, code = sys.argv[1:], None
if argv:
    from anisogauge.cli import main
    try:
        code = main(argv)
    except SystemExit as exit:
        code = exit.code
else:
    import anisogauge
print(*sorted(name for name in sys.modules if name.split(".")[0] == "anisogauge"))
print(code, *(name for name in ("numpy", "numpy.ma", "inspect", "dataclasses", "_hashlib")
              if name in sys.modules))
"""


def probe_lines(argv, env=None) -> list[str]:
    return subprocess.run([sys.executable, "-c", PROBE, *argv],
                          env=child_env(**(env or {})), capture_output=True, text=True,
                          check=True).stdout.splitlines()


def probe(argv, env=None) -> tuple[str, set]:
    code, *modules = probe_lines(argv, env)[-1].split()
    return code, set(modules)


def package_modules(argv, env=None) -> set:
    """The `anisogauge` modules that the probe of argv loaded."""
    return set(probe_lines(argv, env)[-2].split())


START_UP_PATHS = [
    ([], None),
    (["census", "3", "5"], None),
    (["verify", "3", "7"], None),
    (["verify", "3", "29"], None),
    (["verify", "3", "11"], {"ANISOGAUGE_BOUND": "100"}),
    (["verify", "1", "5"], None),
    (["sweep", "201"], None),  # past the hard cap
    (["verify", "3", "10007", "--bound", "10000000000000"], None),  # past the field bound
    (["--help"], None),
    (["verify", "--help"], None),
    (["verify", "3", "5", "--bound", "1_000"], None),
    (["--timing", "census", "3", "5", "--format", "json"], None),
    (["verify", "3", "197", "--bound", "1000000"], None),  # past the ring's byte budget
]
# The documented exit code of each start-up path, in order; the bare import
# has none.
START_UP_CODES = [None, 0, 2, 3, 3, 64, 3, 3, 0, 0, 64, 0, 3]


@pytest.mark.parametrize("argv,env", START_UP_PATHS)
def test_start_up_paths_skip_numpy(argv, env):
    code = START_UP_CODES[START_UP_PATHS.index((argv, env))]
    exit_code, modules = probe(argv, env)
    assert exit_code == str(code) and modules.isdisjoint({"numpy", "inspect"})


def test_bare_import_loads_only_the_package():
    # every public name is imported from its home module on first access
    assert package_modules([]) == {"anisogauge"}


VERIFY_LAYERS = {f"anisogauge.{name}"
                 for name in ("quadspace", "orthogroup", "fusionring", "gtcheck", "suite")}


@pytest.mark.parametrize("argv,env", START_UP_PATHS)
def test_start_up_paths_skip_the_verify_layers(argv, env):
    # each of these modules takes milliseconds to compile where no bytecode
    # is cached, so import, census and the refusals load none of them
    assert package_modules(argv, env).isdisjoint(VERIFY_LAYERS)


def test_verify_past_its_gates_loads_numpy():
    assert "numpy" in probe(["verify", "3", "5"])[1]


def _with_z3(argv, tmp_path) -> list:
    """argv with Z3_TABLE replaced by a file holding the table of Z/3."""
    table = tmp_path / "z3.txt"
    table.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    return [str(table) if arg == "Z3_TABLE" else arg for arg in argv]


@pytest.mark.parametrize("argv", [
    ["verify", "3", "5"],
    ["verify", "3", "2"],
    ["double-rank", "Z3_TABLE"],
])
def test_numpy_paths_skip_numpy_ma(argv, tmp_path):
    # np.unique calls np.ma.is_masked, which imports numpy.ma (about 6 ms)
    assert probe(_with_z3(argv, tmp_path)) == ("0", {"numpy", "inspect"})


@pytest.mark.parametrize("argv", [["verify", "3", "5"], ["sweep", "6"], ["double-rank", "Z3_TABLE"]])
def test_commands_skip_dataclasses(argv, tmp_path):
    # every record is a namedtuple: dataclasses would load inspect and copy
    code, modules = probe(_with_z3(argv, tmp_path))
    assert code == "0" and "dataclasses" not in modules


@pytest.mark.parametrize("text,code", [
    (None, "64"),  # no such file
    ("three\n0 1 2\n", "64"),  # a header that is not an integer
    ("2\n0 1\n1 x\n", "64"),  # an entry that is not an integer
    ("201\n", "3"),  # past DOUBLE_RANK_BOUND, refused on the header alone
    ("2\n0 1\n1 0_0\n", "64"),  # an entry that int() would read as 0
    ("\u0662\n0 1\n1 0\n", "64"),  # an Arabic-Indic header that int() would read as 2
    ("2\n0 1\n1\n", "64"),  # three entries for an order-2 table
], ids=["missing-file", "header", "entry", "order-201", "underscore-entry", "non-ascii-header",
        "short-table"])
def test_double_rank_refusals_skip_numpy(text, code, tmp_path):
    table = tmp_path / "group.txt"
    if text is not None:
        table.write_text(text, encoding="utf-8")
    exit_code, modules = probe(["double-rank", str(table)])
    assert exit_code == code and "numpy" not in modules


BUILT_IN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


@pytest.mark.skipif(not BUILT_IN_SHA256, reason="no built-in SHA-256; the digest needs hashlib")
@pytest.mark.parametrize("argv,env", START_UP_PATHS + [
    (["verify", "3", "5"], None),
    (["verify", "3", "2"], None),
    (["double-rank", "Z3_TABLE"], None),
    (["sweep", "2"], None),
])
def test_no_command_loads_openssl(argv, env, tmp_path):
    # hashlib imports _hashlib, which maps OpenSSL's libcrypto (about 3.7 MB)
    assert "_hashlib" not in probe(_with_z3(argv, tmp_path), env)[1]


# The public surface, pinned so that a new export shows up in review.
PUBLIC = [
    "AnisogaugeError", "AnisotropicSpace", "AxiomReport", "BadParameter",
    "BetaSingular", "BoundExceeded", "Census", "EvenCharacteristic", "ExistenceViolated",
    "ExtElement", "FieldCtx", "FusionRing", "GTVerdict", "HyperbolicSpace", "Mat2",
    "NoSuchElement", "NotACharacter", "NotNormOne", "NotPrime", "QuadSpace",
    "SplitOrthMap", "ZeroEigenvalue", "build_anisotropic", "build_extension_ring",
    "build_hyperbolic", "certify_pair", "dihedral_generators", "drinfeld_double_rank",
    "eigenvalues_2x2", "enumerate_orth", "equivariantization_census", "existence_gate",
    "fp_dims", "frobenius", "gt_criterion", "hyperbolic_control", "is_prime", "ker_norm",
    "make_field", "metric_group_of", "non_group_theoretical_suite", "norm", "pick_order_p",
    "quartic_identity_check", "ring_from_text", "ring_to_text", "rotation",
    "semidirect_irreps", "split_embedding", "sqrt_ext", "verify_axioms",
]


def test_lazy_exports_resolve_to_their_home_modules():
    assert PUBLIC == sorted(PUBLIC) and anisogauge.__all__ == PUBLIC
    names = dir(anisogauge)
    for module, exported in _EXPORTS.items():
        home = importlib.import_module(f"anisogauge.{module}")
        for name in exported:
            assert getattr(anisogauge, name) is getattr(home, name)
            assert name in names and name in anisogauge.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        anisogauge.no_such_name


# Runs the CLI entry point in a fresh interpreter and reports, as it exits,
# the OS threads of the process (Linux /proc).  `cli.run` ends the process
# with `os._exit`, which runs no atexit hook, so the probe wraps `os._exit`.
THREAD_PROBE = """
import os, sys
from anisogauge import cli
def report_and_exit(code, _exit=os._exit):
    print("threads", len(os.listdir("/proc/self/task")), file=sys.stderr, flush=True)
    _exit(code)
os._exit = report_and_exit
sys.argv = ["anisogauge", "verify", "3", "5"]
cli.run()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_runs_on_one_thread():
    # numpy's OpenBLAS would start a spinning worker per core at import
    environ = child_env()
    environ.pop("OPENBLAS_NUM_THREADS", None)
    done = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=environ,
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stderr.splitlines()[-1] == "threads 1"
