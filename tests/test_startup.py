import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anisogauge
from anisogauge import _EXPORTS

SRC = str(Path(anisogauge.__file__).resolve().parent.parent)

# Runs the CLI in a fresh interpreter, then reports its exit code and which
# of numpy and numpy.ma were loaded.
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
print(code, *(name for name in ("numpy", "numpy.ma") if name in sys.modules))
"""


def probe(argv, env=None) -> tuple[str, set]:
    environ = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    if not env:
        environ.pop("ANISOGAUGE_BOUND", None)
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=environ,
                         capture_output=True, text=True, check=True).stdout
    code, *modules = out.splitlines()[-1].split()
    return code, set(modules)


@pytest.mark.parametrize("argv,env", [
    ([], None),
    (["census", "3", "5"], None),
    (["verify", "3", "7"], None),
    (["verify", "3", "29"], None),
    (["verify", "3", "11"], {"ANISOGAUGE_BOUND": "100"}),
    (["verify", "1", "5"], None),
])
def test_start_up_paths_skip_numpy(argv, env):
    assert "numpy" not in probe(argv, env)[1]


def test_verify_past_its_gates_loads_numpy():
    assert "numpy" in probe(["verify", "3", "5"])[1]


@pytest.mark.parametrize("argv", [
    ["verify", "3", "5"],
    ["verify", "3", "2"],
    ["double-rank", "Z3_TABLE"],
])
def test_numpy_paths_skip_numpy_ma(argv, tmp_path):
    # np.unique calls np.ma.is_masked, which imports numpy.ma (about 6 ms)
    table = tmp_path / "z3.txt"
    table.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    argv = [str(table) if arg == "Z3_TABLE" else arg for arg in argv]
    assert probe(argv) == ("0", {"numpy"})


# The public surface, pinned so that a new export shows up in review.
PUBLIC = [
    "AnisogaugeError", "AnisotropicSpace", "AxiomReport", "BadParameter",
    "BetaSingular", "BoundExceeded", "Census", "EvenCharacteristic", "ExistenceViolated",
    "ExtElement", "FieldCtx", "FusionRing", "GTVerdict", "HyperbolicSpace", "Mat2",
    "MetricGroup", "NoSuchElement", "NotACharacter", "NotNormOne", "NotPrime", "QuadSpace",
    "SplitOrthMap", "ZeroEigenvalue", "build_anisotropic", "build_extension_ring",
    "build_hyperbolic", "conjugacy_classes", "dihedral_generators", "drinfeld_double_rank",
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
# the OS threads of the process (Linux /proc).
THREAD_PROBE = """
import atexit, os, sys
from anisogauge import cli
atexit.register(lambda: print("threads", len(os.listdir("/proc/self/task")), file=sys.stderr))
sys.argv = ["anisogauge", "verify", "3", "5"]
cli.run()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_cli_runs_on_one_thread():
    # numpy's OpenBLAS would start a spinning worker per core at import
    environ = {**os.environ, "PYTHONPATH": SRC}
    for name in ("ANISOGAUGE_BOUND", "OPENBLAS_NUM_THREADS"):
        environ.pop(name, None)
    done = subprocess.run([sys.executable, "-c", THREAD_PROBE], env=environ,
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert done.stderr.splitlines()[-1] == "threads 1"
