import importlib
import importlib.util
import os
import subprocess
import sys
from collections import namedtuple

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

Probed = namedtuple("Probed", "code tracked package")

# The group tables that double-rank reads, by file name; missing-file.txt is
# not written.
TABLES = {
    "z3.txt": "3\n0 1 2\n1 2 0\n2 0 1\n",  # Z/3
    "header.txt": "three\n0 1 2\n",  # a header that is not an integer
    "entry.txt": "2\n0 1\n1 x\n",  # an entry that is not an integer
    "order-201.txt": "201\n",  # past DOUBLE_RANK_BOUND, refused on the header alone
    "underscore-entry.txt": "2\n0 1\n1 0_0\n",  # an entry that int() would read as 0
    "non-ascii-header.txt": "\u0662\n0 1\n1 0\n",  # Arabic-Indic, that int() would read as 2
    "short-table.txt": "2\n0 1\n1\n",  # three entries for an order-2 table
}


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """Runs PROBE once for each argv and environment asked for, with each
    `*.txt` argument read as the file of that name in a directory that
    holds TABLES."""
    tables = tmp_path_factory.mktemp("tables")
    for name, text in TABLES.items():
        (tables / name).write_text(text, encoding="utf-8")
    done = {}

    def run(argv, env=None) -> Probed:
        key = (*argv, *sorted((env or {}).items()))
        if key not in done:
            args = [str(tables / arg) if arg.endswith(".txt") else arg for arg in argv]
            *_, package, last = subprocess.run(
                [sys.executable, "-c", PROBE, *args], env=child_env(**(env or {})),
                capture_output=True, text=True, check=True).stdout.splitlines()
            code, *tracked = last.split()
            done[key] = Probed(None if code == "None" else int(code), set(tracked),
                               set(package.split()))
        return done[key]
    return run


Row = namedtuple("Row", "env code tracked package")
VERIFY_LAYERS = {f"anisogauge.{name}"
                 for name in ("quadspace", "orthogroup", "fusionring", "gtcheck", "suite")}
NUMPY_FREE = {"anisogauge", "anisogauge.cli", "anisogauge.errors", "anisogauge.ffield",
              "anisogauge.gauging"}
PACKAGE = NUMPY_FREE | VERIFY_LAYERS
NUMPY = {"numpy", "inspect"}

# Each command line the probe runs, once: its environment, its exit code
# (None for the bare import), the exact set of the modules PROBE tracks that
# it loads, but _hashlib, which test_no_command_loads_openssl reads, and the
# `anisogauge` modules it may load.
START_UP = {  # the numpy-free paths
    "": Row(None, None, set(), {"anisogauge"}),
    "census 3 5": Row(None, 0, set(), NUMPY_FREE),
    "verify 3 7": Row(None, 2, set(), NUMPY_FREE),
    "verify 3 29": Row(None, 3, set(), NUMPY_FREE),
    "verify 3 11": Row({"ANISOGAUGE_BOUND": "100"}, 3, set(), NUMPY_FREE),
    "verify 1 5": Row(None, 64, set(), NUMPY_FREE),
    "sweep 201": Row(None, 3, set(), NUMPY_FREE),  # past the hard cap
    "verify 3 10007 --bound 10000000000000": Row(None, 3, set(), NUMPY_FREE),  # past the field bound
    "--help": Row(None, 0, set(), NUMPY_FREE),
    "verify --help": Row(None, 0, set(), NUMPY_FREE),
    "verify 3 5 --bound 1_000": Row(None, 64, set(), NUMPY_FREE),
    "--timing census 3 5 --format json": Row(None, 0, set(), NUMPY_FREE),
    "verify 3 197 --bound 1000000": Row(None, 3, set(), NUMPY_FREE),  # past the ring's byte budget
    "census 3 2": Row(None, 0, set(), NUMPY_FREE),  # the q = 2 field
}
PAST_THE_GATES = {  # numpy, but not numpy.ma, dataclasses or _hashlib
    "verify 3 5": Row(None, 0, NUMPY, PACKAGE),
    "verify 3 2": Row(None, 0, NUMPY, PACKAGE),
    "double-rank z3.txt": Row(None, 0, NUMPY, PACKAGE),
    "sweep 2": Row(None, 0, NUMPY, PACKAGE),
    "sweep 6": Row(None, 0, NUMPY, PACKAGE),
}
REFUSALS = {  # double-rank refuses each TABLES file but z3.txt before numpy loads
    "double-rank missing-file.txt": Row(None, 64, set(), NUMPY_FREE),
    "double-rank header.txt": Row(None, 64, set(), NUMPY_FREE),
    "double-rank entry.txt": Row(None, 64, set(), NUMPY_FREE),
    "double-rank order-201.txt": Row(None, 3, set(), NUMPY_FREE),
    "double-rank underscore-entry.txt": Row(None, 64, set(), NUMPY_FREE),
    "double-rank non-ascii-header.txt": Row(None, 64, set(), NUMPY_FREE),
    "double-rank short-table.txt": Row(None, 64, set(), NUMPY_FREE),
}
PATHS = {**START_UP, **PAST_THE_GATES, **REFUSALS}
START_UP_PATHS = [(line.split(), row.env) for line, row in START_UP.items()]


def assert_path(probed: Probed, argv) -> None:
    """probed has the exit code and the tracked modules that PATHS gives
    argv, and loads only package modules it allows."""
    row = PATHS[" ".join(argv)]
    assert (probed.code, probed.tracked - {"_hashlib"}) == (row.code, row.tracked)
    assert probed.package <= row.package


@pytest.mark.parametrize("argv,env", START_UP_PATHS)
def test_start_up_paths_skip_numpy(argv, env, probe):
    assert_path(probe(argv, env), argv)


def test_bare_import_loads_only_the_package(probe):
    # every public name is imported from its home module on first access
    assert probe([]).package == {"anisogauge"}


@pytest.mark.parametrize("argv,env", START_UP_PATHS)
def test_start_up_paths_skip_the_verify_layers(argv, env, probe):
    # each of these modules takes milliseconds to compile where no bytecode
    # is cached, so import, census and the refusals load none of them
    assert probe(argv, env).package.isdisjoint(VERIFY_LAYERS)


def test_verify_past_its_gates_loads_numpy(probe):
    assert "numpy" in probe(["verify", "3", "5"]).tracked


@pytest.mark.parametrize("argv", [
    ["verify", "3", "5"],
    ["verify", "3", "2"],
    ["double-rank", "z3.txt"],
])
def test_numpy_paths_skip_numpy_ma(argv, probe):
    # np.unique calls np.ma.is_masked, which imports numpy.ma (about 6 ms)
    assert_path(probe(argv), argv)


@pytest.mark.parametrize("argv", [["verify", "3", "5"], ["sweep", "6"], ["double-rank", "z3.txt"]])
def test_commands_skip_dataclasses(argv, probe):
    # every record is a namedtuple: dataclasses would load inspect and copy
    assert_path(probe(argv), argv)


@pytest.mark.parametrize("line", REFUSALS, ids=lambda line: line[len("double-rank "):-len(".txt")])
def test_double_rank_refusals_skip_numpy(line, probe):
    assert_path(probe(line.split()), line.split())


# Runs census in a fresh interpreter started with -S, so that no site .pth
# file imports typing before the program does, and reports its exit code
# and whether typing was loaded.
TYPING_PROBE = """
import sys
from anisogauge.cli import main
print(main(["census", "3", "5"]), "typing" in sys.modules)
"""


def test_census_skips_typing():
    # typing adds milliseconds to start-up; ffield takes Iterator from
    # collections.abc instead, which costs a fraction of one
    done = subprocess.run([sys.executable, "-S", "-c", TYPING_PROBE], env=child_env(),
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False"


BUILT_IN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


@pytest.mark.skipif(not BUILT_IN_SHA256, reason="no built-in SHA-256; the digest needs hashlib")
@pytest.mark.parametrize("argv,env", [(line.split(), row.env) for line, row in PATHS.items()])
def test_no_command_loads_openssl(argv, env, probe):
    # hashlib imports _hashlib, which maps OpenSSL's libcrypto (about 3.7 MB)
    assert "_hashlib" not in probe(argv, env).tracked


# The public surface, pinned so that a new export shows up in review.
PUBLIC = [
    "AnisogaugeError", "AnisotropicSpace", "AxiomReport", "BadParameter", "BoundExceeded",
    "Census", "ExistenceViolated", "ExtElement", "FieldCtx", "FusionRing", "GTVerdict",
    "HyperbolicSpace", "Mat2", "QuadSpace", "SplitOrthMap", "build_anisotropic",
    "build_extension_ring",
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
