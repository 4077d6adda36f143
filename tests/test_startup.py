import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anisogauge
from anisogauge import _EXPORTS

SRC = str(Path(anisogauge.__file__).resolve().parent.parent)

# Runs the CLI in a fresh interpreter, then reports whether numpy was loaded.
PROBE = """
import sys
argv = sys.argv[1:]
if argv:
    from anisogauge.cli import main
    try:
        main(argv)
    except SystemExit:
        pass
else:
    import anisogauge
print("numpy" in sys.modules)
"""


def numpy_loaded(argv, env=None) -> bool:
    environ = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    if not env:
        environ.pop("ANISOGAUGE_BOUND", None)
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], env=environ,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1] == "True"


@pytest.mark.parametrize("argv,env", [
    ([], None),
    (["census", "3", "5"], None),
    (["verify", "3", "7"], None),
    (["verify", "3", "29"], None),
    (["verify", "3", "11"], {"ANISOGAUGE_BOUND": "100"}),
    (["verify", "1", "5"], None),
])
def test_start_up_paths_skip_numpy(argv, env):
    assert not numpy_loaded(argv, env)


def test_verify_past_its_gates_loads_numpy():
    assert numpy_loaded(["verify", "3", "5"])


def test_lazy_exports_resolve_to_their_home_modules():
    names = dir(anisogauge)
    for module, exported in _EXPORTS.items():
        home = importlib.import_module(f"anisogauge.{module}")
        for name in exported:
            assert getattr(anisogauge, name) is getattr(home, name)
            assert name in names and name in anisogauge.__all__
    with pytest.raises(AttributeError, match="no_such_name"):
        anisogauge.no_such_name
