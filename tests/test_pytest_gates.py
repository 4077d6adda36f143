"""The suite's own settings fail loudly: pytest runs, in a subprocess, a
throwaway test file under this repository's `pyproject.toml` and beside a
copy of `tests/conftest.py`."""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
PYPROJECT = HERE.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st

@given(st.integers())
def test_a_failing_property(n):
    assert n < 0

def test_after_it():
    pass
"""

WARNING_IN_A_TEST = """
import warnings

def test_warns():
    warnings.warn("gone in the next release", DeprecationWarning)

def test_after_it():
    pass
"""


def run_pytest(source: str, tmp_path) -> str:
    (tmp_path / "conftest.py").write_text((HERE / "conftest.py").read_text())
    (tmp_path / "test_throwaway.py").write_text(source)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == pytest.ExitCode.TESTS_FAILED
    return done.stdout + done.stderr


def test_a_failing_property_test_does_not_stop_the_run(tmp_path):
    # on a failure the hypothesis plugin imports a module whose import warns
    # with a DeprecationWarning; under filterwarnings = ["error"] that was an
    # INTERNALERROR, and the test after it never ran
    output = run_pytest(FAILING_PROPERTY, tmp_path)
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output


def test_a_deprecation_warning_in_a_test_is_still_an_error(tmp_path):
    output = run_pytest(WARNING_IN_A_TEST, tmp_path)
    assert "DeprecationWarning: gone in the next release" in output
    assert "1 failed, 1 passed" in output
