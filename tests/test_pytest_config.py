"""pyproject.toml's warning filters make a deprecation fail the suite, yet a
session must still report a failed hypothesis test: hypothesis imports
libcst to report one, and libcst raises a DeprecationWarning on import."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x
"""


def test_failed_hypothesis_test_is_reported(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    # Exit 1 is "tests failed"; an error while reporting exits 3 (INTERNALERROR).
    assert done.returncode == 1, done.stdout[-2000:]
    assert "FAILED test_failing.py::test_fails" in done.stdout
