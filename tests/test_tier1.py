"""The suite's own pytest configuration reports every failure: a falsified
hypothesis test is counted, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

_FALSIFIED = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=100))
def test_falsified(x):
    assert x < 10


def test_after_it():
    pass
'''


def test_falsified_given_test_keeps_full_summary(tmp_path):
    (tmp_path / "test_falsified.py").write_text(_FALSIFIED)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output, output[-2000:]
    assert "1 failed, 1 passed" in proc.stdout, output[-2000:]
