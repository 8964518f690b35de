"""The suite's own pytest configuration reports every failure: a falsified
hypothesis test is counted, and the tests after it still run.  Every
source file parses at the oldest Python the package supports."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
SOURCES = sorted(p for d in ("src", "bench", "tests", "demos") for p in (ROOT / d).rglob("*.py"))

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


def _python_floor() -> tuple:
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', PYPROJECT.read_text()).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_python_floor(path):
    # the suite runs on a newer interpreter, whose grammar would accept
    # syntax that the floor named in pyproject.toml rejects
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())
