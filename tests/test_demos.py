"""Each narrative script under demos/, and the README's Python examples,
run to completion against src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README = ROOT / "README.md"


def _readme_code() -> str:
    """The README's ```python blocks, joined in order into one program."""
    return "\n".join(re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S))


@pytest.mark.parametrize("script", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = ["-c", _readme_code()] if script == README else [str(script)]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # TMPDIR points here, so a temporary directory the demo leaves behind shows up
    assert not list(tmp_path.glob("qcawalk_demo_*"))
