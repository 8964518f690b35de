"""Each narrative script under demos/, and the README's Python examples,
run to completion against src/; the README's JSON configs are valid."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qcawalk.experiment import load_config, resolve_points, validate_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README = ROOT / "README.md"


def _readme_blocks(lang: str) -> list:
    """The README's ```<lang> blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


@pytest.mark.parametrize("script", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # the README's Python blocks run joined in order, as one program
    argv = ["-c", "\n".join(_readme_blocks("python"))] if script == README else [str(script)]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # TMPDIR points here, so a temporary directory the demo leaves behind shows up
    assert not list(tmp_path.glob("qcawalk_demo_*"))


def test_readme_configs_valid():
    # every JSON block in the README is a config that `qcawalk validate` accepts
    blocks = _readme_blocks("json")
    assert blocks
    for text in blocks:
        raw = json.loads(text)
        assert validate_config(raw) == []
        assert resolve_points(load_config(raw))
