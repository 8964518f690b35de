"""The runtime needs only numpy and jsonschema (with its referencing):
neither importing the CLI nor any of its commands loads scipy, which only
the tests use.  Nor does a one-worker run load ``concurrent.futures``,
which only a thread pool needs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_CHILD = """
import json
import sys

argv = json.loads(sys.argv[1])
from qcawalk.cli import main

code = main(argv) if argv else 0
print(code, json.dumps(sorted(m for m in sys.modules
                              if m.split(".")[0] == "scipy" or m == "concurrent.futures")))
"""


def _config(tmp_path, backends, noise):
    config = {
        "schema_version": 1,
        "name": "deps",
        "lattice": {"kind": "cycle", "N": 4},
        "walk": {"variant": "search", "steps": 2},
        "shots": 100,
        "seed": 1,
        "backends": backends,
        "n_trajectories": 20,
        "noise": noise,
        "output": {"directory": "results", "formats": ["json"]},
    }
    path = tmp_path / "deps.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("command", ["import", "run_calibrated_trajectories",
                                     "run_rates_density", "calibrate_json"])
def test_cli_never_imports_scipy(command, tmp_path):
    argv = {
        "import": [],
        "run_calibrated_trajectories": [
            "run", _config(tmp_path, ["statevector", "trajectories"], "calibrate"),
            "--output-dir", str(tmp_path / "out")],
        "run_rates_density": [
            "run", _config(tmp_path, ["statevector", "density"],
                           {"relaxation_rate": 3e4, "dephasing_rate": 2e3}),
            "--output-dir", str(tmp_path / "out")],
        "calibrate_json": ["calibrate", "--json"],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, loaded = proc.stdout.strip().splitlines()[-1].split(" ", 1)
    assert code == "0", proc.stdout
    assert json.loads(loaded) == []
    if command.startswith("run"):
        record, = [json.loads(p.read_text()) for p in (tmp_path / "out").rglob("*.json")]
        assert len(record["payload"]["runs"]) == 2
