"""The dense 2^n reference stays off the production paths: the sector
backends refuse a dense state, and neither ``import qcawalk`` nor a CLI
run on any backend imports the oracle."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qcawalk import (
    AngleSchedule,
    Lattice,
    NoiseModel,
    SectorDensity,
    build_step_operator,
    evolve_density,
    sector_project,
    trajectory_run,
)
from qcawalk import reference
from qcawalk.reference import DensityMatrix, qw_init

ROOT = Path(__file__).resolve().parent.parent
RATES = NoiseModel(relaxation_rate=3e4, dephasing_rate=2e3)

_ENTRY_POINTS = {
    "StepOperator.apply": lambda op, state: op.apply(state),
    "evolve_density": lambda op, state: evolve_density(
        DensityMatrix.from_statevector(state), op, RATES),
    "trajectory_run": lambda op, state: trajectory_run(state, op, RATES, n_traj=2, seed=0),
    "sector_project": lambda op, state: sector_project(state),
    "SectorDensity.from_statevector": lambda op, state: SectorDensity.from_statevector(state),
}


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_dense_state_rejected(entry):
    # a 2^n array read as a sector state would give a silently wrong answer
    lat = Lattice("cycle", 4)
    op = build_step_operator(lat, AngleSchedule(), "walk")
    state = qw_init(lat, 0, symmetric=True)
    before = state.amplitudes.copy()
    with pytest.raises(TypeError, match=rf"{entry} takes a Sector.*qcawalk\.reference\.to_sector"):
        _ENTRY_POINTS[entry](op, state)
    assert np.array_equal(state.amplitudes, before)


_CLI_RUN = """
import sys
from qcawalk.cli import main

code = main(["run", sys.argv[1], "--output-dir", sys.argv[2]])
loaded = sorted(m for m in sys.modules if m.startswith("qcawalk"))
print(code, "qcawalk.reference" in sys.modules, loaded)
"""


def test_cli_run_never_imports_the_reference(tmp_path):
    config = {
        "schema_version": 1,
        "name": "guard",
        "lattice": {"kind": "cycle", "N": 4},
        "walk": {"variant": "search", "steps": 2},
        "shots": 100,
        "seed": 1,
        "backends": ["statevector", "density", "trajectories"],
        "n_trajectories": 20,
        "noise": {"relaxation_rate": 3e4, "dephasing_rate": 2e3},
        "output": {"directory": "results", "formats": ["json"]},
    }
    path = tmp_path / "guard.json"
    path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _CLI_RUN, str(path), str(tmp_path / "out")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    code, imported, loaded = proc.stdout.strip().splitlines()[-1].split(" ", 2)
    assert code == "0", proc.stdout
    assert imported == "False", loaded
    record, = [json.loads(p.read_text()) for p in (tmp_path / "out").rglob("*.json")]
    assert sorted(record["payload"]["runs"]) == ["density", "statevector", "trajectories"]



_BAD_REFERENCE_INPUTS = {
    "matrix_shape": (lambda: reference.apply_local(np.zeros(8, dtype=complex), np.eye(2),
                                                   (0, 1)), "need a 4x4 matrix"),
    "initializer_mode": (lambda: reference.search_initializer(Lattice("cycle", 4), "approx"),
                         "unknown initializer mode 'approx'"),
    "hamiltonian_shape": (lambda: reference.lindblad_rhs(np.eye(2), np.eye(4), RATES),
                          "Hamiltonian dimension mismatch"),
    "not_power_of_two": (lambda: reference.lindblad_rhs(np.eye(3), np.eye(3), RATES),
                         "not a power of two"),
    "register_mismatch": (lambda: reference.evolve_density(
        DensityMatrix.from_statevector(qw_init(Lattice("cycle", 4), 0)),
        build_step_operator(Lattice("cycle", 6), AngleSchedule(), "walk"), RATES),
        "state has 4 qubits, step operator 6"),
}


@pytest.mark.parametrize("case", _BAD_REFERENCE_INPUTS)
def test_bad_input_rejected(case):
    call, match = _BAD_REFERENCE_INPUTS[case]
    with pytest.raises(ValueError, match=match):
        call()
