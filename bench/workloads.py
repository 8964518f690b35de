"""Seeded workload configs for the ``qcawalk run`` benchmark.

Each workload is one experiment config in the shape a researcher would
write.  The benchmark seed becomes the config's root ``seed``, so it drives
shot sampling and the trajectory RNG; nothing else varies with it.  Each
workload makes one layer do most of the work and leaves others idle, so a
later change to that layer shows on one workload and not on another.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Calibrated relaxation and dephasing rates (1/s), written explicitly into
#: ``cycle_density`` so that workload never calibrates.
EXPLICIT_RATES = {"relaxation_rate": 3.5e4, "dephasing_rate": 3e-3}

_OUTPUT = {"directory": "results", "formats": ["json", "csv"]}

WORKLOADS = {
    "torus_search": {
        "why": "4x4 torus search, 8 steps, statevector+trajectories (4000), "
               "calibrated noise: the paper's headline run; calibration is "
               "about half of it",
        "config": {
            "lattice": {"kind": "torus", "N": 4},
            "walk": {"variant": "search", "steps": 8},
            "shots": 10000,
            "backends": ["statevector", "trajectories"],
            "n_trajectories": 4000,
            "noise": "calibrate",
        },
    },
    "cycle_sweep": {
        "why": "search sweep over cycles of 4, 8 and 16, 16 steps each, "
               "statevector+trajectories (4000), calibrated noise: the "
               "trajectory kernel and the most recorded steps",
        "config": {
            "lattice": {"kind": "cycle", "N": 4},
            "walk": {"variant": "search", "steps": 16},
            "shots": 10000,
            "backends": ["statevector", "trajectories"],
            "n_trajectories": 4000,
            "noise": "calibrate",
            "sweep": {"sizes": [4, 8, 16]},
        },
    },
    "cycle_density": {
        "why": "walk on an 8-cycle, symmetric init, 20 steps, "
               "statevector+density, explicit rates: the dense density "
               "backend, with no calibration or trajectories",
        "config": {
            "lattice": {"kind": "cycle", "N": 8},
            "walk": {"variant": "walk", "steps": 20,
                     "init": {"kind": "symmetric", "site": 0}},
            "shots": 10000,
            "backends": ["statevector", "density"],
            "noise": dict(EXPLICIT_RATES),
        },
    },
    "cycle_ideal": {
        "why": "search on a 20-cycle, 10 steps, statevector only, no noise: "
               "the dense gate kernel on a 2^20 state, and the largest "
               "peak memory",
        "config": {
            "lattice": {"kind": "cycle", "N": 20},
            "walk": {"variant": "search", "steps": 10},
            "shots": 10000,
            "backends": ["statevector"],
            "noise": None,
        },
    },
}


def make_config(workload: str, seed: int) -> dict:
    """The config of ``workload`` with ``seed`` as its root seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    cfg = {"schema_version": 1, "name": workload}
    cfg.update(json.loads(json.dumps(WORKLOADS[workload]["config"])))
    cfg["seed"] = int(seed)
    cfg["output"] = dict(_OUTPUT)
    return cfg


def write_config(workload: str, seed: int, directory) -> Path:
    """Write the workload's config into ``directory`` and return its path."""
    path = Path(directory) / f"{workload}.json"
    path.write_text(json.dumps(make_config(workload, seed), indent=1,
                               sort_keys=True) + "\n")
    return path
