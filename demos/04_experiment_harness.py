"""Reproducible experiments from a JSON config.

A config fixes the lattice, walk, backends, noise and the root seed;
`run_experiment` writes one JSON record per sweep point plus CSV tables.
Payloads are byte-identical across re-runs, so records can be diffed.
The CLI drives the same machinery:

    qcawalk validate config.json
    qcawalk run config.json
    qcawalk report results/
    qcawalk calibrate
"""

import json
import sys
import tempfile
from pathlib import Path

from qcawalk.experiment import payload_text, run_experiment

config = {
    "schema_version": 1,
    "name": "cycle_search_sweep",
    "lattice": {"kind": "cycle", "N": 4},
    "walk": {"variant": "search", "steps": 25},
    "shots": 10000,
    "seed": 42,
    "backends": ["statevector", "density"],
    "noise": {"relaxation_rate": 3.5e4, "dephasing_rate": 1e2},
    "sweep": {"sizes": [4, 6, 8]},
    "output": {"directory": "results", "formats": ["json", "csv"]},
}

with tempfile.TemporaryDirectory(prefix="qcawalk_demo_") as tmp:
    outdir = Path(tmp)
    paths = run_experiment(config, output_dir=outdir)

    print("written:")
    for p in sorted(outdir.iterdir()):
        print(f"  {p.name}")

    record = json.loads(paths[0].read_text())
    print(f"\nconfig hash: {record['payload']['config_hash']}")
    print("scalars of the first sweep point:")
    for k, v in sorted(record["payload"]["metrics"]["scalars"].items()):
        print(f"  {k} = {v}")

    print("\nsweep table:")
    print((outdir / "sweep.csv").read_text())
    print("fits:")
    print((outdir / "fits.csv").read_text())

    # determinism: a second run reproduces the payload byte for byte
    again = run_experiment(config, output_dir=outdir / "again")
    same = payload_text(record) == payload_text(json.loads(Path(again[0]).read_text()))

print(f"payload byte-identical on re-run: {same}")
if not same:
    sys.exit(1)
