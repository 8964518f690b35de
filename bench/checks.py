"""Output checks for one ``qcawalk run`` repetition, against exact answers.

(a) exit code 0, one schema-valid record per sweep point, the CSVs present;
(b) every ideal per-step distribution equals |U^t psi0|^2 from the
    independent one-particle oracle ``qcawalk.walks.sector_oracle``;
(c) leakage of the noisy backends follows the exact relaxation law
    1 - exp(-K T(t)) (uniform relaxation makes the one-particle block decay
    as a whole); density to 1e-12, trajectories to 5 standard errors;
(d) the 4x4-torus search peaks in [0.27, 0.285] at step 2, as the paper
    states;
(e) payload bytes are the same in every repetition (compared by the
    benchmark through :func:`payload_digest`).

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import jsonschema
import numpy as np

IDEAL_TOL = 1e-9
DENSITY_TOL = 1e-12
TRAJECTORY_SE = 5.0
TORUS_PEAK = (0.27, 0.285)
TORUS_PEAK_STEP = 2

#: Tessellation layers per step, and the longest gate angle in a layer
#: (iSWAP for the search, sqrt(iSWAP) for the plain walk).
LAYERS = {"cycle": 2, "torus": 4}
LONGEST_ANGLE = {"search": math.pi / 2, "walk": math.pi / 4}


def load_records(outdir) -> list:
    """Run records in ``outdir``, in file-name order."""
    return [json.loads(p.read_text()) for p in sorted(Path(outdir).glob("*.json"))]


def payload_digest(records: list) -> str:
    """sha256 over the canonical payload bytes of every record, in order."""
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec["payload"], sort_keys=True, indent=1).encode())
    return h.hexdigest()


def expected_csvs(cfg: dict) -> list:
    search = cfg["walk"]["variant"] == "search"
    points = len(cfg["sweep"]["sizes"]) if cfg.get("sweep") else 1
    names = ["per_step.csv", "summary.txt"]
    if search:
        names.append("sweep.csv")
        if points >= 2:
            names.append("fits.csv")
    return names


def check_files(cfg: dict, outdir, records: list, schema: dict) -> list:
    """(a): one schema-valid record per sweep point and the report files."""
    problems = []
    points = len(cfg["sweep"]["sizes"]) if cfg.get("sweep") else 1
    if len(records) != points:
        problems.append(f"{len(records)} records for {points} sweep points")
    for i, rec in enumerate(records):
        try:
            jsonschema.validate(rec, schema)
        except jsonschema.ValidationError as exc:
            problems.append(f"record {i} fails the schema: {exc.message}")
    for name in expected_csvs(cfg):
        path = Path(outdir) / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"missing or empty {name}")
    return problems


def initial_sector_state(point: dict) -> np.ndarray:
    """psi0 on the one-particle sector, written from the config alone.

    ``symmetric`` is (e_s + e_{s+1})/sqrt(2): the preparation circuit's
    phases cancel up to a global phase.
    """
    from qcawalk.lattice import Lattice

    lattice = Lattice(point["lattice"]["kind"], point["lattice"]["N"])
    V = lattice.vertex_count
    init = point["walk"]["init"]
    psi = np.zeros(V, dtype=complex)
    if init["kind"] == "search_uniform":
        psi[:] = 1 / math.sqrt(V)
    elif init["kind"] == "symmetric":
        psi[init["site"]] = psi[lattice.right_neighbor(init["site"])] = 1 / math.sqrt(2)
    else:
        psi[init["site"]] = 1.0
    return psi


def oracle_distributions(point: dict) -> np.ndarray:
    """(steps+1, V) array of |U^t psi0|^2 from ``sector_oracle``."""
    from qcawalk.gates import AngleSchedule
    from qcawalk.lattice import Lattice
    from qcawalk.walks import sector_oracle

    lattice = Lattice(point["lattice"]["kind"], point["lattice"]["N"])
    walk = point["walk"]
    U = sector_oracle(lattice, AngleSchedule(marked=walk["marked"]), walk["variant"])
    psi = initial_sector_state(point)
    out = [np.abs(psi) ** 2]
    for _ in range(walk["steps"]):
        psi = U @ psi
        out.append(np.abs(psi) ** 2)
    return np.array(out)


def _label(point: dict, backend: str) -> str:
    return f"N={point['lattice']['N']} {backend}"


def check_ideal(record: dict) -> list:
    """(b): the statevector run against the sector oracle, every step."""
    payload = record["payload"]
    point = payload["config"]
    expected = oracle_distributions(point)
    V = expected.shape[1]
    problems = []
    steps = payload["runs"]["statevector"]["per_step"]
    if len(steps) != len(expected):
        return [f"{_label(point, 'statevector')}: {len(steps)} steps recorded, "
                f"{len(expected)} expected"]
    for t, (step, want) in enumerate(zip(steps, expected)):
        probs = step["exact"]["probabilities"]
        got = np.array([probs.get(str(v), 0.0) for v in range(V)])
        err = float(np.abs(got - want).max())
        leak = probs.get("leakage", 0.0)
        if err > IDEAL_TOL or leak > IDEAL_TOL:
            problems.append(f"{_label(point, 'statevector')} step {t}: off the oracle "
                            f"by {err:.3e}, leakage {leak:.3e}")
    return problems


def exact_leakage(point: dict, relaxation_rate: float, coupling: float) -> np.ndarray:
    """1 - exp(-K T(t)) with T(t) = t x layers x longest gate angle / coupling."""
    layer_t = LONGEST_ANGLE[point["walk"]["variant"]] / coupling
    t = np.arange(point["walk"]["steps"] + 1)
    return 1.0 - np.exp(-relaxation_rate * t * LAYERS[point["lattice"]["kind"]] * layer_t)


def check_leakage(record: dict, noise) -> list:
    """(c): noisy backends' leakage against the exact relaxation law.

    ``noise`` is the resolved :class:`qcawalk.noise.NoiseModel` of the
    config (``None`` for an ideal config, which then means zero rates).
    """
    from qcawalk.noise import NoiseModel

    model = noise if noise is not None else NoiseModel()
    payload = record["payload"]
    point = payload["config"]
    want = exact_leakage(point, model.relaxation_rate, model.coupling)
    problems = []
    for backend, run in sorted(payload["runs"].items()):
        if backend == "statevector":
            continue
        got = np.array([s["leakage"] for s in run["per_step"]])
        if got.shape != want.shape:
            problems.append(f"{_label(point, backend)}: {len(got)} leakage values, "
                            f"{len(want)} expected")
            continue
        if backend == "density":
            tol = np.full_like(want, DENSITY_TOL)
        else:
            se = np.sqrt(want * (1.0 - want) / point["n_trajectories"])
            tol = TRAJECTORY_SE * se + DENSITY_TOL
        bad = np.nonzero(np.abs(got - want) > tol)[0]
        for t in bad:
            problems.append(f"{_label(point, backend)} step {t}: leakage {got[t]!r}, "
                            f"exact {want[t]!r}, tolerance {tol[t]:.3e}")
    return problems


def check_torus_peak(record: dict) -> list:
    """(d): the paper's 4x4-torus search peak."""
    scalars = record["payload"]["metrics"]["scalars"]
    peak, step = scalars.get("success_probability"), scalars.get("hitting_time")
    lo, hi = TORUS_PEAK
    if peak is None or not lo <= peak <= hi or step != TORUS_PEAK_STEP:
        return [f"torus search peak {peak!r} at step {step!r}, expected "
                f"[{lo}, {hi}] at step {TORUS_PEAK_STEP}"]
    return []


def check_physics(records: list, noise, torus_peak: bool) -> list:
    """(b), (c) and, when asked, (d) on every record of one repetition."""
    problems = []
    for rec in records:
        problems += check_ideal(rec)
        problems += check_leakage(rec, noise)
        if torus_peak:
            problems += check_torus_peak(rec)
    return problems
