"""Experiment orchestration: config ingestion, sweeps, and persistence.

A single JSON config (validated against the shipped schema, unknown keys
rejected) describes a walk or search, the backends to run it on, the
noise model (explicit rates or ``"calibrate"``), and an optional sweep
over lattice sizes.  Every run writes one JSON record whose ``payload``
section is fully deterministic under (config, seed): re-running the same
config yields byte-identical payloads, while wall-clock data lives under
``meta``.

Seed derivation is one documented chain: the config's root seed spawns a
run seed per sweep point via SeedSequence([root, point_index]); inside a
run, shot sampling and trajectories use the stream tags from
:mod:`qcawalk.states`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .lattice import Lattice, tessellations_for
from .metrics import (
    degraded_ratio,
    hellinger_fidelity,
    inverse_fit,
    l1_distance,
    linear_fit,
    selectivity,
    success_probability,
)
from .noise import NoiseModel, calibrate_rates
from .states import LEAKAGE, Distribution, require_count
from .walks import (
    InitSpec,
    WalkBackend,
    WalkConfig,
    run_walk,
    search_initializer_gates,
)

#: Environment variable bounding the number of concurrent sweep workers.
WORKERS_ENV = "QCAWALK_WORKERS"

_DEFAULT_STEPS = {"cycle": 50, "torus": 20}
_DEFAULT_MARKED = {"cycle": 2}  # torus default is vertex (3, 0)


class ConfigError(ValueError):
    """Config failed validation; ``messages`` lists the violations.

    Raised for schema violations and for values the schema cannot express
    (an odd lattice size, an out-of-range vertex).
    """

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("\n".join(self.messages))


class OutputDirError(OSError):
    """The output directory is not a directory and cannot be made one."""


def _load_schema(name: str) -> dict:
    ref = resources.files("qcawalk").joinpath("schemas", name)
    return json.loads(ref.read_text())


def config_schema() -> dict:
    return _load_schema("experiment_config.schema.json")


def run_record_schema() -> dict:
    return _load_schema("run_record.schema.json")


def validate_config(raw: dict) -> list:
    """Schema diagnostics for a raw config dict ([] when valid), plus the
    :class:`NoiseModel` checks on explicit noise values, which reject the
    ``NaN`` and ``Infinity`` that Python's ``json`` parses and the schema
    admits."""
    validator = jsonschema.Draft202012Validator(config_schema())
    out = []
    for err in sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path)):
        where = "/".join(str(p) for p in err.absolute_path) or "<root>"
        out.append(f"{where}: {err.message}")
    if not out and isinstance(raw.get("noise"), dict):
        try:
            NoiseModel.from_dict(raw["noise"])
        except ValueError as exc:
            out.append(f"noise: {exc}")
    return out


def load_config(source) -> dict:
    """Read, validate and normalise a config (path or dict)."""
    if isinstance(source, dict):
        raw = source
    else:
        text = Path(source).read_text()
        raw = json.loads(text)
    problems = validate_config(raw)
    if problems:
        raise ConfigError(problems)
    return _apply_defaults(raw)


def _apply_defaults(raw: dict) -> dict:
    cfg = json.loads(json.dumps(raw))  # deep copy, JSON-typed
    kind = cfg["lattice"]["kind"]
    walk = cfg.setdefault("walk", {})
    walk.setdefault("steps", _DEFAULT_STEPS[kind])
    walk.setdefault("marked", None)
    walk.setdefault("initializer_mode", "exact")
    if "variant" not in walk:
        walk["variant"] = "search" if walk["marked"] is not None else "walk"
    if walk["variant"] == "search":
        walk.setdefault("init", {"kind": "search_uniform"})
    else:
        walk.setdefault("init", {"kind": "symmetric", "site": 0})
    walk["init"].setdefault("site", 0)
    cfg.setdefault("name", "experiment")
    cfg.setdefault("shots", 10000)
    cfg.setdefault("seed", 0)
    cfg.setdefault("backends", ["statevector"])
    cfg.setdefault("n_trajectories", 2000)
    cfg.setdefault("noise", None)
    cfg.setdefault("sweep", None)
    output = cfg.setdefault("output", {})
    output.setdefault("directory", "results")
    output.setdefault("formats", ["json", "csv"])
    return cfg


def resolve_noise(spec) -> NoiseModel | None:
    if spec is None:
        return None
    if spec == "calibrate":
        return calibrate_rates().model
    return NoiseModel.from_dict(spec)


def _default_marked(lattice: Lattice) -> int:
    if lattice.kind == "cycle":
        return _DEFAULT_MARKED["cycle"]
    return lattice.vertex_id(3, 0)


def _point_config(cfg: dict, size: int, index: int) -> dict:
    """Resolve one sweep point: concrete size, marked vertex, run seed.

    The point's walk config and tessellation cover are built here, so an
    odd or too-small size, or an out-of-range site or marked vertex --
    values the schema cannot express -- raise :class:`ConfigError` before
    calibration and before any point runs.
    """
    point = json.loads(json.dumps(cfg))
    point["lattice"]["N"] = size
    lattice = Lattice(point["lattice"]["kind"], size)
    walk = point["walk"]
    if walk["variant"] == "search" and walk["marked"] is None:
        walk["marked"] = _default_marked(lattice)
    if walk["variant"] == "walk":
        walk["marked"] = None
    seq = np.random.SeedSequence([point["seed"], index])
    point["run_seed"] = int(seq.generate_state(1, dtype=np.uint32)[0])
    point["point_index"] = index
    del point["sweep"]
    try:
        resolved = _walk_config(point, "statevector")
        tessellations_for(lattice)
        if resolved.init.kind == "search_uniform" and resolved.initializer_mode == "literal":
            search_initializer_gates(lattice.vertex_count)
    except ValueError as exc:
        raise ConfigError([f"lattice N={size}: {exc}"]) from exc
    return point


def resolve_points(cfg: dict) -> list:
    """Every sweep point of a loaded config, resolved by :func:`_point_config`.

    Raises :class:`ConfigError` on the first point whose values the schema
    cannot rule out, so ``qcawalk validate`` and ``qcawalk run`` reject
    the same configs.
    """
    sizes = cfg["sweep"]["sizes"] if cfg["sweep"] else [cfg["lattice"]["N"]]
    return [_point_config(cfg, size, i) for i, size in enumerate(sizes)]


def _dist_payload(dist: Distribution) -> list:
    """The record form of a per-step distribution, one dict per step: the one
    place outcome indices become labels, ``"0"``..``"V-1"`` then ``"leakage"``."""
    labels = [str(v) for v in range(dist.probs.shape[-1] - 1)] + [LEAKAGE]
    counts = [None] * len(dist) if dist.counts is None else dist.counts.tolist()
    return [{"probabilities": dict(zip(labels, p)), "shots": dist.shots,
             "counts": None if c is None else dict(zip(labels, c))}
            for p, c in zip(dist.probs.tolist(), counts)]


def _series(name: str, values: np.ndarray, source: list) -> dict:
    """A metric series as the record holds it: plain floats, and null for a
    non-finite value (selectivity with a zero probability), as JSON has none."""
    return {"name": name, "source": source,
            "values": [v if math.isfinite(v) else None for v in values.tolist()]}


def _walk_config(point: dict, backend: str) -> WalkConfig:
    lattice = Lattice(point["lattice"]["kind"], point["lattice"]["N"])
    walk = point["walk"]
    return WalkConfig(
        lattice=lattice,
        steps=walk["steps"],
        init=InitSpec(walk["init"]["kind"], walk["init"]["site"]),
        marked=walk["marked"],
        shots=point["shots"],
        seed=point["run_seed"],
        backend=WalkBackend(backend, point["n_trajectories"]),
        initializer_mode=walk["initializer_mode"],
    )


def execute_point(point: dict, noise: NoiseModel | None) -> dict:
    """Run all configured backends for one sweep point and build its record."""
    backends = list(point["backends"])
    if "statevector" not in backends:
        backends.insert(0, "statevector")  # ideal reference is always produced
    runs = {b: run_walk(_walk_config(point, b), noise=noise) for b in backends}

    marked = point["walk"]["marked"]
    ideal = runs["statevector"].exact
    series, scalars, payload_runs = [], {}, {}
    if marked is not None:
        peak, scalars["hitting_time"] = success_probability(ideal, marked)
        scalars["success_probability"] = peak
    for backend, result in runs.items():
        exact = result.exact
        if backend != "statevector":
            pair = ["statevector", backend]
            series.append(_series("hellinger_fidelity", hellinger_fidelity(ideal, exact), pair))
            series.append(_series("l1_distance", l1_distance(ideal, exact), pair))
        series.append(_series("leakage", exact.get(LEAKAGE), [backend]))
        if marked is not None:
            series.append(_series("marked_probability", exact.get(marked), [backend]))
            series.append(_series("selectivity", selectivity(exact, marked), [backend]))
            if backend != "statevector":
                npeak, scalars[f"hitting_time_{backend}"] = success_probability(exact, marked)
                scalars[f"success_probability_{backend}"] = npeak
                scalars[f"degraded_ratio_{backend}"] = degraded_ratio(npeak, peak)
        payload_runs[backend] = {"backend": backend, "per_step": [
            {"exact": e, "empirical": m, "leakage": leak}
            for e, m, leak in zip(_dist_payload(exact), _dist_payload(result.empirical),
                                  exact.get(LEAKAGE).tolist())]}

    payload = {
        "schema_version": 1,
        "config": point,
        "config_hash": hashlib.sha256(
            json.dumps(point, sort_keys=True).encode()).hexdigest(),
        "runs": payload_runs,
        "metrics": {"series": series, "scalars": scalars},
    }
    meta = {
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": {b: r.wall_time_s for b, r in runs.items()},
    }
    return {"payload": payload, "meta": meta}


def resolve_workers(workers=None) -> int:
    """Concurrent sweep workers: ``workers`` if given, else the
    QCAWALK_WORKERS env var, else 1.

    Raises ``ValueError`` unless the value is an integer >= 1; a bool or
    a non-integral number is not one, and a string is read with ``int``.
    """
    if workers is None:
        name, raw = WORKERS_ENV, os.environ.get(WORKERS_ENV, "1")
    else:
        name, raw = "workers", workers
    try:
        return require_count(name, int(raw) if isinstance(raw, str) else raw, 1)
    except ValueError:
        raise ValueError(f"{name} must be an integer >= 1, got {raw!r}") from None


def _require_output_dir(outdir: Path) -> None:
    """:class:`OutputDirError` unless ``outdir`` is a directory or can be
    made one: the nearest of it and its parents that exists must be a
    directory.  Creates nothing."""
    existing = next(p for p in (outdir, *outdir.parents) if p.exists())
    if not existing.is_dir():
        raise OutputDirError(f"output directory {outdir}: {existing} is not a directory")


def _make_output_dir(outdir: Path) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputDirError(f"cannot create output directory {outdir}: {exc}") from exc


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def run_experiment(source, output_dir=None, workers: int | None = None) -> list:
    """Execute a validated config and persist one record per sweep point.

    Returns the written record paths.  Sweep points run concurrently up
    to ``workers`` (default: the QCAWALK_WORKERS env var, else 1); outputs
    are independent of the worker count.  An output directory that cannot
    be made raises :class:`OutputDirError` before calibration and before
    any point runs; the records are validated together, so an invalid one
    raises ``jsonschema.ValidationError`` before any is written.
    """
    cfg = load_config(source)
    points = resolve_points(cfg)
    workers = resolve_workers(workers)
    outdir = Path(output_dir) if output_dir else Path(cfg["output"]["directory"])
    _require_output_dir(outdir)
    noise = resolve_noise(cfg["noise"])

    if workers == 1 or len(points) == 1:
        records = [execute_point(p, noise) for p in points]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda p: execute_point(p, noise), points))

    jsonschema.validate(records, {"type": "array", "items": run_record_schema()})
    _make_output_dir(outdir)
    paths = []
    for point, record in zip(points, records):
        name = f"{cfg['name']}_N{point['lattice']['N']}_p{point['point_index']}.json"
        path = outdir / name
        _atomic_write(path, _record_text(record))
        paths.append(path)
    if "csv" in cfg["output"]["formats"]:
        emit_report(records, outdir)
    return paths


def _record_text(record: dict) -> str:
    """A record's file text; a non-finite number raises ``ValueError``,
    since it has no JSON form."""
    return json.dumps(record, sort_keys=True, indent=1, allow_nan=False) + "\n"


def payload_text(record: dict) -> str:
    """Canonical bytes of the deterministic part of a record."""
    return json.dumps(record["payload"], sort_keys=True, indent=1, allow_nan=False) + "\n"


def load_records(directory) -> list:
    """The run records among a directory's ``*.json`` files, in (config
    ``name``, ``point_index``) order, the order ``run`` reports them in.

    A JSON object with a ``payload`` key is a run record and must match
    ``run_record.schema.json``.  Raises ``OSError`` if ``directory`` is not
    a directory, and ``ValueError`` naming the file on a file that is not
    JSON (chained from its ``json.JSONDecodeError``) or on an invalid
    record.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"{directory} is not a directory")
    paths = sorted(directory.glob("*.json"))
    validator = jsonschema.Draft202012Validator(run_record_schema())
    records = []
    for p in paths:
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{p} is not JSON: {exc}") from exc
        if isinstance(data, dict) and "payload" in data:
            error = jsonschema.exceptions.best_match(validator.iter_errors(data))
            if error is not None:
                where = "/".join(str(k) for k in error.absolute_path) or "<root>"
                raise ValueError(f"{p} is not a valid run record: {where}: {error.message}")
            records.append(data)
    return sorted(records, key=lambda r: (r["payload"]["config"]["name"],
                                          r["payload"]["config"]["point_index"]))


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: quoted when it holds a comma, a quote or
    a line break."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_report(records, output_dir) -> list:
    """Write per-step and sweep CSVs plus a plain-text summary of
    ``records``, a list of run records (as :func:`load_records` reads them).

    The per-step CSV holds every metric series as (run, backend(s),
    metric, step, value) rows, a null value as an empty cell; the sweep
    CSV one row per config ``name`` and lattice size with the search
    scalars, in (name, size) order; scaling fits (hitting time vs size,
    success probability vs 1/size) go to fits.csv for every name with at
    least two sizes, so experiments that share a directory are never
    mixed.  An output directory that cannot be made raises
    :class:`OutputDirError`.
    """
    outdir = Path(output_dir)
    _make_output_dir(outdir)
    written = []

    def write(name: str, lines: list) -> None:
        written.append(outdir / name)
        written[-1].write_text("\n".join(lines) + "\n")

    lines = ["run,source,metric,step,value"]
    for rec in records:
        payload = rec["payload"]
        run_id = payload["config_hash"][:12]
        for s in payload["metrics"]["series"]:
            src = "+".join(s.get("source") or [])
            for step, value in enumerate(s["values"]):
                cell = "" if value is None else repr(value)
                lines.append(f"{run_id},{src},{s['name']},{step},{cell}")
    write("per_step.csv", lines)

    search_recs = [r for r in records
                   if r["payload"]["config"]["walk"]["variant"] == "search"]
    if search_recs:
        scalar_keys = sorted({k for r in search_recs
                              for k in r["payload"]["metrics"]["scalars"]})
        rows = ["name,N," + ",".join(scalar_keys)]
        series = {}  # config name -> (sizes, hitting times, success probabilities)
        for rec in sorted(search_recs, key=lambda r: (r["payload"]["config"]["name"],
                                                      r["payload"]["config"]["lattice"]["N"])):
            cfgp = rec["payload"]["config"]
            name, n = cfgp["name"], cfgp["lattice"]["N"]
            sc = rec["payload"]["metrics"]["scalars"]
            rows.append(f"{_csv_field(name)},{n}," + ",".join(
                "" if sc.get(k) is None else repr(sc.get(k)) for k in scalar_keys))
            ns, hits, peaks = series.setdefault(name, ([], [], []))
            ns.append(n)
            hits.append(sc.get("hitting_time"))
            peaks.append(sc.get("success_probability"))
        write("sweep.csv", rows)

        fit_rows = []
        for name, (ns, hits, peaks) in series.items():
            if len(ns) >= 2:
                fits = {"hitting_time_linear": linear_fit(ns, hits),
                        "success_probability_inverse": inverse_fit(ns, peaks)}
                fit_rows += [f"{_csv_field(name)},{fit},{k},{v!r}"
                             for fit, params in fits.items() for k, v in params.items()]
        if fit_rows:
            write("fits.csv", ["name,fit,parameter,value"] + fit_rows)

    text_lines = []
    for rec in records:
        payload = rec["payload"]
        cfgp = payload["config"]
        text_lines.append(
            f"run {payload['config_hash'][:12]}: {cfgp['walk']['variant']} on "
            f"{cfgp['lattice']['kind']} N={cfgp['lattice']['N']}, "
            f"steps={cfgp['walk']['steps']}, backends={cfgp['backends']}"
        )
        for k, v in sorted(payload["metrics"]["scalars"].items()):
            text_lines.append(f"    {k} = {v}")
    write("summary.txt", text_lines)
    return written
