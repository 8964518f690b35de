"""Span recording around qcawalk's layer boundaries, and the per-layer
arithmetic derived from the spans.

Tracing is installed from the benchmark's own files: :func:`install`
replaces each traced function *where its caller looks it up* (for example
``qcawalk.experiment.run_walk``, because ``experiment`` imported it by
name), so no source file of the program changes.  Spans are kept in
memory and written out once, when the run ends.

A span's self time is its duration minus the part of that interval its
child spans cover.  Every ``*.s`` / ``*.self_s`` layer metric except the
inclusive ``walks.run_walk.<backend>.s`` ones is a sum of self times, and
every span belongs to exactly one of them, so they add up to the traced
``run_s`` (less the recorder's own cost).
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
from pathlib import Path
from time import perf_counter

# span name -> (module path, attribute path) of the name that is replaced
TRACED = {
    "experiment.load_config": ("qcawalk.experiment", "load_config"),
    "experiment.calibrate_rates": ("qcawalk.experiment", "calibrate_rates"),
    "experiment.execute_point": ("qcawalk.experiment", "execute_point"),
    "experiment.run_walk": ("qcawalk.experiment", "run_walk"),
    "experiment.hellinger_fidelity": ("qcawalk.experiment", "hellinger_fidelity"),
    "experiment.l1_distance": ("qcawalk.experiment", "l1_distance"),
    "experiment.selectivity": ("qcawalk.experiment", "selectivity"),
    "experiment.success_probability": ("qcawalk.experiment", "success_probability"),
    "experiment.emit_report": ("qcawalk.experiment", "emit_report"),
    "experiment._record_text": ("qcawalk.experiment", "_record_text"),
    "experiment._atomic_write": ("qcawalk.experiment", "_atomic_write"),
    "experiment.jsonschema.validate": ("qcawalk.experiment", "jsonschema.validate"),
    "walks.sample_counts": ("qcawalk.walks", "sample_counts"),
    "walks.sector_project": ("qcawalk.walks", "sector_project"),
    "walks.build_step_operator": ("qcawalk.walks", "build_step_operator"),
    "noise.noisy_gate_channel": ("qcawalk.noise", "noisy_gate_channel"),
    "noise.idle_channel": ("qcawalk.noise", "idle_channel"),
    "noise.evolve_density": ("qcawalk.noise", "evolve_density"),
    "noise.trajectory_run": ("qcawalk.noise", "trajectory_run"),
    "gates.StepOperator.apply": ("qcawalk.gates", "StepOperator.apply"),
    "states.Distribution.__post_init__": ("qcawalk.states", "Distribution.__post_init__"),
}

ROOT = "cli.main"

# leading parameters of the traced functions whose arguments are kept until
# write-out, for the computed counts
_PARAMS = {
    "experiment.run_walk": ("config", "noise"),
    "gates.StepOperator.apply": ("self", "state"),
    "noise.evolve_density": ("rho", "step", "noise"),
    "noise.trajectory_run": ("init", "step", "noise", "n_traj", "seed", "steps"),
}

_COMPLEX_BYTES = 16


class Recorder:
    """In-memory span store: one list entry per call of a traced function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, name, start, end, parent, kept arguments]
        self._local = threading.local()  # each thread nests its own spans

    def call(self, name, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [len(self.spans), name, 0.0, 0.0, stack[-1] if stack else None,
                (args, kwargs) if name in _PARAMS else None]
        self.spans.append(span)
        stack.append(span[0])
        span[2] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def to_records(self) -> list:
        """Spans as JSON-ready dicts, with the computed counts filled in."""
        out = []
        for sid, name, start, end, parent, kept in self.spans:
            rec = {"id": sid, "name": name, "start": start, "end": end,
                   "parent": parent, "run_id": self.run_id}
            if kept is not None:
                rec["attrs"] = _attrs(name, *kept)
            out.append(rec)
        return out

    def write(self, path) -> None:
        Path(path).write_text(json.dumps({"run_id": self.run_id,
                                          "spans": self.to_records()}))


def install(recorder: Recorder) -> list:
    """Replace every traced name with a recording wrapper.

    Returns the span names whose target could not be found (an empty list
    when the program still has every name the benchmark traces).
    """
    missing = []
    for name, (module, attr_path) in TRACED.items():
        owner = importlib.import_module(module)
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(name)
            continue
        setattr(owner, attr, recorder.wrap(name, fn))
    return missing


def _layer_idle_count(gates, noise, n: int) -> int:
    """Qubits that idle for part of a layer, as the noisy backends count them."""
    if not noise.idle_decay or noise.is_noiseless:
        return 0
    busy = [0.0] * n
    for g in gates:
        for q in g.targets:
            busy[q] += noise.duration_of(g)
    layer_t = max(busy) if n else 0.0
    return sum(1 for b in busy if layer_t - b > 1e-18)


def _attrs(name, args, kwargs) -> dict:
    """Work counts computed from a call's arguments (not measured)."""
    a = dict(zip(_PARAMS[name], args), **kwargs)
    if name == "experiment.run_walk":
        return {"backend": a["config"].backend.kind}
    if name == "gates.StepOperator.apply":
        applications = sum(len(gates) for _t, gates in a["self"].layers)
        # gate applications x the 2^V complex amplitude array
        return {"dense_bytes": applications * 2 ** a["state"].n_qubits * _COMPLEX_BYTES}
    if name == "noise.evolve_density":
        n = a["rho"].n_qubits
        applications = sum(len(gates) + _layer_idle_count(gates, a["noise"], n)
                           for _t, gates in a["step"].layers)
        # each channel application reads and writes the 4^n complex array
        return {"density_bytes": applications * 2 * 4 ** n * _COMPLEX_BYTES}
    step = a["step"]
    sampled = sum(sum(1 for g in gates if g.name != "RZ")
                  + _layer_idle_count(gates, a["noise"], step.n_qubits)
                  for _t, gates in step.layers)
    return {"traj_updates": a["n_traj"] * a.get("steps", 1) * sampled}


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans: list) -> dict:
    """span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(s["id"], ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[s["id"]] = (end - start) - covered
    return out


_METRIC_NAMES = {
    "experiment.hellinger_fidelity", "experiment.l1_distance",
    "experiment.selectivity", "experiment.success_probability",
}
_CHANNEL_NAMES = {"noise.noisy_gate_channel", "noise.idle_channel"}

# span name -> the self-time metric it is charged to
_SELF_METRIC = {
    ROOT: "cli.self_s",
    "experiment.load_config": "experiment.load_config.s",
    "experiment.calibrate_rates": "noise.calibrate.s",
    "experiment.execute_point": "experiment.execute_point.self_s",
    "experiment.run_walk": "walks.run_walk.self_s",
    "experiment.emit_report": "experiment.emit_report.s",
    "experiment._record_text": "experiment.persist.s",
    "experiment._atomic_write": "experiment.persist.s",
    "experiment.jsonschema.validate": "experiment.record_validate.s",
    "walks.sample_counts": "states.sample_counts.s",
    "walks.sector_project": "states.sector_project.s",
    "walks.build_step_operator": "gates.build_step.s",
    "noise.evolve_density": "noise.evolve_density.s",
    "noise.trajectory_run": "noise.trajectory_run.s",
    "gates.StepOperator.apply": "gates.step_apply.s",
    "states.Distribution.__post_init__": "states.distribution.s",
    **{n: "metrics.s" for n in _METRIC_NAMES},
}

#: Self-time metrics, in report order; together they partition the run.
SELF_METRICS = [
    "noise.calibrate.s", "noise.channel_build.s", "noise.trajectory_run.s",
    "noise.evolve_density.s", "gates.step_apply.s", "gates.build_step.s",
    "states.sample_counts.s", "states.sector_project.s", "states.distribution.s",
    "walks.run_walk.self_s", "metrics.s", "experiment.load_config.s",
    "experiment.execute_point.self_s", "experiment.record_validate.s",
    "experiment.persist.s", "experiment.emit_report.s", "cli.self_s",
]

COUNT_METRICS = [
    "noise.calibrate.calls", "noise.channel_builds.calibrate",
    "noise.channel_builds.backend", "noise.traj_updates",
    "noise.evolve_density.calls", "noise.density_bytes",
    "gates.step_apply.calls", "gates.dense_bytes", "states.sample_counts.calls",
    "states.distributions", "metrics.calls",
]

BACKENDS = ("statevector", "density", "trajectories")


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics (name -> value) derived from one run's spans."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def under_calibration(s) -> bool:
        parent = s["parent"]
        while parent is not None:
            p = by_id[parent]
            if p["name"] == "experiment.calibrate_rates":
                return True
            parent = p["parent"]
        return False

    m = {k: 0.0 for k in SELF_METRICS}
    m.update({k: 0 for k in COUNT_METRICS})
    m.update({f"walks.run_walk.{b}.s": 0.0 for b in BACKENDS})
    point_spans = []
    for s in spans:
        name, attrs = s["name"], s.get("attrs", {})
        if name in _CHANNEL_NAMES:
            if under_calibration(s):
                m["noise.calibrate.s"] += selfs[s["id"]]
                m["noise.channel_builds.calibrate"] += 1
            else:
                m["noise.channel_build.s"] += selfs[s["id"]]
                m["noise.channel_builds.backend"] += 1
            continue
        if name not in _SELF_METRIC:
            raise ValueError(f"span {name!r} has no layer metric")
        m[_SELF_METRIC[name]] += selfs[s["id"]]
        if name == "experiment.calibrate_rates":
            m["noise.calibrate.calls"] += 1
        elif name == "experiment.execute_point":
            point_spans.append(s)
        elif name == "experiment.run_walk":
            m[f"walks.run_walk.{attrs['backend']}.s"] += s["end"] - s["start"]
        elif name == "noise.trajectory_run":
            m["noise.traj_updates"] += attrs["traj_updates"]
        elif name == "noise.evolve_density":
            m["noise.evolve_density.calls"] += 1
            m["noise.density_bytes"] += attrs["density_bytes"]
        elif name == "gates.StepOperator.apply":
            m["gates.step_apply.calls"] += 1
            m["gates.dense_bytes"] += attrs["dense_bytes"]
        elif name == "walks.sample_counts":
            m["states.sample_counts.calls"] += 1
        elif name == "states.Distribution.__post_init__":
            m["states.distributions"] += 1
        elif name in _METRIC_NAMES:
            m["metrics.calls"] += 1
    kernel_s = m["noise.trajectory_run.s"]
    m["noise.traj_updates_per_s"] = m["noise.traj_updates"] / kernel_s if kernel_s > 0 else 0.0
    if point_spans:
        wall = max(s["end"] for s in point_spans) - min(s["start"] for s in point_spans)
        busy = sum(s["end"] - s["start"] for s in point_spans)
        m["experiment.point_parallelism"] = busy / wall if wall > 0 else 0.0
    else:
        m["experiment.point_parallelism"] = 0.0
    return m


def dominant_layer(metrics: dict) -> tuple:
    """(self-time metric, seconds) of the layer with the most self time."""
    name = max(SELF_METRICS, key=lambda k: metrics[k])
    return name, metrics[name]
