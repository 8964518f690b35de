"""Self-tests of the benchmark: generator, output checks, span arithmetic.

    PYTHONPATH=src python -m pytest -q bench

Sizes are tiny; the whole file runs in a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import EXPLICIT_RATES, WORKLOADS, make_config, write_config  # noqa: E402

TINY = {
    "schema_version": 1,
    "name": "tiny",
    "lattice": {"kind": "cycle", "N": 4},
    "walk": {"variant": "search", "steps": 6},
    "shots": 500,
    "seed": 3,
    "backends": ["statevector", "density", "trajectories"],
    "n_trajectories": 400,
    "noise": dict(EXPLICIT_RATES),
    "sweep": {"sizes": [4, 6]},
    "output": {"directory": "results", "formats": ["json", "csv"]},
}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """One in-process ``qcawalk run`` of the tiny config: (cfg, outdir, records)."""
    from qcawalk.cli import main

    tmp = tmp_path_factory.mktemp("tiny")
    cfg_path = tmp / "tiny.json"
    cfg_path.write_text(json.dumps(TINY))
    outdir = tmp / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(outdir)]) == 0
    return TINY, outdir, checks.load_records(outdir)


# -- generator ---------------------------------------------------------------


def test_generator_is_seeded_and_valid(tmp_path):
    from qcawalk.experiment import validate_config

    for name in WORKLOADS:
        a, b, c = make_config(name, 5), make_config(name, 5), make_config(name, 6)
        assert a == b
        assert a["seed"] == 5 and c["seed"] == 6
        assert {k: v for k, v in a.items() if k != "seed"} == \
            {k: v for k, v in c.items() if k != "seed"}
        assert validate_config(a) == []
        assert json.loads(write_config(name, 5, tmp_path).read_text()) == a
    with pytest.raises(ValueError):
        make_config("no_such_workload", 1)


def test_child_env_drops_worker_override(monkeypatch):
    monkeypatch.setenv("QCAWALK_WORKERS", "4")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    env = run.child_env()
    assert "QCAWALK_WORKERS" not in env
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
    assert env["PYTHONPATH"] == str(run.SRC)


def test_benchmark_json_matches_the_program():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        {k: v["why"] for k, v in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {n: run.per_layer_unit(n) for n in run.PER_LAYER}


# -- checks, positive and negative -------------------------------------------


def test_tiny_run_passes_every_check(tiny_run):
    from qcawalk.experiment import resolve_noise, run_record_schema

    cfg, outdir, records = tiny_run
    assert checks.check_files(cfg, outdir, records, run_record_schema()) == []
    assert checks.check_physics(records, resolve_noise(cfg["noise"]), False) == []


def test_missing_csv_fails(tiny_run, tmp_path):
    from qcawalk.experiment import run_record_schema

    cfg, _outdir, records = tiny_run
    problems = checks.check_files(cfg, tmp_path, records[:1], run_record_schema())
    assert any("records for 2 sweep points" in p for p in problems)
    assert any("per_step.csv" in p for p in problems)


def _copy(record):
    return json.loads(json.dumps(record))


def test_swapped_vertices_fail_the_oracle_check(tiny_run):
    record = _copy(tiny_run[2][0])
    probs = record["payload"]["runs"]["statevector"]["per_step"][2]["exact"]["probabilities"]
    a, b = sorted(probs, key=lambda k: probs[k])[-2:]  # two different values
    assert abs(probs[a] - probs[b]) > 1e-6
    probs[a], probs[b] = probs[b], probs[a]
    problems = checks.check_ideal(record)
    assert len(problems) == 1 and "step 2" in problems[0]


def test_shifted_density_leakage_fails(tiny_run):
    from qcawalk.experiment import resolve_noise

    noise = resolve_noise(TINY["noise"])
    record = _copy(tiny_run[2][0])
    record["payload"]["runs"]["density"]["per_step"][3]["leakage"] += 1e-3
    problems = checks.check_leakage(record, noise)
    assert len(problems) == 1 and "density step 3" in problems[0]


def test_trajectory_leakage_outside_five_standard_errors_fails(tiny_run):
    from qcawalk.experiment import resolve_noise

    noise = resolve_noise(TINY["noise"])
    record = _copy(tiny_run[2][0])
    point = record["payload"]["config"]
    p = checks.exact_leakage(point, noise.relaxation_rate, noise.coupling)[4]
    se = (p * (1 - p) / point["n_trajectories"]) ** 0.5
    record["payload"]["runs"]["trajectories"]["per_step"][4]["leakage"] = p + 6 * se
    problems = checks.check_leakage(record, noise)
    assert len(problems) == 1 and "trajectories step 4" in problems[0]


def test_wrong_torus_peak_fails(tiny_run):
    record = _copy(tiny_run[2][0])
    scalars = record["payload"]["metrics"]["scalars"]
    scalars["success_probability"], scalars["hitting_time"] = 0.2762, 2
    assert checks.check_torus_peak(record) == []
    scalars["hitting_time"] = 3
    assert checks.check_torus_peak(record)
    scalars["hitting_time"], scalars["success_probability"] = 2, 0.29
    assert checks.check_torus_peak(record)


def test_payload_digest_ignores_meta_only(tiny_run):
    records = [_copy(r) for r in tiny_run[2]]
    digest = checks.payload_digest(records)
    records[0]["meta"]["created_utc"] = "later"
    assert checks.payload_digest(records) == digest
    records[0]["payload"]["runs"]["density"]["per_step"][1]["leakage"] += 1e-15
    assert checks.payload_digest(records) != digest


def test_check_repetitions_marks_each_failure(tiny_run, tmp_path):
    cfg, outdir, _records = tiny_run
    changed = tmp_path / "changed"
    shutil.copytree(outdir, changed)
    path = sorted(changed.glob("*.json"))[0]
    record = json.loads(path.read_text())
    record["payload"]["metrics"]["scalars"]["hitting_time"] += 1
    path.write_text(json.dumps(record))
    reps = [
        {"label": "ok", "outdir": outdir, "result": {"exit_code": 0}},
        {"label": "crashed", "outdir": tmp_path / "none", "result": None},
        {"label": "refused", "outdir": tmp_path / "none", "result": {"exit_code": 2}},
        {"label": "changed", "outdir": changed, "result": {"exit_code": 0}},
    ]
    problems = run.check_repetitions(cfg, reps)
    assert [r["failed"] for r in reps] == [False, True, True, True]
    assert any("changed: payload differs" in p for p in problems)


# -- span arithmetic -----------------------------------------------------------


def _span(sid, name, start, end, parent=None, **attrs):
    s = {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
    if attrs:
        s["attrs"] = attrs
    return s


def test_self_time_of_nested_and_overlapping_spans():
    nested = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "a1", 2.0, 3.0, 1),
        _span(3, "b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(nested) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    # children on two threads overlap: only their union is subtracted
    overlapping = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "c1", 1.0, 5.0, 0),
        _span(2, "c2", 3.0, 7.0, 0),
    ]
    assert spans.self_times(overlapping)[0] == pytest.approx(4.0)


def test_layer_metrics_attribute_channel_builds_and_partition_the_run():
    trace = [
        _span(0, spans.ROOT, 0.0, 20.0),
        _span(1, "experiment.calibrate_rates", 1.0, 6.0, 0),
        _span(2, "noise.noisy_gate_channel", 2.0, 3.0, 1),
        _span(3, "noise.noisy_gate_channel", 3.0, 5.0, 1),
        _span(4, "experiment.execute_point", 7.0, 19.0, 0),
        _span(5, "experiment.run_walk", 7.5, 15.0, 4, backend="trajectories"),
        _span(6, "noise.trajectory_run", 8.0, 14.0, 5, traj_updates=600),
        _span(7, "noise.idle_channel", 8.5, 9.0, 6),
        _span(8, "states.Distribution.__post_init__", 13.0, 13.5, 6),
        _span(9, "experiment.hellinger_fidelity", 16.0, 17.0, 4),
    ]
    m = spans.layer_metrics(trace)
    assert m["noise.calibrate.s"] == pytest.approx(5.0)  # own 2 s + 3 s of builds
    assert m["noise.channel_builds.calibrate"] == 2
    assert m["noise.channel_builds.backend"] == 1
    assert m["noise.channel_build.s"] == pytest.approx(0.5)
    assert m["noise.trajectory_run.s"] == pytest.approx(5.0)
    assert m["noise.traj_updates_per_s"] == pytest.approx(120.0)
    assert m["walks.run_walk.trajectories.s"] == pytest.approx(7.5)
    assert m["walks.run_walk.self_s"] == pytest.approx(1.5)
    assert m["metrics.calls"] == 1 and m["states.distributions"] == 1
    assert m["experiment.point_parallelism"] == pytest.approx(1.0)
    assert sum(m[k] for k in spans.SELF_METRICS) == pytest.approx(20.0)
    assert spans.dominant_layer(m) == ("noise.calibrate.s", pytest.approx(5.0))


def test_unknown_span_is_an_error():
    with pytest.raises(ValueError):
        spans.layer_metrics([_span(0, "mystery", 0.0, 1.0)])


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    pct, value = run.tail_percentile(list(range(20)))
    assert pct == pytest.approx(50.0) and value == 9
    assert sum(v > value for v in range(20)) == 10


def test_traced_child_records_every_layer(tmp_path):
    cfg = {k: v for k, v in TINY.items() if k != "sweep"}
    cfg["n_trajectories"] = 50
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(cfg))
    result, spans_path = tmp_path / "result.json", tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(result),
         "--run", str(cfg_path), str(tmp_path / "out"),
         "--trace", str(spans_path), "tiny-traced"],
        env=run.child_env(), check=True, timeout=120, capture_output=True)
    measured = json.loads(result.read_text())
    assert measured["exit_code"] == 0 and measured["untraced"] == []
    data = json.loads(spans_path.read_text())
    assert {s["run_id"] for s in data["spans"]} == {"tiny-traced"}
    names = {s["name"] for s in data["spans"]}
    assert {spans.ROOT, "noise.evolve_density", "noise.trajectory_run",
            "gates.StepOperator.apply", "experiment.jsonschema.validate"} <= names
    m = spans.layer_metrics(data["spans"])
    steps = cfg["walk"]["steps"]
    assert m["noise.evolve_density.calls"] == steps
    assert m["gates.step_apply.calls"] == steps
    assert m["noise.traj_updates"] > 0 and m["noise.density_bytes"] > 0
    root = next(s for s in data["spans"] if s["name"] == spans.ROOT)
    total = sum(m[k] for k in spans.SELF_METRICS)
    assert total == pytest.approx(root["end"] - root["start"], rel=1e-9)
