"""Benchmark of ``qcawalk run``: wall time, set-up time and peak memory of the
real CLI on seeded workload configs, with every output checked against exact
answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Each repetition is one ``qcawalk run`` in a fresh interpreter,
one at a time (a closed loop with a single client); a repetition starts
while it is expected to end within S seconds.  Outputs are checked after
the timed loop.  With ``--trace 1`` one more repetition runs with the layer
boundaries wrapped (see ``spans.py``) and the per-layer metrics are
reported instead of the end-to-end ones; the spans are kept in
``.bench_out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` repetitions, and ``metrics`` (name -> value and
unit).  The lines before it give every metric by name, its sample count and
tail percentile, ``failed_ratio``, the payload digest and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, write_config  # noqa: E402

CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("parallelism"):
        return "ratio"
    return "count"


PER_LAYER = (spans.SELF_METRICS + spans.COUNT_METRICS
             + [f"walks.run_walk.{b}.s" for b in spans.BACKENDS]
             + ["noise.traj_updates_per_s", "experiment.point_parallelism",
                "experiment.record_bytes", "experiment.report_bytes",
                "traced.run_s", "trace_overhead_s"])


#: One thread per numerical library.  On a few shared cores, OpenBLAS's
#: spinning worker threads make a run's wall time follow the host's
#: scheduler: on the density workload they doubled CPU time, bought no
#: speed, and widened the spread of repeated runs.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    """The host environment, less what would change the program's defaults,
    with the numerical libraries held to one thread."""
    env = dict(os.environ)
    env.pop("QCAWALK_WORKERS", None)
    env.update(SINGLE_THREADED)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(result_path: Path, extra: list, env: dict) -> dict | None:
    """Start one child, wait for it, and return its measurements."""
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), *extra]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s: {extra}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"child exited with {proc.returncode}: {extra}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    if result.get("exit_code", 0) != 0:
        print(f"qcawalk run exited with {result['exit_code']}\n{proc.stderr[-2000:]}",
              file=sys.stderr)
    return result


def tail_percentile(values: list):
    """(percentile, value) of the highest percentile with >= 10 samples
    beyond it, or None when there are fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def describe(name: str, values: list, unit: str) -> str:
    tail = tail_percentile(values)
    tail_txt = (f"p{tail[0]:.0f} {tail[1]:.6g} {unit}" if tail
                else "no percentile has 10 samples beyond it")
    return (f"{name:<13} median {statistics.median(values):.6g} {unit}  "
            f"(n={len(values)}; {tail_txt})")


def _cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    """Machine and toolchain facts that the timings depend on.

    Byte counts in the trace are computed from array sizes: the 2^20 state
    (16 MB) and the 8-qubit density matrix (1 MB) may both fit in L3, so
    they say nothing about DRAM bandwidth.
    """
    from importlib.metadata import PackageNotFoundError, version

    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = version(pkg)
        except PackageNotFoundError:
            versions[pkg] = None
    threads = {k: v for k, v in child_env().items()
               if k.endswith("_NUM_THREADS") or k in ("OMP_PROC_BIND", "OMP_PLACES")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "versions": versions,
        "thread_env": threads,
        "git_commit": _git_commit(),
    }


def _output_bytes(outdir: Path) -> tuple:
    records = sum(p.stat().st_size for p in outdir.glob("*.json"))
    reports = sum(p.stat().st_size for p in outdir.iterdir()
                  if p.suffix in (".csv", ".txt"))
    return records, reports


def check_repetitions(cfg: dict, reps: list) -> list:
    """Set ``failed`` on every repetition and return the problems found.

    (a) is checked on every repetition; (b)-(d) on the first that passes
    (a), and (e) by comparing every other payload with that one.
    """
    from qcawalk.experiment import resolve_noise, run_record_schema

    schema = run_record_schema()
    problems = []
    for rep in reps:
        rep["failed"] = True
        if rep["result"] is None or rep["result"].get("exit_code") != 0:
            problems.append(f"{rep['label']}: qcawalk run did not exit with 0")
            continue
        records = checks.load_records(rep["outdir"])
        found = checks.check_files(cfg, rep["outdir"], records, schema)
        problems += [f"{rep['label']}: {p}" for p in found]
        if not found:
            rep["failed"] = False
            rep["digest"] = checks.payload_digest(records)

    first = next((r for r in reps if not r["failed"]), None)
    if first is None:
        return problems
    found = checks.check_physics(checks.load_records(first["outdir"]),
                                 resolve_noise(cfg["noise"]),
                                 torus_peak=cfg["name"] == "torus_search")
    problems += [f"{first['label']}: {p}" for p in found]
    for rep in reps:
        if rep["failed"]:
            continue
        if rep["digest"] != first["digest"]:
            problems.append(f"{rep['label']}: payload differs from {first['label']}")
            rep["failed"] = True
        elif found:
            rep["failed"] = True
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qcawalk" / "cli.py").is_file():
        print(f"error: no qcawalk sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tmp_root / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tmp.mkdir()
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def repetition(label: str, tmp: Path, config_path: Path, env: dict,
               trace: tuple = ()) -> dict:
    """One ``qcawalk run`` child; ``trace`` is (spans path, run id) or empty."""
    outdir = tmp / label.replace(" ", "-")
    extra = ["--run", str(config_path), str(outdir)]
    if trace:
        extra += ["--trace", *map(str, trace)]
    return {"label": label, "outdir": outdir,
            "result": run_child(tmp / f"{outdir.name}.json", extra, env)}


def layer_report(traced: dict, spans_path: Path, untraced_run_s: float,
                 kept: Path, env_facts: dict) -> dict:
    """Per-layer metrics of the traced repetition, printed and returned."""
    data = json.loads(spans_path.read_text())
    layer = spans.layer_metrics(data["spans"])
    layer["experiment.record_bytes"], layer["experiment.report_bytes"] = \
        _output_bytes(traced["outdir"])
    layer["traced.run_s"] = traced["result"]["run_s"]
    layer["trace_overhead_s"] = traced["result"]["run_s"] - untraced_run_s
    kept.parent.mkdir(exist_ok=True)
    kept.write_text(json.dumps({**data, "environment": env_facts, "layer_metrics": layer}))
    metrics = {}
    for name in PER_LAYER:
        unit = per_layer_unit(name)
        metrics[name] = {"value": layer[name], "unit": unit}
        print(f"{name:<34} {layer[name]:.6g} {unit}")
    top, top_s = spans.dominant_layer(layer)
    print(f"dominant layer: {top} {top_s:.6g} s of traced run_s "
          f"{layer['traced.run_s']:.6g} s ({top_s / layer['traced.run_s']:.1%}); "
          f"spans in {kept.relative_to(ROOT)}")
    return metrics


def _run(args, tmp: Path) -> int:
    config_path = write_config(args.workload, args.seed, tmp)
    cfg = json.loads(config_path.read_text())
    env = child_env()

    # warm-up (byte-code and page caches), not counted
    if run_child(tmp / "warmup.json", [], env) is None:
        return 1

    # start a repetition only while it is expected to end within the run
    reps, walls = [], []
    start = time.perf_counter()
    while not reps or (time.perf_counter() - start + statistics.median(walls)
                       <= args.seconds):
        t0 = time.perf_counter()
        reps.append(repetition(f"repetition {len(reps)}", tmp, config_path, env))
        walls.append(time.perf_counter() - t0)
    loop_s = time.perf_counter() - start

    traced = None
    spans_path = tmp / "spans.json"
    if args.trace:
        traced = repetition("traced repetition", tmp, config_path, env,
                            trace=(spans_path, f"{args.workload}-seed{args.seed}-traced"))
    all_reps = reps + ([traced] if traced else [])
    problems = check_repetitions(cfg, all_reps)
    if traced is not None and traced["result"] and traced["result"].get("untraced"):
        problems.append(f"names not traced: {traced['result']['untraced']}")

    env_facts = environment()
    ok = [r for r in reps if not r["failed"]]
    failed = sum(r["failed"] for r in all_reps)
    print(f"qcawalk bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}: {len(reps)} repetitions "
          f"in {loop_s:.1f} s")
    print("env " + json.dumps(env_facts, sort_keys=True))
    for p in problems:
        print(f"check failed: {p}")
    if not ok or (traced is not None and traced["failed"]):
        print("error: no successful repetition to measure", file=sys.stderr)
        return 1

    end_to_end = {name: [r["result"][name] for r in ok] for name in END_TO_END_UNITS}
    for name, values in end_to_end.items():
        print(describe(name, values, END_TO_END_UNITS[name]))
        print("  samples " + " ".join(f"{v:.4g}" for v in values))
    print(f"failed_ratio  {failed}/{len(all_reps)} = {failed / len(all_reps):.6g} ratio")
    print(f"payload_sha256 {ok[0]['digest']}")

    if traced is None:
        metrics = {name: {"value": statistics.median(values), "unit": END_TO_END_UNITS[name]}
                   for name, values in end_to_end.items()}
    else:
        kept = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics = layer_report(traced, spans_path, statistics.median(end_to_end["run_s"]),
                               kept, env_facts)

    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": len(all_reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
