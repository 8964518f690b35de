import csv
import json
import math
from pathlib import Path

import jsonschema
import pytest

from qcawalk.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, main
from qcawalk.experiment import (
    ConfigError,
    emit_report,
    execute_point,
    load_config,
    load_records,
    payload_text,
    resolve_noise,
    resolve_points,
    run_experiment,
    run_record_schema,
    validate_config,
)


DEMO_CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def minimal_config(**overrides):
    cfg = {
        "schema_version": 1,
        "name": "minimal",
        "lattice": {"kind": "cycle", "N": 4},
        "walk": {"variant": "walk", "steps": 3, "init": {"kind": "single", "site": 0}},
        "shots": 1000,
        "seed": 7,
        "backends": ["statevector"],
        "output": {"directory": "results", "formats": ["json"]},
    }
    cfg.update(overrides)
    return cfg


# (id, config overrides, sweep size named in the error): values the
# schema admits but no sweep point can run
_UNEXPRESSIBLE = [
    ("site", {"walk": {"variant": "walk", "steps": 1,
                       "init": {"kind": "single", "site": 9}}}, 4),
    ("marked", {"walk": {"variant": "search", "steps": 1, "marked": 5},
                "sweep": {"sizes": [6, 4]}}, 4),
    ("odd_sweep_size", {"sweep": {"sizes": [6, 7]}}, 7),
    ("size_below_4", {"lattice": {"kind": "torus", "N": 2}}, 2),
    ("literal_init_size", {"lattice": {"kind": "cycle", "N": 6},
                           "walk": {"variant": "search", "steps": 1,
                                    "initializer_mode": "literal"}}, 6),
    ("float_n_trajectories",
     {"backends": ["statevector", "trajectories"], "n_trajectories": 40.0}, 4),
    ("float_steps", {"walk": {"variant": "walk", "steps": 2.0}}, 4),
    ("float_site", {"walk": {"variant": "walk", "steps": 1,
                             "init": {"kind": "single", "site": 1.0}}}, 4),
    ("float_shots", {"shots": 1000.0}, 4),
    ("int64_overflow_shots", {"shots": 2**63}, 4),
]


def _record_with_empty(key: str) -> str:
    """A real run record whose payload ``key`` is replaced by {}."""
    point, = resolve_points(load_config(minimal_config()))
    record = execute_point(point, None)
    record["payload"][key] = {}
    return json.dumps(record)


def _search_record_without(scalar: str) -> str:
    """A real search record whose ``scalar`` is missing from its scalars."""
    point, = resolve_points(load_config(minimal_config(
        walk={"variant": "search", "steps": 2})))
    record = execute_point(point, None)
    del record["payload"]["metrics"]["scalars"][scalar]
    return json.dumps(record)


class TestConfigValidation:
    def test_minimal_config_valid(self):
        assert validate_config(minimal_config()) == []

    def test_unknown_key_rejected(self):
        problems = validate_config(minimal_config(extra_knob=1))
        assert problems and "extra_knob" in problems[0]

    def test_nested_unknown_key_rejected(self):
        cfg = minimal_config()
        cfg["lattice"]["shape"] = "weird"
        assert validate_config(cfg)

    def test_bad_backend_rejected(self):
        problems = validate_config(minimal_config(backends=["gpu"]))
        assert problems

    def test_duplicate_sweep_sizes_rejected(self):
        # a fit through one distinct size would be written with r_squared 1
        problems = validate_config(minimal_config(sweep={"sizes": [4, 4]}))
        assert len(problems) == 1 and problems[0].startswith("sweep/sizes: ")

    def test_load_raises_config_error(self):
        with pytest.raises(ConfigError):
            load_config(minimal_config(seed=-1))

    def test_defaults_applied(self):
        cfg = load_config({
            "schema_version": 1,
            "lattice": {"kind": "torus", "N": 4},
            "walk": {"marked": 3},
        })
        assert cfg["walk"]["steps"] == 20  # torus default horizon
        assert cfg["walk"]["variant"] == "search"
        assert cfg["walk"]["init"]["kind"] == "search_uniform"
        assert cfg["shots"] == 10000
        cyc = load_config({
            "schema_version": 1,
            "lattice": {"kind": "cycle", "N": 8},
            "walk": {},
        })
        assert cyc["walk"]["steps"] == 50  # cycle default horizon
        assert cyc["walk"]["variant"] == "walk"

    def test_search_default_marked_vertices(self, tmp_path):
        paths = run_experiment({
            "schema_version": 1,
            "name": "defaults",
            "lattice": {"kind": "cycle", "N": 8},
            "walk": {"variant": "search", "steps": 2},
            "shots": 100,
            "output": {"directory": str(tmp_path), "formats": ["json"]},
        }, output_dir=tmp_path)
        rec = json.loads(Path(paths[0]).read_text())
        assert rec["payload"]["config"]["walk"]["marked"] == 2


class TestRunExperiment:
    def test_minimal_run_has_all_steps(self, tmp_path):
        paths = run_experiment(minimal_config(), output_dir=tmp_path)
        assert len(paths) == 1
        rec = json.loads(paths[0].read_text())
        per_step = rec["payload"]["runs"]["statevector"]["per_step"]
        assert len(per_step) == 4  # steps + 1 records
        for step in per_step:
            assert abs(sum(step["exact"]["probabilities"].values()) - 1) < 1e-9
            assert step["empirical"]["shots"] == 1000

    def test_record_validates_against_shipped_schema(self, tmp_path):
        paths = run_experiment(minimal_config(), output_dir=tmp_path)
        record = json.loads(paths[0].read_text())
        jsonschema.validate(record, run_record_schema())

    def test_zero_ideal_peak_records_null_degraded_ratio(self):
        # a 0-step search started off the marked vertex has ideal peak 0,
        # so the noisy-to-ideal ratio is undefined and recorded as null
        cfg = load_config(minimal_config(
            backends=["statevector", "density"],
            noise={"relaxation_rate": 3.5e4, "dephasing_rate": 3e-3},
            walk={"variant": "search", "steps": 0, "marked": 2,
                  "init": {"kind": "single", "site": 0}},
        ))
        point, = resolve_points(cfg)
        record = execute_point(point, resolve_noise(cfg["noise"]))
        scalars = record["payload"]["metrics"]["scalars"]
        assert scalars["success_probability"] == 0.0
        assert scalars["degraded_ratio_density"] is None
        jsonschema.validate(record, run_record_schema())
        assert '"degraded_ratio_density": null' in payload_text(record)

    def test_infinite_selectivity_recorded_as_null(self, tmp_path):
        # a 0-step search started off the marked vertex has P(marked) = 0,
        # so its selectivity is -inf, which JSON cannot hold: the record
        # says null, and the report reads it back as an empty cell
        cfg = minimal_config(walk={"variant": "search", "steps": 0, "marked": 2,
                                   "init": {"kind": "single", "site": 0}})
        path, = run_experiment(cfg, output_dir=tmp_path)

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        record = json.loads(path.read_text(), parse_constant=reject)
        series = {s["name"]: s["values"] for s in record["payload"]["metrics"]["series"]}
        assert series["selectivity"] == [None]
        assert series["marked_probability"] == [0.0]
        jsonschema.validate(record, run_record_schema())
        emit_report(load_records(tmp_path), tmp_path / "report")
        rows = (tmp_path / "report" / "per_step.csv").read_text().splitlines()
        assert [r.split(",", 1)[1] for r in rows if ",selectivity," in r] == [
            "statevector,selectivity,0,"]

    def test_non_finite_number_is_never_written(self):
        with pytest.raises(ValueError):
            payload_text({"payload": {"value": math.inf}})

    def test_byte_identical_payloads(self, tmp_path):
        cfg = minimal_config(
            backends=["statevector", "trajectories"], n_trajectories=200,
            noise={"relaxation_rate": 3e4, "dephasing_rate": 1e3},
            walk={"variant": "search", "steps": 3, "marked": 2},
        )
        a = run_experiment(cfg, output_dir=tmp_path / "a")
        b = run_experiment(cfg, output_dir=tmp_path / "b")
        ra = json.loads(Path(a[0]).read_text())
        rb = json.loads(Path(b[0]).read_text())
        assert payload_text(ra) == payload_text(rb)

    def test_records_validated_before_any_is_written(self, tmp_path, monkeypatch):
        import qcawalk.experiment as experiment

        def execute(point, noise):
            record = execute_point(point, noise)
            if point["point_index"] == 1:
                del record["payload"]["metrics"]
            return record

        monkeypatch.setattr(experiment, "execute_point", execute)
        out = tmp_path / "out"
        with pytest.raises(jsonschema.ValidationError) as info:
            run_experiment(minimal_config(sweep={"sizes": [4, 6, 8]}), output_dir=out)
        assert list(info.value.absolute_path) == [1, "payload"]
        assert list(tmp_path.rglob("*.json")) == []

    def test_sweep_produces_one_record_per_size(self, tmp_path):
        cfg = minimal_config(sweep={"sizes": [4, 6, 8]})
        paths = run_experiment(cfg, output_dir=tmp_path)
        assert len(paths) == 3
        sizes = [json.loads(p.read_text())["payload"]["config"]["lattice"]["N"]
                 for p in paths]
        assert sizes == [4, 6, 8]

    def test_workers_do_not_change_results(self, tmp_path):
        cfg = minimal_config(sweep={"sizes": [4, 6]})
        seq = run_experiment(cfg, output_dir=tmp_path / "seq", workers=1)
        par = run_experiment(cfg, output_dir=tmp_path / "par", workers=2)
        for a, b in zip(seq, par):
            pa = payload_text(json.loads(Path(a).read_text()))
            pb = payload_text(json.loads(Path(b).read_text()))
            assert pa == pb

    @pytest.mark.parametrize("workers", [0, -2, "two", True, 2.7])
    def test_bad_worker_count_rejected(self, tmp_path, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(minimal_config(), output_dir=tmp_path, workers=workers)
        assert list(tmp_path.iterdir()) == []

    def test_noisy_run_emits_comparison_series(self, tmp_path):
        cfg = minimal_config(
            backends=["statevector", "density"],
            noise={"relaxation_rate": 3e4, "dephasing_rate": 1e3},
        )
        paths = run_experiment(cfg, output_dir=tmp_path)
        rec = json.loads(paths[0].read_text())
        names = {s["name"] for s in rec["payload"]["metrics"]["series"]}
        assert {"hellinger_fidelity", "l1_distance", "leakage"} <= names
        series = {s["name"]: s for s in rec["payload"]["metrics"]["series"]
                  if s["name"] == "hellinger_fidelity"}
        assert len(series["hellinger_fidelity"]["values"]) == 4


class TestEmitReport:
    def test_per_step_csv_shape(self, tmp_path):
        cfg = minimal_config(
            backends=["statevector", "density"],
            noise={"relaxation_rate": 3e4, "dephasing_rate": 1e3},
            output={"directory": str(tmp_path), "formats": ["json", "csv"]},
        )
        run_experiment(cfg, output_dir=tmp_path)
        lines = (tmp_path / "per_step.csv").read_text().strip().splitlines()
        assert lines[0] == "run,source,metric,step,value"
        body = [l.split(",") for l in lines[1:]]
        fid_rows = [r for r in body if r[2] == "hellinger_fidelity"]
        assert len(fid_rows) == 4  # steps + 1 rows for the metric

    def test_sweep_csv_and_fits(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "name": "sweep",
            "lattice": {"kind": "cycle", "N": 4},
            "walk": {"variant": "search", "steps": 12},
            "shots": 200,
            "seed": 3,
            "backends": ["statevector"],
            "sweep": {"sizes": [4, 8]},
            "output": {"directory": str(tmp_path), "formats": ["json", "csv"]},
        }
        run_experiment(cfg, output_dir=tmp_path)
        sweep_lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert sweep_lines[0].startswith("name,N,")
        assert len(sweep_lines) == 3  # header + one row per size
        fits = (tmp_path / "fits.csv").read_text()
        assert "hitting_time_linear,slope" in fits
        assert "success_probability_inverse,coefficient" in fits

    def test_report_keeps_experiments_apart(self, tmp_path):
        # a torus search and a cycle sweep in one directory: one row per
        # (name, N), and the cycles are fitted alone, as their own run did
        search = {"variant": "search", "steps": 3}
        cycles = minimal_config(name="cycles, small", walk=search, sweep={"sizes": [4, 8]},
                                output={"directory": "results", "formats": ["json", "csv"]})
        torus = minimal_config(name="torus", lattice={"kind": "torus", "N": 4}, walk=search)
        run_experiment(cycles, output_dir=tmp_path / "cycles")
        for cfg in (cycles, torus):
            run_experiment(cfg, output_dir=tmp_path / "both")
        emit_report(load_records(tmp_path / "both"), tmp_path / "report")

        def table(path):
            return list(csv.reader(path.read_text().splitlines()))

        sweep = table(tmp_path / "report" / "sweep.csv")
        assert sweep[0][:2] == ["name", "N"]
        assert [row[:2] for row in sweep[1:]] == [["cycles, small", "4"],
                                                  ["cycles, small", "8"], ["torus", "4"]]
        fits = table(tmp_path / "report" / "fits.csv")
        assert fits[0] == ["name", "fit", "parameter", "value"]
        assert fits[1:] == table(tmp_path / "cycles" / "fits.csv")[1:]
        assert {row[0] for row in fits[1:]} == {"cycles, small"}

    def test_file_that_is_not_json_is_named(self, tmp_path):
        (tmp_path / "run.json").write_text("{not json")
        with pytest.raises(ValueError, match="run.json is not JSON") as info:
            load_records(tmp_path)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)

    def test_report_reproduces_run_tables(self, tmp_path):
        # N=16 sorts before N=4 by file name; the report still lists the
        # points in sweep order, as the run did
        cfg = minimal_config(sweep={"sizes": [4, 16]}, walk={"variant": "search", "steps": 3},
                             output={"directory": "results", "formats": ["json", "csv"]})
        paths = run_experiment(cfg, output_dir=tmp_path / "run")
        assert [p.name for p in sorted(paths)] == ["minimal_N16_p1.json", "minimal_N4_p0.json"]
        written = emit_report(load_records(tmp_path / "run"), tmp_path / "report")
        names = ["per_step.csv", "sweep.csv", "fits.csv", "summary.txt"]
        assert sorted(p.name for p in written) == sorted(names)
        for name in names:
            assert (tmp_path / "report" / name).read_bytes() == \
                (tmp_path / "run" / name).read_bytes(), name

    def test_report_from_directory(self, tmp_path):
        run_experiment(minimal_config(), output_dir=tmp_path)
        emit_report(load_records(tmp_path), tmp_path / "report")
        assert (tmp_path / "report" / "per_step.csv").exists()
        assert (tmp_path / "report" / "summary.txt").exists()


class TestCli:
    def _write(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_validate_ok(self, tmp_path, capsys):
        rc = main(["validate", self._write(tmp_path, minimal_config())])
        assert rc == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_validate_rejects_with_diagnostics(self, tmp_path, capsys):
        rc = main(["validate", self._write(tmp_path, minimal_config(bogus=1))])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bogus" in err

    def test_run_and_report(self, tmp_path, capsys):
        cfg = minimal_config(output={"directory": str(tmp_path / "out"),
                                     "formats": ["json", "csv"]})
        rc = main(["run", self._write(tmp_path, cfg)])
        assert rc == EXIT_OK
        rc = main(["report", str(tmp_path / "out")])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("record", [None, "{not json", '{"payload": {}}',
                                        _record_with_empty("metrics"),
                                        _record_with_empty("config"),
                                        _search_record_without("hitting_time")],
                             ids=["missing_dir", "not_json", "invalid_record",
                                  "empty_metrics", "empty_config",
                                  "search_without_hitting_time"])
    def test_report_unreadable_records_exit_code(self, tmp_path, capsys, record):
        # one error line, exit 2, and nothing created: no directory, no tables
        records = tmp_path / "records"
        if record is not None:
            records.mkdir()
            (records / "run.json").write_text(record)
        rc = main(["report", str(records)])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if record is not None:
            what = "a valid run record" if "payload" in record else "JSON"
            assert f"run.json is not {what}" in lines[0]
        want = [] if record is None else ["records", "run.json"]
        assert sorted(p.name for p in tmp_path.rglob("*")) == want

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_run_output_dir_not_a_directory(self, tmp_path, capsys, monkeypatch, below):
        # named in one line, before calibration and before any sweep point runs
        import qcawalk.experiment as experiment

        def never(*_args):
            raise AssertionError("ran past the output-directory check")

        monkeypatch.setattr(experiment, "resolve_noise", never)
        monkeypatch.setattr(experiment, "execute_point", never)
        blocker = tmp_path / "afile"
        blocker.write_text("")
        out = blocker / "sub" if below else blocker
        rc = main(["run", self._write(tmp_path, minimal_config(noise="calibrate")),
                   "--output-dir", str(out)])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0] == f"error: output directory {out}: {blocker} is not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]

    def test_report_output_dir_not_a_directory(self, tmp_path, capsys):
        run_experiment(minimal_config(), output_dir=tmp_path / "records")
        blocker = tmp_path / "afile"
        blocker.write_text("")
        rc = main(["report", str(tmp_path / "records"), "--output-dir", str(blocker)])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot create output directory {blocker}: ")
        assert blocker.read_text() == ""

    def test_report_empty_directory_warns(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path)])
        assert rc == EXIT_OK
        assert "no run records found" in capsys.readouterr().err

    def test_run_resource_error_exit_code(self, tmp_path):
        cfg = minimal_config(
            lattice={"kind": "torus", "N": 64},
            walk={"variant": "search", "steps": 1},
            backends=["density"],
            noise={"relaxation_rate": 1e4, "dephasing_rate": 1e3},
        )
        rc = main(["run", self._write(tmp_path, cfg), "--output-dir", str(tmp_path)])
        assert rc == EXIT_RESOURCE

    def test_run_trajectory_ensemble_bound_exit_code(self, tmp_path, capsys):
        # 5 sector rows x 10^9 trajectories x 16 B is 80 GB: refused with one
        # line before the ensemble is allocated and before any record is written
        out = tmp_path / "out"
        cfg = minimal_config(backends=["trajectories"], n_trajectories=10**9,
                             noise={"relaxation_rate": 1e4})
        rc = main(["run", self._write(tmp_path, cfg), "--output-dir", str(out)])
        assert rc == EXIT_RESOURCE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "trajectories backend needs 80000000000 bytes" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_formats_without_json_rejected(self, tmp_path, capsys, command):
        # run records are always written, so a config must list them
        out = tmp_path / "out"
        cfg = minimal_config(output={"directory": str(out), "formats": ["csv"]})
        assert main([command, self._write(tmp_path, cfg)]) == EXIT_CONFIG
        assert "output/formats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_duplicate_sweep_sizes_exit_code(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = minimal_config(sweep={"sizes": [4, 8, 4]},
                             output={"directory": str(out), "formats": ["json", "csv"]})
        assert main([command, self._write(tmp_path, cfg)]) == EXIT_CONFIG
        assert "sweep/sizes" in capsys.readouterr().err
        assert not out.exists()

    def test_run_invalid_config_exit_code(self, tmp_path):
        rc = main(["run", self._write(tmp_path, minimal_config(seed=-4))])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["run", "validate"])
    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not_json"])
    def test_unreadable_config_exit_code(self, tmp_path, capsys, command, text):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        rc = main([command, str(path), *(["--output-dir", str(tmp_path)]
                                         if command == "run" else [])])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read config")

    @pytest.mark.parametrize("command,overrides,size", [
        pytest.param(command, overrides, size,
                     id=case if command == "run" else f"validate_{case}")
        for command in ("run", "validate")
        for case, overrides, size in _UNEXPRESSIBLE
    ])
    def test_run_unexpressible_config_fails_fast(self, tmp_path, capsys, monkeypatch,
                                                 command, overrides, size):
        # rejected before calibration and before any sweep point runs, by
        # `run` and `validate` alike
        import qcawalk.experiment as experiment

        def never(*_args):
            raise AssertionError("ran past config resolution")

        monkeypatch.setattr(experiment, "resolve_noise", never)
        monkeypatch.setattr(experiment, "execute_point", never)
        out = tmp_path / "out"
        cfg = minimal_config(noise="calibrate", **overrides)
        argv = [command, self._write(tmp_path, cfg)]
        rc = main(argv + ["--output-dir", str(out)] if command == "run" else argv)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        # `validate` heads its problem list with "<path>: invalid"
        assert len(err) == (1 if command == "run" else 2)
        assert f"N={size}" in err[-1]
        assert not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("env,flag", [
        ("two", None), ("0", None), (None, "two"), (None, "0"), (None, "-3"),
    ], ids=["env_not_integer", "env_zero", "flag_not_integer", "flag_zero",
            "flag_negative"])
    def test_run_bad_worker_count_fails_fast(self, tmp_path, capsys, monkeypatch,
                                             env, flag):
        # rejected before calibration and before any sweep point runs
        import qcawalk.experiment as experiment

        def never(*_args):
            raise AssertionError("ran past the worker-count check")

        monkeypatch.setattr(experiment, "resolve_noise", never)
        monkeypatch.setattr(experiment, "execute_point", never)
        if env is None:
            monkeypatch.delenv(experiment.WORKERS_ENV, raising=False)
        else:
            monkeypatch.setenv(experiment.WORKERS_ENV, env)
        out = tmp_path / "out"
        argv = ["run", self._write(tmp_path, minimal_config(noise="calibrate")),
                "--output-dir", str(out)]
        if flag is not None:
            argv += ["--workers", flag]
        rc = main(argv)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert repr(env if flag is None else flag) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_non_finite_noise_rejected(self, tmp_path, capsys, monkeypatch, command):
        # Python's json parses NaN, and the schema's "minimum" lets it through
        import qcawalk.experiment as experiment

        def never(*_args):
            raise AssertionError("ran past config validation")

        monkeypatch.setattr(experiment, "execute_point", never)
        cfg = minimal_config(backends=["density"], noise={"relaxation_rate": float("nan")})
        assert main([command, self._write(tmp_path, cfg)]) == EXIT_CONFIG
        err = [line for line in capsys.readouterr().err.splitlines()
               if "relaxation_rate" in line]
        assert len(err) == 1 and "finite" in err[0]

    @pytest.mark.parametrize("args,name", [
        pytest.param(["--coupling=nan"], "--coupling", id="nan"),
        pytest.param(["--coupling=-5"], "--coupling", id="-5"),
    ])
    def test_calibrate_bad_coupling(self, capsys, args, name):
        # each bad argument exits 2 with one line naming it, no traceback
        rc = main(["calibrate"] + args)
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and name in err[0]

    @pytest.mark.parametrize("config", sorted(DEMO_CONFIGS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_demo_config_validates(self, config, capsys):
        assert main(["validate", str(config)]) == EXIT_OK

    def test_calibrate_json_output(self, capsys, calibration):
        rc = main(["calibrate", "--json"])
        assert rc == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["noise"] == calibration.model.to_dict()
        assert "achieved" in data
        assert type(calibration.model.relaxation_rate) is float
        assert type(calibration.model.dephasing_rate) is float
