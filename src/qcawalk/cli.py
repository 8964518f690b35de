"""Command-line interface: run, validate, report, calibrate."""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .experiment import (
    ConfigError,
    OutputDirError,
    emit_report,
    load_config,
    load_records,
    resolve_points,
    resolve_workers,
    run_experiment,
)
from .noise import calibrate_rates
from .walks import ResourceLimitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3


def _cmd_validate(args) -> int:
    try:
        cfg = load_config(args.config)
        resolve_points(cfg)
    except ConfigError as exc:
        print(f"{args.config}: invalid", file=sys.stderr)
        for p in exc.messages:
            print(f"  {p}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.config}: valid (name={cfg['name']!r}, "
          f"{cfg['walk']['variant']} on {cfg['lattice']['kind']})")
    return EXIT_OK


def _cmd_run(args) -> int:
    try:
        workers = resolve_workers(args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        paths = run_experiment(args.config, output_dir=args.output_dir,
                               workers=workers)
    except ConfigError as exc:
        print(f"error: invalid config {args.config}: {'; '.join(exc.messages)}",
              file=sys.stderr)
        return EXIT_CONFIG
    except OutputDirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        records = load_records(args.records_dir)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read run records: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not records:
        print(f"warning: no run records found in {args.records_dir}", file=sys.stderr)
    try:
        paths = emit_report(records, args.output_dir or args.records_dir)
    except OutputDirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    for p in paths:
        print(p)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    kwargs = {}
    if args.coupling is not None:
        from .noise import NoiseModel

        try:
            kwargs["template"] = NoiseModel(coupling=args.coupling)
        except ValueError as exc:
            print(f"error: --coupling: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    result = calibrate_rates(**kwargs)
    if args.json:
        print(json.dumps({
            "noise": result.model.to_dict(),
            "achieved": result.achieved,
            "residuals": result.residuals,
            "ssr": result.ssr,
        }, indent=2, sort_keys=True))
    else:
        print(result.summary())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcawalk",
        description="Quantum walk / walk-search simulator on cycles and tori "
                    "with ideal and noisy backends.",
    )
    parser.add_argument("--version", action="version", version=f"qcawalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--output-dir", default=None, help="override the output directory")
    p_run.add_argument("--workers", default=None,
                       help="concurrent sweep workers, an integer >= 1 "
                            "(default: $QCAWALK_WORKERS or 1)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate",
                           help="check a config and resolve its sweep points without running it")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)

    p_rep = sub.add_parser("report", help="summarise run records into CSV tables")
    p_rep.add_argument("records_dir", help="directory containing run record JSON files")
    p_rep.add_argument("--output-dir", default=None,
                       help="where to write the tables (default: records dir)")
    p_rep.set_defaults(func=_cmd_report)

    p_cal = sub.add_parser("calibrate",
                           help="fit relaxation/dephasing rates to the native gate fidelities")
    p_cal.add_argument("--coupling", type=float, default=None,
                       help="qubit-qubit coupling in rad/s")
    p_cal.add_argument("--json", action="store_true", help="machine-readable output")
    p_cal.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
