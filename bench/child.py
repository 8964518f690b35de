"""One benchmark repetition in a fresh interpreter.

    python3 bench/child.py RESULT_JSON [--run CONFIG OUTDIR] [--trace SPANS_JSON RUN_ID]

Times ``import qcawalk.cli`` (the set-up every CLI call pays) and, with
``--run``, one ``qcawalk run CONFIG --output-dir OUTDIR`` call.  With
``--trace`` the layer boundaries are wrapped first and the spans written to
SPANS_JSON when the run ends.  The measurements go to RESULT_JSON; the
CLI's own output is left on stdout and stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--run", nargs=2, metavar=("CONFIG", "OUTDIR"))
    parser.add_argument("--trace", nargs=2, metavar=("SPANS", "RUN_ID"))
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import qcawalk.cli
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}

    if args.run:
        recorder = None
        cli_main = qcawalk.cli.main
        if args.trace:
            import spans

            recorder = spans.Recorder(args.trace[1])
            result["untraced"] = spans.install(recorder)
            cli_main = recorder.wrap(spans.ROOT, cli_main)
        config, outdir = args.run
        t1 = time.perf_counter()
        code = cli_main(["run", config, "--output-dir", outdir])
        result["run_s"] = time.perf_counter() - t1
        result["exit_code"] = code
        if recorder is not None:
            recorder.write(args.trace[0])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
