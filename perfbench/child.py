"""One round of one workload, in a fresh interpreter.

brickrank memoizes across calls (certificates per n, the prime list,
the letter truth tables), so a second round in the same process would
time dictionary lookups.  run.py therefore starts this script once per
round.  It imports brickrank from the checkout's ``src``, builds the
round's inputs, optionally installs the tracer, runs every operation
through ``brickrank.cli.main`` with stdout captured, checks the answers
after the timed region, and writes one JSON result to ``--result``.

Exit code 0 means a result was written; anything else means the round
could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path
import resource
import shutil
import sys
import time

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


def _import_program():
    sys.path.insert(0, str(SRC))
    import brickrank
    import brickrank.cli

    # never time an installed copy instead of the checkout's source
    if Path(brickrank.__file__).resolve().parent != SRC / "brickrank":
        raise ImportError(f"brickrank imported from {brickrank.__file__}")
    return brickrank


def _run(cli, argv) -> tuple[int | None, str, float]:
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except (Exception, SystemExit) as e:  # a raised error is a failed op
        print(f"perfbench: {' '.join(argv)[:200]} raised {e!r}",
              file=sys.stderr)
        rc = None
    return rc, out.getvalue(), time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() when the parent started us")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    try:
        brickrank = _import_program()
    except ImportError as e:
        print(f"perfbench: cannot import brickrank from {SRC}: {e}",
              file=sys.stderr)
        return 2
    tmp = OUT / "tmp" / f"{args.workload}-{args.seed}-{args.round}"
    shutil.rmtree(tmp, ignore_errors=True)  # left by a killed round
    tmp.mkdir(parents=True)
    ops = workloads.build(args.workload, args.seed, args.round, tmp)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(brickrank)
    setup_s = time.monotonic() - args.started
    result = {"setup_s": setup_s}

    if not args.setup_only:
        cli = brickrank.cli
        t0 = time.perf_counter()
        runs = [_run(cli, op.argv) for op in ops]
        wall_s = time.perf_counter() - t0
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        failed = sum(rc is None for rc, _, _ in runs)
        wrong = 0
        for op, (rc, out, _) in zip(ops, runs):
            if rc is not None and not op.check(rc, out):
                wrong += 1
                print(f"perfbench: wrong answer from {' '.join(op.argv)[:200]}",
                      file=sys.stderr)
        result.update(
            wall_s=wall_s,
            peak_rss_mb=peak_kb / 1024,
            op_s=[dt for _, _, dt in runs],
            attempted=len(ops),
            failed=failed + wrong,
            wrong=wrong,
        )
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}"
                               f"-{args.round}.jsonl")
    shutil.rmtree(tmp, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
