"""brickrank benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; brickrank is imported from its ``src``.
Every round runs in a fresh interpreter (child.py), because the program
memoizes across calls.  A new round starts while less than --seconds
have passed, so the last round may end after it; rounds are never cut.

--trace 0 reports the end-to-end metrics: set-up time (median over at
least SETUP_SAMPLES interpreter starts), wall time and peak RSS per
round (medians over rounds), and the median and 99th-percentile time
per CLI invocation over all rounds.  --trace 1 runs round 1 untraced,
then repeats it traced, and reports the per-layer metrics of tracing.py
(medians over the traced repeats) plus the tracing overhead against the
untraced round.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A wrong answer sets correct to false and the exit code to 1;
a round that cannot run at all (say, no brickrank to import) exits 1
without a result.  ``--workload all`` runs every workload, untraced and
traced unless --trace is given, and prints one labelled line each.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from pathlib import Path
import statistics
import subprocess
import sys
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("maxrank", "certificate", "witness", "decide")
SETUP_SAMPLES = 5
HARD_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}

PER_LAYER = {
    "cli.calls": "count", "cli.self_s": "s",
    "engine.parse_brick.calls": "count", "engine.parse_brick.s": "s",
    "numlat.parse_nat.calls": "count", "numlat.parse_nat.s": "s",
    "engine.minimal_set.calls": "count", "engine.minimal_set.s": "s",
    "engine.is_tilable.s": "s",
    "engine.ext_dir.small.calls": "count", "engine.ext_dir.small.s": "s",
    "engine.ext_dir.large.calls": "count", "engine.ext_dir.large.s": "s",
    "engine.ext_dir.bricks_in": "count", "engine.ext_dir.bricks_out": "count",
    "engine.minimal_elements.calls": "count",
    "engine.minimal_elements.s": "s",
    "engine.minimal_elements.kept_ratio": "ratio",
    "numlat.ops.calls": "count", "numlat.ops.s": "s",
    "dedekind.ops.calls": "count", "dedekind.ops.s": "s",
    "dedekind.reduce_words.calls": "count", "dedekind.reduce_words.s": "s",
    "dedekind.codec.calls": "count", "dedekind.codec.s": "s",
    "dedekind.enumerate_lattice.s": "s",
    "maxrank.geometric_maxrank.s": "s",
    "archetypes.next_minimal_level.s": "s",
    "archetypes.certificate.self_s": "s",
    "witness.tile_witness.calls": "count", "witness.tile_witness.s": "s",
    "witness.tile_witness.self_s": "s",
    "witness.parallel_pack.s": "s",
    "witness.combine_witness.calls": "count",
    "witness.combine_witness.s": "s",
    "witness.verify_witness.calls": "count",
    "witness.verify_witness.s": "s",
    "witness.witness_to_json.s": "s",
    "witness.json_bytes": "bytes",
    "witness.max_abs_coeff": "int",
    "witness_placements": "count",
    "trace.overhead_pct": "%",
}


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, round_no: int, trace: int,
              deadline: float, setup_only: bool = False) -> dict:
    """Start child.py in a fresh interpreter and return its result."""
    OUT.mkdir(exist_ok=True)
    result = OUT / f"result-{os.getpid()}.json"
    result.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, str(HERE / "child.py"), "--workload", workload,
            "--seed", str(seed), "--round", str(round_no),
            "--trace", str(trace), "--result", str(result)]
    if setup_only:
        argv.append("--setup-only")
    try:
        proc = subprocess.run(
            argv + ["--started", repr(time.monotonic())], cwd=ROOT, env=env,
            stdout=subprocess.DEVNULL,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round {round_no} ran past the time limit")
    if proc.returncode != 0 or not result.exists():
        raise RoundFailed(f"round {round_no} exited with {proc.returncode}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(0.99 * len(s)) - 1)]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    # Traced rounds all repeat round 1, so their counts agree exactly and
    # the untraced round 1 is the base for the overhead.
    baseline = run_round(workload, seed, 1, 0, deadline) if trace else None
    rounds: list[dict] = []
    while True:
        t0 = time.monotonic()
        round_no = 1 if trace else len(rounds) + 1
        rounds.append(run_round(workload, seed, round_no, trace, deadline))
        now = time.monotonic()
        if now >= start + seconds or now + (now - t0) > deadline:
            break

    done = rounds + ([baseline] if baseline else [])
    out = {
        "correct": all(r["wrong"] == 0 for r in done),
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
    }
    if trace:
        values = {k: statistics.median(r["layers"][k] for r in rounds)
                  for k in PER_LAYER if k != "trace.overhead_pct"}
        traced_wall = statistics.median(r["wall_s"] for r in rounds)
        values["trace.overhead_pct"] = (
            100 * (traced_wall - baseline["wall_s"]) / baseline["wall_s"])
        units = PER_LAYER
    else:
        setups = [r["setup_s"] for r in rounds]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_round(workload, seed, len(setups) + 1, 0,
                                    deadline, setup_only=True)["setup_s"])
        ops = [dt for r in rounds for dt in r["op_s"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            "query_p50_ms": 1e3 * statistics.median(ops),
            "query_p99_ms": 1e3 * p99(ops),
        }
        units = END_TO_END
    out["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS
                for t in ((0, 1) if args.trace is None else (args.trace,))]
    else:
        jobs = [(args.workload, args.trace or 0)]
    ok = True
    for workload, trace in jobs:
        try:
            result = run(workload, args.seed, args.seconds, trace)
        except RoundFailed as e:
            print(f"perfbench: {workload}: {e}", file=sys.stderr)
            return 1
        ok = ok and result["correct"]
        if args.workload == "all":
            result = {"workload": workload, "trace": trace, **result}
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
