"""The benchmark's workloads: CLI invocations made from a seed, each with
the independent check its answer must pass.

A workload is a list of operations.  An operation is one call of
``brickrank.cli.main(argv)``; its check sees the exit code and the
captured stdout and uses only references from ``checks``.  The fixed
workloads (maxrank, certificate, witness) run the same operations in the
same order whatever the seed, because the program's caches make their
times depend on the order; decide draws its whole query batch from the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
import random
from typing import Callable

import checks

# FIG1 has rank 1 (its only minimal brick is 1x1); FIG2 tiles 3x1.
FIG1 = ((25, 3), (9, 8), (16, 5))
FIG2 = ((3, 8), (4, 5), (7, 3))
FIG1_BASE = (34, 11)
FIG1_SCALES = (1, 2, 3, 5)

# decide: (dimension, brick count) -> numeric queries per batch.  Most
# queries are small.  Three bricks in dimension 3 give the slow end of
# the body, where the 99th percentile falls.  Four bricks in dimension 3
# often close through the packed backend and cost 30-350 ms each; they
# are kept to half a percent, beyond the 99th percentile, because a few
# more of them would decide the batch time alone.
DECIDE_NUMERIC = {(2, 2): 200, (2, 3): 200, (2, 4): 200,
                  (3, 2): 194, (3, 3): 100, (3, 4): 6}
DECIDE_SYMBOLIC = 300
LETTERS = "wxyz"
TT_LETTERS = len(LETTERS)


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str], bool]


def _int_brick(sides) -> str:
    return "x".join(str(s) for s in sides)


# ---------------------------------------------------------------------------
# maxrank


def _maxrank_op(n: int, d: int) -> Op:
    want = str(checks.paper_rank(n, d))
    return Op(["maxrank", str(n), str(d)],
              lambda rc, out: rc == 0 and out.strip() == want)


def maxrank(rng: random.Random, tmp: Path) -> list[Op]:
    cells = [(3, d) for d in range(2, 9)] + [(4, 2), (4, 3)]
    return [_maxrank_op(n, d) for n, d in cells]


# ---------------------------------------------------------------------------
# certificate


def _certificate_op(n: int, path: Path) -> Op:
    def check(rc, out):
        if rc != 0 or not path.exists():
            return False
        return checks.certificate_ok(n, out, path.read_text())

    return Op(["certificate", str(n), "--output", str(path)], check)


def _dedekind_op() -> Op:
    want = str(checks.free_lattice_size(5))
    return Op(["dedekind", "5", "--count"],
              lambda rc, out: rc == 0 and out.strip() == want)


def certificate(rng: random.Random, tmp: Path) -> list[Op]:
    ops = [_dedekind_op()]
    for n in (3, 4):
        # tmp is fresh per round: an existing checkpoint would be
        # resumed, not rebuilt, and measure nothing
        ops.append(_certificate_op(n, tmp / f"certificate_n{n}.jsonl"))
    return ops


# ---------------------------------------------------------------------------
# witness


def _witness_op(target, protos) -> Op:
    def check(rc, out):
        return rc == 0 and checks.witness_json_holds(out, target, protos) is not None

    argv = ["tilable", "--witness", _int_brick(target)]
    return Op(argv + [_int_brick(p) for p in protos], check)


def witness(rng: random.Random, tmp: Path) -> list[Op]:
    jobs = [(tuple(k * s for s in FIG1_BASE), FIG1) for k in FIG1_SCALES]
    jobs.append(((3, 1), FIG2))
    return [_witness_op(t, p) for t, p in jobs]


# ---------------------------------------------------------------------------
# decide


def _decide_op(argv: list[str], reference: Callable[[], bool]) -> Op:
    """The reference answer is computed by the check, after the timed
    region, so it costs neither set-up nor query time."""

    def check(rc, out):
        return (rc, out.strip()) == ((0, "yes") if reference() else (1, "no"))

    return Op(["tilable"] + argv, check)


def _numeric_query(rng: random.Random, d: int, k: int) -> Op:
    """k bricks with sides 2..199 in dimension d; the target is a
    multiple of a random proto (a sure yes) or random, with sides below
    10^6."""
    protos = [tuple(rng.randint(2, 199) for _ in range(d)) for _ in range(k)]
    if rng.random() < 0.5:
        base = rng.choice(protos)
        target = tuple(s * rng.randint(1, (10**6 - 1) // s) for s in base)
    else:
        target = tuple(rng.randint(1, 10**6 - 1) for _ in range(d))
    return _decide_op(
        [_int_brick(target)] + [_int_brick(p) for p in protos],
        lambda: checks.reference_tilable(target, protos, checks.IntLattice))


def _random_phrase(rng: random.Random, n: int) -> list[tuple[int, ...]]:
    """1-3 random nonempty words over letters 1..n."""
    return [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
            for _ in range(rng.randint(1, 3))]


def _phrase_text(words) -> str:
    return "+".join("".join(LETTERS[l - 1] for l in w) for w in words)


def _symbolic_query(rng: random.Random) -> Op:
    """n 2-4 letters, d 2-3, 2-4 bricks of random phrases; the target
    joins a random proto with random phrases (a sure yes) or is random."""
    n = rng.randint(2, 4)
    d = rng.randint(2, 3)
    protos = [[_random_phrase(rng, n) for _ in range(d)]
              for _ in range(rng.randint(2, 4))]
    if rng.random() < 0.5:
        target = [side + _random_phrase(rng, n) for side in rng.choice(protos)]
    else:
        target = [_random_phrase(rng, n) for _ in range(d)]

    def text(b):
        return "x".join(f"({_phrase_text(s)})" for s in b)

    def tts(b):
        return tuple(checks.truth_table(s, TT_LETTERS) for s in b)

    return _decide_op(
        [text(target)] + [text(p) for p in protos],
        lambda: checks.reference_tilable(tts(target), [tts(p) for p in protos],
                                         checks.TruthTableLattice))


def decide(rng: random.Random, tmp: Path) -> list[Op]:
    kinds = [(d, k) for (d, k), count in DECIDE_NUMERIC.items()
             for _ in range(count)] + [None] * DECIDE_SYMBOLIC
    rng.shuffle(kinds)
    return [_symbolic_query(rng) if kind is None else _numeric_query(rng, *kind)
            for kind in kinds]


WORKLOADS = {
    "maxrank": maxrank,
    "certificate": certificate,
    "witness": witness,
    "decide": decide,
}


def build(name: str, seed: int, round_no: int, tmp: Path) -> list[Op]:
    """The operations of one round.  Each round of a run draws from its
    own stream, so a run of several rounds samples more distinct decide
    queries; the same seed and round always give the same operations."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}:{round_no}"), tmp)
