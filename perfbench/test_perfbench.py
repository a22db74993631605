"""Tests of the benchmark's own checks, inputs and tracer.

    python3 -m pytest -q perfbench

The checks must accept right answers and refuse wrong ones without
consulting brickrank; only the tracer test imports the program, in a
subprocess so that its wrappers do not leak into this one.
"""

import json
from pathlib import Path
import subprocess
import sys

import pytest

import checks
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# A signed tiling of 3x1 by FIG2 = {3x8, 4x5, 7x3}: two 3x8 and three
# 4x5 stacked into a 7-wide clump, minus five 7x3.
FIG2_WITNESS = [
    (0, (0, 0), 1), (0, (0, 8), 1),
    (1, (3, 1), 1), (1, (3, 6), 1), (1, (3, 11), 1),
    (2, (0, 1), -1), (2, (0, 4), -1), (2, (0, 7), -1), (2, (0, 10), -1),
    (2, (0, 13), -1),
]


def _witness_json(target, protos, placements) -> str:
    return json.dumps({
        "target": "x".join(map(str, target)),
        "protos": ["x".join(map(str, p)) for p in protos],
        "placements": [{"proto": i, "offset": list(o), "coeff": c}
                       for i, o, c in placements],
    })


# ---------------------------------------------------------------------------
# corner identity


def test_corner_identity_accepts_fig2_witness():
    assert checks.corner_identity_holds((3, 1), workloads.FIG2, FIG2_WITNESS)


def test_corner_identity_accepts_parallel_packing():
    packing = [(0, (3 * i, 2 * j), 1) for i in range(4) for j in range(5)]
    assert checks.corner_identity_holds((12, 10), [(3, 2)], packing)


@pytest.mark.parametrize("index", range(len(FIG2_WITNESS)))
def test_corner_identity_rejects_one_flipped_coefficient(index):
    bad = list(FIG2_WITNESS)
    proto, offset, coeff = bad[index]
    bad[index] = (proto, offset, -coeff)
    assert not checks.corner_identity_holds((3, 1), workloads.FIG2, bad)


def test_corner_identity_rejects_shift_and_bad_index():
    shifted = [(0, (1, 0), 1)] + FIG2_WITNESS[1:]
    assert not checks.corner_identity_holds((3, 1), workloads.FIG2, shifted)
    bad_proto = [(3, (0, 0), 1)] + FIG2_WITNESS[1:]
    assert not checks.corner_identity_holds((3, 1), workloads.FIG2, bad_proto)


def test_witness_op_refuses_mutated_json():
    op = workloads._witness_op((3, 1), workloads.FIG2)
    good = _witness_json((3, 1), workloads.FIG2, FIG2_WITNESS)
    assert op.check(0, good)
    flipped = [(0, (0, 0), -1)] + FIG2_WITNESS[1:]
    assert not op.check(0, _witness_json((3, 1), workloads.FIG2, flipped))
    assert not op.check(0, _witness_json((3, 2), workloads.FIG2, FIG2_WITNESS))
    assert not op.check(0, good[:-5])
    assert not op.check(1, good)


# ---------------------------------------------------------------------------
# reference closure


def test_reference_fig1_has_rank_one():
    assert checks.reference_minimal(workloads.FIG1, checks.IntLattice) == {(1, 1)}


def test_reference_rotation_example_has_fifteen_bricks():
    rot = [(2, 3, 7), (3, 7, 2), (7, 2, 3)]
    live = checks.reference_minimal(rot, checks.IntLattice)
    assert len(live) == 15
    assert {(1, 1, 42), (42, 1, 1), (1, 6, 21)} <= live


def test_reference_decides_both_ways():
    assert checks.reference_tilable((3, 1), workloads.FIG2, checks.IntLattice)
    evens = [(4, 6), (6, 4)]
    assert checks.reference_minimal(evens, checks.IntLattice) == \
        {(4, 6), (6, 4), (2, 12), (12, 2)}
    assert checks.reference_tilable((2, 12), evens, checks.IntLattice)
    assert not checks.reference_tilable((6, 6), evens, checks.IntLattice)


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3)])
def test_reference_letter_cubes_follow_paper_polynomial(n, d):
    cubes = [(checks.truth_table([(i,)], n),) * d for i in range(1, n + 1)]
    live = checks.reference_minimal(cubes, checks.TruthTableLattice)
    assert len(live) == checks.paper_rank(n, d)


def test_truth_table_orders_like_implication():
    wx = checks.truth_table([(1, 2)], 4)
    w = checks.truth_table([(1,)], 4)
    w_or_y = checks.truth_table([(1,), (3,)], 4)
    lat = checks.TruthTableLattice
    assert lat.leq(wx, w) and lat.leq(w, w_or_y) and not lat.leq(w, wx)


def test_decide_op_refuses_flipped_answer():
    op = workloads._decide_op(["3x1", "3x8", "4x5", "7x3"], lambda: True)
    assert op.check(0, "yes\n")
    assert not op.check(1, "no\n")
    assert not op.check(0, "no\n")


# ---------------------------------------------------------------------------
# published numbers


def test_paper_polynomials_match_published_tables():
    assert [checks.paper_rank(3, d) for d in range(2, 9)] == \
        [18, 36, 61, 93, 132, 178, 231]
    assert [checks.paper_rank(4, d) for d in range(0, 6)] == \
        [4, 15, 166, 578, 1372, 2669]
    assert [checks.free_lattice_size(n) for n in (3, 4, 5)] == [18, 166, 7579]


def test_poly_text():
    assert checks.poly_text_is_paper("3 + 1/2*(d + 7*d^2)", 3)
    assert checks.poly_text_is_paper(
        "4 + 1/6*(-112*d + 57*d^2 + 121*d^3)", 4)
    assert not checks.poly_text_is_paper("3 + 1/2*(d + 7*d^3)", 3)
    assert not checks.poly_text_is_paper("__import__('os')", 3)


def _certificate_files(n):
    levels = [checks.paper_rank(n, d) for d in range(n + 1)]
    poly = {3: "3 + 1/2*(d + 7*d^2)",
            4: "4 + 1/6*(-112*d + 57*d^2 + 121*d^3)"}[n]
    stdout = (f"n {n}\nmax true dimension {n - 1}\n"
              f"levels {' '.join(map(str, levels))}\n"
              f"polynomial {poly}\ncheckpoint x\n")
    lines = [json.dumps({"n": n, "dimension": d, "bricks": ["b"] * v})
             for d, v in enumerate(levels)]
    lines.append(json.dumps({"n": n, "complete": True, "levels": levels}))
    return stdout, lines


@pytest.mark.parametrize("n", [3, 4])
def test_certificate_check(n):
    stdout, lines = _certificate_files(n)
    assert checks.certificate_ok(n, stdout, "\n".join(lines) + "\n")
    # a second summary, as resuming a finished file would append
    assert not checks.certificate_ok(n, stdout, "\n".join(lines + lines[-1:]))
    # a level line cut mid-write
    assert not checks.certificate_ok(n, stdout, "\n".join(lines)[:-3])
    off_by_one = stdout.replace(f" {checks.paper_rank(n, 2)} ",
                                f" {checks.paper_rank(n, 2) + 1} ")
    assert not checks.certificate_ok(n, off_by_one, "\n".join(lines))


def test_maxrank_op_refuses_wrong_value():
    op = workloads._maxrank_op(4, 3)
    assert op.check(0, "578\n")
    assert not op.check(0, "577\n")


# ---------------------------------------------------------------------------
# inputs and the metric table


def test_inputs_repeat_per_seed_and_round(tmp_path):
    for name in workloads.WORKLOADS:
        a = [op.argv for op in workloads.build(name, 7, 1, tmp_path)]
        b = [op.argv for op in workloads.build(name, 7, 1, tmp_path)]
        assert a == b and a


def test_decide_batch_makeup(tmp_path):
    ops = workloads.build("decide", 3, 1, tmp_path)
    symbolic = sum("(" in op.argv[1] for op in ops)
    assert len(ops) >= 1000
    assert symbolic == workloads.DECIDE_SYMBOLIC == len(ops) // 4
    assert all(op.argv[0] == "tilable" and "--witness" not in op.argv
               for op in ops)


def test_benchmark_json_matches_run_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_p99_leaves_ten_samples_beyond():
    values = list(range(1200))
    cut = run.p99(values)
    assert sum(v > cut for v in values) >= 10


# ---------------------------------------------------------------------------
# tracer


_TRACE_SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [{src!r}, {here!r}]
import brickrank, brickrank.cli, brickrank.witness, brickrank.engine
import brickrank.archetypes, tracing
tracer = tracing.install(brickrank)
wrapped = [m.__name__ for m, f in [
    (brickrank.witness, "minimal_set"), (brickrank.archetypes, "ext_dir"),
    (brickrank.engine, "gcd_nat"), (brickrank.engine, "ext_dir")]
    if getattr(m, f).__module__ == "tracing"]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = brickrank.cli.main({argv!r})
print(json.dumps({{"rc": rc, "out": out.getvalue(), "wrapped": wrapped,
                  "layers": tracer.layer_metrics(),
                  "spans": tracer.spans}}))
"""


def test_tracer_wraps_imported_names_and_counts():
    argv = ["tilable", "--witness", "3x1", "3x8", "4x5", "7x3"]
    script = _TRACE_SCRIPT.format(src=str(ROOT / "src"), here=str(HERE),
                                  argv=argv)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120, check=True)
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["rc"] == 0
    assert len(doc["wrapped"]) == 4
    m = doc["layers"]
    placements = json.loads(doc["out"])["placements"]
    assert m["cli.calls"] == 1 and m["witness.tile_witness.calls"] == 1
    # once in cli.cmd_tilable and once, traced, in tile_witness
    assert m["engine.minimal_set.calls"] == 2
    assert m["witness_placements"] == len(placements)
    assert m["witness.json_bytes"] == len(doc["out"])
    assert 0 <= m["witness.tile_witness.self_s"] <= m["witness.tile_witness.s"]
    assert m["numlat.ops.calls"] > 0
    spans = {s[0]: s for s in doc["spans"]}
    top = [s for s in spans.values() if s[4] is None]
    assert [s[1] for s in top] == ["cli.main"]
    for sid, name, start, end, parent in spans.values():
        if parent is not None:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
