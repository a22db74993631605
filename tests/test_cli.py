import argparse
import json
from pathlib import Path
import resource
import subprocess
import sys
import time

import pytest

import brickrank.cli as cli
import brickrank.dedekind
import brickrank.engine
import brickrank.witness
from brickrank.archetypes import FactViolation
from brickrank.witness import Placement, verify_witness, witness_from_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_only_the_standard_library():
    """Every run pays for what the CLI imports, and a third-party array
    library once took most of its start-up time."""
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys; before = set(sys.modules); "
             f"sys.path.insert(0, {src!r}); import brickrank.cli; "
             "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
             "print(sorted(new - sys.stdlib_module_names - {'brickrank'}))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n")


def test_minimal_set_inline(capsys):
    code, out, _ = run(capsys, "minimal-set", "25x3", "9x8", "16x5")
    assert code == 0
    assert out == "1x1\nrank 1\n"


def test_minimal_set_rotation(capsys):
    code, out, _ = run(capsys, "minimal-set", "2x3x7", "3x7x2", "7x2x3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "rank 15"
    assert len(lines) == 16


def test_minimal_set_singleton(capsys):
    code, out, _ = run(capsys, "minimal-set", "5x5")
    assert code == 0
    assert out == "5x5\nrank 1\n"


def test_minimal_set_json(capsys):
    code, out, _ = run(capsys, "minimal-set", "25x3", "9x8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == len(doc["minimal"])


def test_minimal_set_input_file_lines(capsys, tmp_path):
    f = tmp_path / "protos.txt"
    f.write_text("25x3\n9x8\n16x5\n")
    code, out, _ = run(capsys, "minimal-set", "--input", str(f))
    assert code == 0
    assert out == "1x1\nrank 1\n"


def test_minimal_set_input_file_json(capsys, tmp_path):
    f = tmp_path / "protos.json"
    f.write_text('["25x3", "9x8", "16x5"]')
    code, out, _ = run(capsys, "minimal-set", "--input", str(f))
    assert code == 0
    assert out == "1x1\nrank 1\n"


def test_minimal_set_missing_input_file(capsys, tmp_path):
    code, out, err = run(capsys, "minimal-set", "--input",
                         str(tmp_path / "absent.txt"))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_minimal_set_malformed_json_input(capsys, tmp_path):
    f = tmp_path / "protos.json"
    f.write_text('["25x3", "9x8"')
    code, out, err = run(capsys, "minimal-set", "--input", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_minimal_set_deeply_nested_json_input_exits_2(capsys, tmp_path):
    f = tmp_path / "deep.json"
    f.write_text("[" * 200_000)
    code, out, err = run(capsys, "minimal-set", "--input", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read")


def test_minimal_set_symbolic(capsys):
    code, out, _ = run(capsys, "minimal-set", "(w)x(w)", "(x)x(x)")
    assert code == 0
    assert "(wx)x(w+x)" in out.splitlines()


def test_minimal_set_closure_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(brickrank.engine, "_CLOSURE_CAP", 10)
    code, out, err = run(capsys, "minimal-set", "2x3x7", "3x7x2", "7x2x3")
    assert (code, out) == (3, "")
    assert err.startswith("guard: ")


def _sum_of_letters(letters):
    return "(" + "+".join(f"w{l}" for l in letters) + ")"


WIDE = _sum_of_letters(range(1, 22))


@pytest.mark.parametrize("argv", [
    ("minimal-set", f"{WIDE}x(w)", "(w)x(w2)"),
    ("tilable", "(w)x(w)", f"{WIDE}x(w)", "(w)x(w2)"),
    # 21 letters in all, though no brick has more than 11
    ("tilable", "(w)x(w)", f"{_sum_of_letters(range(1, 12))}x(w)",
     f"(w)x{_sum_of_letters(range(12, 22))}"),
])
def test_too_many_letters_exit_3(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("guard:") and "letters" in err


def test_minimal_set_parse_error(capsys):
    code, _, err = run(capsys, "minimal-set", "25y3")
    assert code == 2
    assert "error" in err


def test_decimal_literal_above_the_bound_exits_2(capsys):
    code, out, err = run(capsys, "minimal-set", "1000000000001")
    assert (code, out) == (2, "")
    assert err == ("error: decimal literal exceeds the factorization bound "
                   "1000000000000; write it in factored form p^e*... "
                   "in '1000000000001'\n")
    assert run(capsys, "minimal-set", "1000000000000")[:2] == (
        0, "1000000000000\nrank 1\n")


def test_minimal_set_empty(capsys):
    code, _, err = run(capsys, "minimal-set")
    assert code == 2


def test_tilable_yes_no(capsys):
    code, out, _ = run(capsys, "tilable", "3x1", "3x8", "4x5", "7x3")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "tilable", "3x3", "2x2")
    assert (code, out) == (1, "no\n")


def test_tilable_json(capsys):
    code, out, _ = run(capsys, "tilable", "34x11", "25x3", "9x8", "16x5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"tilable": True}


@pytest.mark.parametrize("argv", [
    ["3x1", "3x8", "4x5x1"],
    ["3x1x1", "3x8", "4x5"],
    ["3x1", "3x8", "(w)x(x)"],
    ["(w)x(x)", "3x8", "4x5"],
])
@pytest.mark.parametrize("opts", [[], ["--format", "text"], ["--format", "json"]])
def test_tilable_mixed_shapes_exit_2(capsys, argv, opts):
    code, out, err = run(capsys, "tilable", *argv, *opts)
    assert (code, out) == (2, "")
    assert err.startswith("error: mixed")


def test_tilable_decides_without_minimal_set(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("minimal_set called")

    monkeypatch.setattr(cli, "minimal_set", refuse)
    code, out, _ = run(capsys, "tilable", "3x1", "3x8", "4x5", "7x3")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "tilable", "3x3", "2x2", "4x6")
    assert (code, out) == (1, "no\n")


def test_tilable_witness_output(capsys):
    code, out, _ = run(capsys, "tilable", "3x1", "3x8", "4x5", "7x3",
                       "--witness")
    assert code == 0
    w = witness_from_json(out)
    assert verify_witness(w)


def test_failed_witness_check_maps_to_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(brickrank.witness, "verify_witness",
                        lambda *args, **kwargs: False)
    code, out, err = run(capsys, "tilable", "3x1", "3x8", "4x5", "7x3",
                         "--witness")
    assert (code, out) == (4, "")
    assert "internal error" in err


def test_tilable_witness_beyond_any_grid(capsys):
    code, out, _ = run(capsys, "tilable", "--witness",
                       "4000x4000", "4000x4000")
    assert code == 0
    assert len(witness_from_json(out).placements) == 1
    code, out, _ = run(capsys, "tilable", "--witness", "2^70x3", "2^70x1")
    assert code == 0
    assert verify_witness(witness_from_json(out))


def test_tilable_witness_offsets_beyond_int64(capsys):
    code, out, _ = run(capsys, "tilable", "--witness", "2^71x1", "2^70x1")
    assert code == 0
    w = witness_from_json(out)
    assert verify_witness(w)
    assert max(p.offset[0] for p in w.placements) == 2**70


@pytest.mark.parametrize("argv", [
    ("1000000x1000000", "1x1"),       # a proto grid of 10^12 copies
    ("2^70x1", "3x1", "5x1"),         # a segment tiling of 2^70 by 3 and 5
])
def test_tilable_witness_placement_guard(capsys, argv):
    code, out, err = run(capsys, "tilable", "--witness", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("guard:") and "placements" in err


def test_tilable_witness_bezout_of_huge_coprime_sides(capsys):
    # 2^5000 = 1 * 2^5000 + 0 * 3^5000, found without one frame per Euclid step
    code, out, _ = run(capsys, "tilable", "--witness",
                       "2^5000x1", "2^5000x1", "3^5000x1")
    assert code == 0
    w = witness_from_json(out)
    assert w.placements == (Placement(0, (0, 0), 1),)
    assert verify_witness(w)


@pytest.mark.parametrize("argv", [
    ("2^20001x1", "2^20000x1"),            # offsets past the text limit
    ("5x1", "2^20000x1", "3^20000x1"),     # a 9,543-digit proto side
])
def test_tilable_witness_side_guard(capsys, argv):
    code, out, err = run(capsys, "tilable", "--witness", *argv)
    assert (code, out) == (3, "")
    assert err.startswith("guard:") and "digits" in err


def _run_limited(*argv):
    """cli.main(argv) in a child under a 1.5 GB address space limit, so a
    missing guard fails rather than exhausting memory: the exit code,
    stdout, stderr and seconds taken."""
    src = str(Path(cli.__file__).resolve().parents[1])
    child = (f"import contextlib, io, json, sys, time; sys.path.insert(0, {src!r})\n"
             "import brickrank.cli\n"
             "out, err = io.StringIO(), io.StringIO()\n"
             "start = time.perf_counter()\n"
             "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
             f"    code = brickrank.cli.main({list(argv)!r})\n"
             "print(json.dumps([code, out.getvalue(), err.getvalue(),\n"
             "                  time.perf_counter() - start]))\n")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2)

    done = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=60, preexec_fn=limit)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_tilable_witness_side_guard_expands_nothing():
    """A side of 2^(10^11) would take 12.5 GB to expand; the guard reads
    its size from the factors."""
    code, out, err, seconds = _run_limited(
        "tilable", "--witness", "2^100000000000x1", "2^100000000000x1")
    assert (code, out) == (3, "")
    assert err.startswith("guard:") and "digits" in err
    assert seconds < 0.5


def test_ordering_sides_expands_no_long_quotient():
    """2^16785921 and 3^10590737 agree to 5e-8 in their logs, so only
    their exact values order them: two 5,053,066-digit integers.  The
    bound reads their size from the logs and refuses at once."""
    code, out, err, seconds = _run_limited(
        "minimal-set", "2^16785921", "3^10590737")
    assert (code, out) == (3, "")
    assert err.startswith("guard:") and "digits" in err
    assert seconds < 0.5


def test_tilable_witness_symbolic_refused_before_closure(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("minimal_set called")

    monkeypatch.setattr(cli, "minimal_set", refuse)
    many = "(" + "+".join(f"w{l}" for l in range(1, 21)) + ")"
    code, out, err = run(capsys, "tilable", "--witness", "(w)x(w)",
                         f"{many}x(w)", "(w)x(w2)", "(w3w4)x(w5+w6)")
    assert (code, out) == (2, "")
    assert "numeric" in err


def test_tilable_witness_negative(capsys):
    code, out, _ = run(capsys, "tilable", "3x3", "2x2", "--witness")
    assert code == 1
    assert out == "no\n"


def test_tilable_witness_symbolic_rejected(capsys):
    code, _, err = run(capsys, "tilable", "(w)x(w)", "(w)x(w)", "--witness")
    assert code == 2


def test_maxrank_single(capsys):
    code, out, _ = run(capsys, "maxrank", "3", "2")
    assert (code, out) == (0, "18\n")
    code, out, _ = run(capsys, "maxrank", "1", "5")
    assert (code, out) == (0, "1\n")


def test_maxrank_progress_lines(capsys):
    code, out, err = run(capsys, "maxrank", "4", "3")
    assert (code, out) == (0, "578\n")
    assert err.splitlines() == ["direction 1/3: 15 bricks",
                                "direction 2/3: 166 bricks",
                                "direction 3/3: 578 bricks"]


def test_maxrank_single_json(capsys):
    code, out, _ = run(capsys, "maxrank", "2", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "d": 3, "maxrank": 5}


def test_maxrank_table_csv(capsys):
    code, out, _ = run(capsys, "maxrank", "2", "4", "--table",
                       "--format", "csv")
    assert code == 0
    assert out == "n,d=2,d=3,d=4\n1,1,1,1\n2,4,5,6\n"


def test_maxrank_table_text_and_json(capsys):
    code, out, _ = run(capsys, "maxrank", "2", "3", "--table")
    assert code == 0
    assert out.splitlines()[0].split() == ["n", "d=2", "d=3"]
    code, out, _ = run(capsys, "maxrank", "2", "3", "--table",
                       "--format", "json")
    assert json.loads(out)["rows"][1]["values"] == [4, 5]


def test_maxrank_missing_args(capsys):
    code, _, err = run(capsys, "maxrank")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--table"],
    ["3", "--table"],
    ["3", "1", "--table"],
    ["3", "1", "--table", "--format", "json"],
])
def test_maxrank_table_needs_its_corner(capsys, argv):
    # N D name the table's last row and column; columns start at d = 2
    code, out, err = run(capsys, "maxrank", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_maxrank_table_corner_meets_the_guard(capsys):
    code, out, err = run(capsys, "maxrank", "5", "3", "--table")
    assert (code, out) == (3, "")
    assert err.startswith("guard:")


@pytest.mark.parametrize("argv", [
    ["maxrank", "0", "2"],
    ["maxrank", "2", "0"],
    ["maxrank", "2", "0", "--table"],
    ["certificate", "0"],
    ["dedekind", "0"],
    ["poly", "0"],
    ["poly", "two"],
    ["poly", "2", "--d-max", "-1"],
    ["maxrank", "0", "3", "--table"],
    ["maxrank", "0", "3", "--table", "--format", "json"],
])
def test_out_of_range_integer_argument_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument" in err and "Traceback" not in err


# every option each subcommand takes; a new switch must be added here
OPTIONS = {
    "minimal-set": {"--input", "--format"},
    "tilable": {"--input", "--witness", "--format"},
    "maxrank": {"--table", "--allow-big", "--format"},
    "dedekind": {"--count", "--enumerate", "--dual", "--format"},
    "certificate": {"--output", "--resume", "--allow-big", "--format"},
    "poly": {"--d-max", "--allow-big", "--format"},
}


def test_subcommand_options_are_pinned(capsys):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {o for a in p._actions for o in a.option_strings}
           - {"-h", "--help"} for name, p in sub.choices.items()}
    assert got == OPTIONS
    for argv in (["minimal-set", "--no-prune", "2x3"],
                 ["tilable", "--no-prune", "3x1", "3x1"]):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        assert "unrecognized arguments: --no-prune" in capsys.readouterr().err


def test_maxrank_guard(capsys):
    code, _, err = run(capsys, "maxrank", "5", "3")
    assert code == 3
    assert "guard" in err


def test_guard_env_var_does_not_override(capsys, monkeypatch):
    """--allow-big is the one way past a guard."""
    monkeypatch.setenv("BRICKRANK_GUARD_OVERRIDE", "1")
    code, out, err = run(capsys, "maxrank", "1", "9")
    assert (code, out) == (3, "")
    assert err.startswith("guard: ")
    assert run(capsys, "maxrank", "1", "9", "--allow-big")[:2] == (0, "1\n")


def test_dedekind_count(capsys, monkeypatch):
    def refuse(n):
        raise AssertionError("phrases built")

    monkeypatch.setattr(cli, "enumerate_lattice", refuse)
    code, out, _ = run(capsys, "dedekind", "3")
    assert (code, out) == (0, "18\n")
    code, out, _ = run(capsys, "dedekind", "5", "--count")
    assert (code, out) == (0, "7579\n")
    code, out, _ = run(capsys, "dedekind", "3", "--count", "--format", "json")
    assert json.loads(out) == {"n": 3, "count": 18}


def test_dedekind_enumerate(capsys):
    code, out, _ = run(capsys, "dedekind", "1", "--enumerate")
    assert (code, out) == (0, "w\n")
    code, out, _ = run(capsys, "dedekind", "2", "--enumerate")
    assert out.splitlines() == ["w", "x", "wx", "w+x"]


def test_dedekind_dual(capsys):
    code, out, _ = run(capsys, "dedekind", "4", "--dual", "w+xy")
    assert (code, out) == (0, "wx+wy\n")


def test_dedekind_dual_parse_error(capsys):
    code, _, err = run(capsys, "dedekind", "4", "--dual", "w+")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["3", "--dual", "w9"],
    ["2", "--dual", "wxyz"],
    ["2", "--dual", "wxyz", "--format", "json"],
])
def test_dedekind_dual_refuses_letters_beyond_n(capsys, argv):
    # a phrase with a letter above N is not in L[N]
    code, out, err = run(capsys, "dedekind", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_dedekind_guard(capsys):
    code, _, err = run(capsys, "dedekind", "7")
    assert code == 3


def test_dedekind_enumerate_guard(capsys, monkeypatch):
    """n = 6 is counted, but listing it would decode 7.8M phrases."""
    def refuse(*args):
        raise AssertionError("phrase decoded")

    monkeypatch.setattr(brickrank.dedekind, "phrase_from_tt", refuse)
    code, out, err = run(capsys, "dedekind", "6", "--enumerate")
    assert (code, out) == (3, "")
    assert err.startswith("guard:") and "n <= 5" in err


def test_pseudoprime_base_exits_2(capsys):
    """318665857834031151167461 = 399165290221 * 798330580441 passes every
    Miller-Rabin base, so it is refused, not taken for a prime; so is
    every base above it, composite or not."""
    for small, big in (("399165290221", "318665857834031151167461"),
                       ("1287836182261", "3317044064679887385961981")):
        protos = (f"{small}^1x1", f"{big}^1x1")
        for argv in (("tilable", "1x1") + protos,
                     ("tilable", "--witness", "1x1") + protos,
                     ("minimal-set",) + protos):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: base {big} is too large")


CERTIFICATE_3_JSON = """{
  "n": 3,
  "max_true_dim": 2,
  "levels": [
    3,
    7,
    18,
    36
  ],
  "members": 36,
  "archetypes": [
    "[w; ]",
    "[x; ]",
    "[y; ]",
    "[w+x; (wx)^1]",
    "[w+y; (wy)^1]",
    "[x+y; (xy)^1]",
    "[w+x+y; (wxy)^1]",
    "[w+x+y; (w+xy)^1, (wx+wy)^1]",
    "[w+x+y; (x+wy)^1, (wx+xy)^1]",
    "[w+x+y; (y+wx)^1, (wy+xy)^1]",
    "[w+x+y; (wx+wy+xy)^2]"
  ],
  "polynomial": "3 + 1/2*(d + 7*d^2)",
  "checkpoint": "PATH"
}
"""


def test_outputs_pinned(capsys, tmp_path):
    """The exact bytes of every view, so a change of layout shows."""
    for argv, want in [
        (("minimal-set", "2x3", "3x2", "--format", "json"),
         '{\n  "minimal": [\n    "1x6",\n    "2x3",\n    "3x2",\n'
         '    "6x1"\n  ],\n  "rank": 4\n}\n'),
        (("maxrank", "2", "3", "--format", "json"),
         '{"n": 2, "d": 3, "maxrank": 5}\n'),
        (("maxrank", "3", "4", "--format", "csv"), "n,d,maxrank\n3,4,61\n"),
        (("maxrank", "2", "3", "--table"),
         "n  d=2  d=3\n1    1    1\n2    4    5\n"),
        (("maxrank", "2", "3", "--table", "--format", "json"),
         '{\n  "columns": [\n    2,\n    3\n  ],\n  "rows": [\n    {\n'
         '      "n": 1,\n      "values": [\n        1,\n        1\n      ]\n'
         '    },\n    {\n      "n": 2,\n      "values": [\n        4,\n'
         '        5\n      ]\n    }\n  ]\n}\n'),
        (("dedekind", "3", "--format", "json"), '{"n": 3, "count": 18}\n'),
        (("dedekind", "2", "--enumerate"), "w\nx\nwx\nw+x\n"),
        (("dedekind", "3", "--dual", "w+xy", "--format", "json"),
         '{"phrase": "w+xy", "dual": "wx+wy"}\n'),
        (("dedekind", "5", "--dual", "w+xy", "--format", "json"),
         '{"phrase": "w1+w2w3", "dual": "w1w2+w1w3"}\n'),
        (("dedekind", "2", "--enumerate", "--format", "json"),
         '{\n  "n": 2,\n  "count": 4,\n  "phrases": [\n    "w",\n'
         '    "x",\n    "wx",\n    "w+x"\n  ]\n}\n'),
        (("poly", "3", "--format", "csv"),
         "d,0,1,2,3,4,5,6,7,8,9,10,11\n"
         "p_3,3,7,18,36,61,93,132,178,231,291,358,432\n"),
        (("poly", "3", "--format", "json"),
         '{\n  "n": 3,\n  "polynomial": "3 + 1/2*(d + 7*d^2)",\n'
         '  "coefficients": [\n    "3",\n    "1/2",\n    "7/2"\n  ],\n'
         '  "values": {\n    "0": "3",\n    "1": "7",\n    "2": "18",\n'
         '    "3": "36",\n    "4": "61",\n    "5": "93",\n    "6": "132",\n'
         '    "7": "178",\n    "8": "231",\n    "9": "291",\n'
         '    "10": "358",\n    "11": "432"\n  }\n}\n'),
    ]:
        assert run(capsys, *argv)[:2] == (0, want), argv
    for argv, want in [
        (("tilable", "3x1", "3x8", "4x5", "7x3", "--format", "json"),
         (0, '{"tilable": true}\n')),
        (("tilable", "2x2", "3x1", "--format", "json"),
         (1, '{"tilable": false}\n')),
    ]:
        assert run(capsys, *argv)[:2] == want, argv
    path = str(tmp_path / "n3.jsonl")
    code, out, _ = run(capsys, "certificate", "3", "--output", path,
                       "--format", "json")
    assert (code, out.replace(path, "PATH")) == (0, CERTIFICATE_3_JSON)


def _format_choices(name):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[name]._actions
                if "--format" in a.option_strings)


@pytest.mark.parametrize("argv", [
    ["minimal-set", "2x3", "3x2"],
    ["tilable", "3x1", "3x8", "4x5", "7x3"],
    ["maxrank", "2", "3"],
    ["maxrank", "2", "3", "--table"],
    ["dedekind", "3"],
    ["dedekind", "2", "--enumerate"],
    ["dedekind", "3", "--dual", "w+xy"],
    ["certificate", "2"],
    ["poly", "2", "--d-max", "3"],
])
def test_every_format_of_every_subcommand(capsys, tmp_path, argv):
    """Each --format choice a parser offers prints a well-formed view."""
    if argv[0] == "certificate":
        argv = argv + ["--output", str(tmp_path / "cert.jsonl")]
    for fmt in _format_choices(argv[0]):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0 and out.endswith("\n"), (argv, fmt)
        if fmt == "json":
            json.loads(out)
        elif fmt == "csv":
            widths = {len(row.split(",")) for row in out.splitlines()}
            assert len(widths) == 1 and widths != {1}, (argv, out)


def test_certificate_text_and_files(capsys, tmp_path):
    out_path = tmp_path / "n3.jsonl"
    code, out, err = run(capsys, "certificate", "3", "--output", str(out_path))
    assert code == 0
    lines = out.splitlines()
    assert "max true dimension 2" in lines
    assert "levels 3 7 18 36" in lines
    docs = [json.loads(line) for line in out_path.read_text().splitlines()]
    assert docs[-1]["complete"] is True
    # level-by-level progress goes to stderr, stdout stays machine-clean
    assert "level" in err


def test_certificate_resume(capsys, tmp_path):
    out_path = tmp_path / "n2.jsonl"
    code, out, _ = run(capsys, "certificate", "2", "--output", str(out_path))
    assert code == 0
    partial = tmp_path / "partial.jsonl"
    partial.write_text(out_path.read_text().splitlines()[0] + "\n")
    code, out, err = run(capsys, "certificate", "2", "--resume", str(partial))
    assert code == 0
    assert "resumed" in err
    assert "max true dimension 1" in out.splitlines()


def test_certificate_resume_of_other_n_exits_2(capsys, tmp_path):
    path = tmp_path / "n2.jsonl"
    assert run(capsys, "certificate", "2", "--output", str(path))[0] == 0
    before = path.read_bytes()
    code, out, err = run(capsys, "certificate", "3", "--resume", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert path.read_bytes() == before


def test_certificate_resume_with_bad_inner_line_exits_2(capsys, tmp_path):
    path = tmp_path / "n3.jsonl"
    assert run(capsys, "certificate", "3", "--output", str(path))[0] == 0
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
    path.write_text("".join(lines))
    before = path.read_bytes()
    code, out, err = run(capsys, "certificate", "3", "--resume", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert path.read_bytes() == before


@pytest.mark.parametrize("bricks", [
    ["(w)", "(w)x(x)x(y)"],  # three sides at level 1
    5,
    ["(w)", "3x4"],
    ["(w)", "(wz)"],  # z is letter 4, beyond n = 3
    ["(w)", "(w)x(q)"],
    [],
], ids=["three-sides", "not-a-list", "numeric", "letter-beyond-n",
        "bad-letter", "empty"])
def test_certificate_resume_of_a_bad_level_exits_2(capsys, tmp_path, bricks):
    path = tmp_path / "n3.jsonl"
    assert run(capsys, "certificate", "3", "--output", str(path))[0] == 0
    lines = path.read_text().splitlines(keepends=True)[:2]
    doc = json.loads(lines[1])
    doc["bricks"] = bricks
    path.write_text(lines[0] + json.dumps(doc) + "\n")
    before = path.read_bytes()
    code, out, err = run(capsys, "certificate", "3", "--resume", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert path.read_bytes() == before


def _duplicate_level_1_brick(docs):
    docs[1]["bricks"].append(docs[1]["bricks"][0])
    return docs


def _cut_level_1_to_5(docs):
    docs[1]["bricks"] = docs[1]["bricks"][:5]
    return docs[:3]


def _drop_last_level_2_brick(docs):
    docs[2]["bricks"].pop()
    return docs[:3]


def _unbalance_a_level_2_brick(docs):
    docs[2]["bricks"][0] = "(w)x(w+x)"
    return docs


def _mislabel_level_1(docs):
    docs[1]["dimension"] = 2
    return docs


# well-formed levels that would grow wrong ones: levels 3 8 18 36, 3 5 18 36
# and 3 7 17 35 with exit 0 (true: 3 7 18 36); each is refused before any
# level is appended
@pytest.mark.parametrize("corrupt, error", [
    (_duplicate_level_1_brick, "level 1 repeats a brick"),
    (_cut_level_1_to_5, "level 1 holds 5 bricks, its archetypes count 7"),
    # caught once level 3 is grown
    (_drop_last_level_2_brick,
     "level 2 holds 17 bricks, its archetypes count 18"),
    (_unbalance_a_level_2_brick,
     "level 2 brick '(w)x(w+x)' is not balanced"),
    (_mislabel_level_1, "has levels out of order"),
], ids=["duplicate", "short-level-1", "short-level-2", "unbalanced",
        "out-of-order"])
def test_certificate_resume_of_wrong_levels_exits_2(capsys, tmp_path,
                                                    corrupt, error):
    path = tmp_path / "n3.jsonl"
    assert run(capsys, "certificate", "3", "--output", str(path))[0] == 0
    docs = corrupt([json.loads(line) for line in path.read_text().splitlines()])
    path.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    before = path.read_bytes()
    code, out, err = run(capsys, "certificate", "3", "--resume", str(path))
    assert (code, out) == (2, "")
    assert "error: " in err and error in err
    assert path.read_bytes() == before


def _add_a_level_1_brick_beyond_n(docs):
    docs[1]["bricks"].append("(wz)")
    return docs


def _drop_a_cube(docs):
    docs[0]["bricks"].pop()
    return docs


# every level is read and checked before a cut last line is truncated
@pytest.mark.parametrize("corrupt, error", [
    (_unbalance_a_level_2_brick,
     "level 2 brick '(w)x(w+x)' is not balanced"),
    (_duplicate_level_1_brick, "level 1 repeats a brick"),
    (_add_a_level_1_brick_beyond_n,
     "level 1 brick '(wz)' uses a letter beyond 3"),
    (_drop_a_cube, "level 0 is not the 3 letter cubes"),
], ids=["unbalanced", "duplicate", "letter-beyond-n", "other-cubes"])
def test_certificate_resume_with_a_cut_line_checks_levels_first(
        capsys, tmp_path, corrupt, error):
    path = tmp_path / "n3.jsonl"
    assert run(capsys, "certificate", "3", "--output", str(path))[0] == 0
    docs = corrupt([json.loads(line) for line in path.read_text().splitlines()])
    lines = [json.dumps(doc) + "\n" for doc in docs[:3]]
    path.write_text("".join(lines) + json.dumps(docs[3])[:40])
    before = path.read_bytes()
    code, out, err = run(capsys, "certificate", "3", "--resume", str(path))
    assert (code, out) == (2, "")
    assert "error: " in err and error in err
    assert path.read_bytes() == before


def test_certificate_resume_of_deeply_nested_line_exits_2(capsys, tmp_path):
    path = tmp_path / "n3.jsonl"
    assert run(capsys, "certificate", "3", "--output", str(path))[0] == 0
    path.write_text("[" * 200_000 + "\n" + path.read_text())
    before = path.read_bytes()
    code, out, err = run(capsys, "certificate", "3", "--resume", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "bad line 1" in err
    assert path.read_bytes() == before


def test_certificate_resume_of_other_cubes_exits_2(capsys, tmp_path):
    # a level 0 short of the letter cubes would grow wrong levels
    path = tmp_path / "n3.jsonl"
    path.write_text('{"n": 3, "dimension": 0, "bricks": ["(w)", "(x)"]}\n')
    before = path.read_bytes()
    code, out, err = run(capsys, "certificate", "3", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "level 0" in err
    assert path.read_bytes() == before


def test_certificate_resume_of_a_directory_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "certificate", "2", "--resume", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_certificate_output_in_missing_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "x.jsonl"
    code, out, err = run(capsys, "certificate", "2", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert not path.parent.exists()


def test_certificate_json_matches_polynomial(capsys, tmp_path):
    code, out, _ = run(capsys, "certificate", "4", "--output",
                       str(tmp_path / "n4.jsonl"), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_true_dim"] == 3
    assert doc["levels"] == [4, 15, 166, 578, 1372]
    assert doc["polynomial"] == "4 + 1/6*(-112*d + 57*d^2 + 121*d^3)"


def test_certificate_guard(capsys, tmp_path):
    code, _, err = run(capsys, "certificate", "5", "--output",
                       str(tmp_path / "n5.jsonl"))
    assert code == 3


def test_poly_text(capsys):
    code, out, _ = run(capsys, "poly", "3")
    assert code == 0
    assert out.splitlines() == [
        "3 + 1/2*(d + 7*d^2)",
        "3 7 18 36 61 93 132 178 231 291 358 432",
    ]


def test_poly_n1_and_eval(capsys):
    code, out, _ = run(capsys, "poly", "1")
    assert out.splitlines()[0] == "1"
    code, out, _ = run(capsys, "poly", "2", "--d-max", "7")
    assert out.splitlines()[1].split()[-1] == "9"


def test_poly_csv_and_json(capsys):
    code, out, _ = run(capsys, "poly", "2", "--d-max", "3", "--format", "csv")
    assert out == "d,0,1,2,3\np_2,2,3,4,5\n"
    code, out, _ = run(capsys, "poly", "4", "--format", "json")
    doc = json.loads(out)
    assert doc["values"]["11"] == "27790"


def test_fact_violation_maps_to_exit_4(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise FactViolation("forced for the exit-code test")

    monkeypatch.setattr(cli, "certificate", boom)
    code, _, err = run(capsys, "certificate", "2")
    assert code == 4
    assert "consistency" in err
