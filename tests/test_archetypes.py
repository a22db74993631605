import dataclasses
import functools
import json
from fractions import Fraction
from itertools import permutations

import pytest

from brickrank import archetypes, dedekind
from brickrank.archetypes import (
    Archetype,
    Certificate,
    FactViolation,
    SymBrick,
    archetype_of,
    certificate,
    check_fact_F4,
    is_balanced,
    lattice_maxrank,
    next_minimal_level,
    placement_count,
    rank_polynomial,
    render_archetype,
    render_polynomial,
    render_symbrick,
    rep_at_level,
    symbrick,
    symbrick_from_rep,
    true_dim,
)
from brickrank.dedekind import Phrase, parse_phrase, phrase_key
from brickrank.engine import GuardExceeded, ext_dir

LEVEL_SIZES = {
    1: [1, 1],
    2: [2, 3, 4],
    3: [3, 7, 18, 36],
    4: [4, 15, 166, 578, 1372],
}

TABLE_10B = {
    1: [1] * 12,
    2: list(range(2, 14)),
    3: [3, 7, 18, 36, 61, 93, 132, 178, 231, 291, 358, 432],
    4: [4, 15, 166, 578, 1372, 2669, 4590, 7256, 10788, 15307, 20934, 27790],
}

POLYNOMIALS = {
    1: (Fraction(1),),
    2: (Fraction(2), Fraction(1)),
    3: (Fraction(3), Fraction(1, 2), Fraction(7, 2)),
    4: (Fraction(4), Fraction(-56, 3), Fraction(19, 2), Fraction(121, 6)),
}

# the certificates of n <= 4, each built once for the whole module
_cert = functools.cache(certificate)


# ---------------------------------------------------------------------------
# symbolic bricks


def test_symbrick_trims_trailing_envelope():
    env = parse_phrase("w+x")
    wx = parse_phrase("wx")
    b = symbrick((wx, env, env), env)
    assert b.prefix == (wx,)
    assert b.envelope == env


def test_symbrick_envelope_must_be_pure_sum():
    with pytest.raises(ValueError):
        symbrick((), parse_phrase("w+xy"))


def test_true_dim_and_balance():
    env = parse_phrase("w+x")
    b = symbrick((parse_phrase("wx"),), env)
    assert true_dim(b) == 1
    assert b.envelope == env
    assert is_balanced(b)
    # a prefix side missing a letter of the envelope is unbalanced
    assert not is_balanced(symbrick((parse_phrase("w"),), env))


def test_rep_round_trip():
    env = parse_phrase("w+x+y")
    b = symbrick((parse_phrase("wxy"), parse_phrase("wx+wy+xy")), env)
    for d in (2, 3, 5):
        rep = rep_at_level(b, d)
        assert rep.dim == d + 1
        assert symbrick_from_rep(rep) == b
    assert render_symbrick(b, 3) == "(wxy)x(wx+wy+xy)x(w+x+y)"


def test_symbolic_bricks_refuse_malformed_input():
    with pytest.raises(ValueError, match="empty alphabet"):
        archetypes._pure_sum([])
    env = parse_phrase("w+x")
    with pytest.raises(ValueError, match="trailing envelope"):
        SymBrick((parse_phrase("wx"), env), env)
    with pytest.raises(ValueError, match="exceeds level 1"):
        rep_at_level(symbrick((parse_phrase("wx"),) * 2, env), 1)
    with pytest.raises(ValueError, match="not a balanced brick"):
        archetype_of(symbrick((parse_phrase("w"),), env))


# ---------------------------------------------------------------------------
# the certificate


def test_certificate_level_sizes():
    for n, sizes in LEVEL_SIZES.items():
        cert = _cert(n)
        assert [len(level) for level in cert.levels] == sizes
        assert cert.max_true_dim == n - 1


# the construction on Phrases, side by side: extend by the envelope, close
# with ext_dir, trim, check balance, sort by prefix length, then prefix
# and envelope by phrase_key


def _oracle_key(b):
    return (len(b.prefix), tuple(map(phrase_key, b.prefix)),
            phrase_key(b.envelope))


def _oracle_next(prev, d):
    out = []
    for rep in ext_dir(d, [rep_at_level(b, d) for b in prev]):
        b = symbrick_from_rep(rep)
        assert is_balanced(b)
        out.append(b)
    return tuple(sorted(out, key=_oracle_key))


def _cubes(n):
    return tuple(SymBrick((), Phrase(((i,),))) for i in range(1, n + 1))


def _oracle_levels(n):
    levels = [_cubes(n)]
    # stop after the first level d > 1 with no brick of true dimension d - 1
    while len(levels) < 2 or max(map(true_dim, levels[-1])) == len(levels) - 1:
        levels.append(_oracle_next(levels[-1], len(levels)))
    return tuple(levels)


def _level_texts(path):
    docs = [json.loads(line) for line in path.read_text().splitlines()]
    return [doc["bricks"] for doc in docs if not doc.get("complete")]


def test_certificate_levels_match_the_phrase_construction(tmp_path):
    for n in (1, 2, 3, 4):
        path = tmp_path / f"n{n}.jsonl"
        oracle = _oracle_levels(n)
        assert certificate(n, checkpoint=str(path)).levels == oracle
        assert _level_texts(path) == [[render_symbrick(b, d) for b in level]
                                      for d, level in enumerate(oracle)]


def test_n5_levels_match_the_phrase_construction():
    # letters w1..w5 render numbered; level 2 holds all 7579 phrases
    oracle = [_cubes(5)]
    level = archetypes._Run(5).read(
        0, [render_symbrick(b, 0, 5) for b in oracle[0]], "the cubes")
    for d in (1, 2):
        oracle.append(_oracle_next(oracle[-1], d))
        level = next_minimal_level(level)
        assert level.symbricks() == oracle[d]
        assert level.texts() == [render_symbrick(b, d, 5) for b in oracle[d]]
    assert len(oracle[2]) == 7579


def test_certificate_decodes_and_encodes_each_side_once(tmp_path, monkeypatch):
    calls = {"phrase_tt": 0, "phrase_from_tt": 0}
    for name in calls:
        def counted(*args, _f=getattr(dedekind, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(dedekind, name, counted)
    cert = certificate(4, checkpoint=str(tmp_path / "n4.jsonl"))
    sides = {s for level in cert.levels for b in level
             for s in b.prefix + (b.envelope,)}
    assert len(sides) == 166
    assert 0 < calls["phrase_tt"] <= len(sides)
    assert 0 < calls["phrase_from_tt"] <= len(sides)


def test_certificate_guard():
    with pytest.raises(GuardExceeded):
        certificate(5)
    with pytest.raises(ValueError):
        certificate(0)


def test_certificate_levels_nest_upward():
    # every level-d brick reappears among the level-(d+1) bricks
    cert = _cert(3)
    for d in range(1, len(cert.levels) - 1):
        assert set(cert.levels[d]) <= set(cert.levels[d + 1])


def test_certificate_checkpoint_and_resume(tmp_path):
    full = tmp_path / "full.jsonl"
    cert = certificate(3, checkpoint=str(full))
    lines = full.read_text().splitlines()
    docs = [json.loads(line) for line in lines]
    assert [d["dimension"] for d in docs[:-1]] == [0, 1, 2, 3]
    assert docs[-1]["complete"] is True
    assert docs[-1]["levels"] == LEVEL_SIZES[3]

    partial = tmp_path / "partial.jsonl"
    partial.write_text("\n".join(lines[:2]) + "\n")
    resumed = certificate(3, checkpoint=str(partial))
    assert resumed.levels == cert.levels
    assert resumed.archetypes == cert.archetypes


def test_certificate_resumes_after_a_cut_write(tmp_path):
    full = tmp_path / "full.jsonl"
    cert = certificate(3, checkpoint=str(full))
    text = full.read_text()
    lines = text.splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:2]) + lines[2][: len(lines[2]) // 2])
    resumed = certificate(3, checkpoint=str(cut))
    assert resumed.levels == cert.levels
    assert resumed.archetypes == cert.archetypes
    assert cut.read_text() == text
    for line in cut.read_text().splitlines():
        json.loads(line)


def test_certificate_resumes_alike_from_every_cut(tmp_path):
    full = tmp_path / "full.jsonl"
    cert = certificate(4, checkpoint=str(full))
    text = full.read_text()
    lines = text.splitlines(keepends=True)
    cuts = ["".join(lines[:k]) for k in range(len(lines) + 1)]
    cuts.append("".join(lines[:3]) + lines[3][:3000])
    for i, head in enumerate(cuts):
        path = tmp_path / f"cut{i}.jsonl"
        path.write_text(head)
        resumed = certificate(4, checkpoint=str(path))
        assert (resumed.levels, resumed.archetypes) == (cert.levels,
                                                        cert.archetypes), i
        assert path.read_text() == text, i


def test_certificate_resume_of_finished_file_keeps_one_summary(tmp_path):
    path = tmp_path / "done.jsonl"
    certificate(3, checkpoint=str(path))
    before = path.read_text()
    certificate(3, checkpoint=str(path))
    assert path.read_text() == before
    docs = [json.loads(line) for line in before.splitlines()]
    assert sum(1 for d in docs if d.get("complete")) == 1


def test_summary_names_letters_as_the_level_lines_do(tmp_path):
    # from n = 5 on, level lines number the letters w1..wn
    a = Archetype(parse_phrase("w+x"), ((parse_phrase("wx"), 1),))
    path = tmp_path / "summary.jsonl"
    archetypes._write_summary(str(path), Certificate(5, (), 1, (a,)))
    assert json.loads(path.read_text())["archetypes"] == ["[w1+w2; (w1w2)^1]"]


def test_certificate_drops_a_deeply_nested_last_line(tmp_path):
    path = tmp_path / "cut.jsonl"
    cert = certificate(3, checkpoint=str(path))
    text = path.read_text()
    head = "".join(text.splitlines(keepends=True)[:2])
    path.write_text(head + "[" * 200_000 + "\n")
    resumed = certificate(3, checkpoint=str(path))
    assert resumed.levels == cert.levels
    assert path.read_text() == text


def test_fresh_certificate_checks_the_counting_identity(monkeypatch):
    # level 0 still counts right, so the check at the end is the one to fire
    count = archetypes.placement_count
    monkeypatch.setattr(archetypes, "placement_count",
                        lambda a, d: count(a, d) + (d > 0))
    with pytest.raises(FactViolation, match="level 1 holds 3 bricks"):
        certificate(2)


def test_fresh_certificate_refuses_an_unbalanced_grown_level(monkeypatch):
    # a grown level is checked by the one balance check that read levels pass
    close = archetypes._close

    def with_unbalanced(d, rows, codec, derived, inputs):
        out = close(d, rows, codec, derived, inputs)
        if d == 2:
            w, wx = (codec.encode_side(parse_phrase(t)) for t in ("w", "w+x"))
            out.append(codec.row([w, wx, wx]))
        return out

    monkeypatch.setattr(archetypes, "_close", with_unbalanced)
    with pytest.raises(FactViolation) as e:
        certificate(3)
    assert str(e.value) == "level 2 brick '(w)x(w+x)' is not balanced"


def test_fresh_certificate_refuses_a_wrong_top_dimension(monkeypatch):
    grow = archetypes.next_minimal_level

    def grow_with_top(top):
        return lambda prev: dataclasses.replace(grow(prev),
                                                max_true_dim=top(prev.d + 1))

    # every level keeps its full true dimension, past n
    monkeypatch.setattr(archetypes, "next_minimal_level",
                        grow_with_top(lambda d: d))
    with pytest.raises(FactViolation, match="n=2 still growing at level 3"):
        certificate(2)
    # the construction stops short of dimension n - 1
    monkeypatch.setattr(archetypes, "next_minimal_level",
                        grow_with_top(lambda d: 0))
    with pytest.raises(FactViolation,
                       match="top true dimension 0 for n=3, counting needs 2"):
        certificate(3)


def test_certificate_resumes_past_a_blank_line(tmp_path):
    full = tmp_path / "full.jsonl"
    cert = certificate(3, checkpoint=str(full))
    lines = full.read_text().splitlines(keepends=True)
    head = lines[0] + "\n" + lines[1] + "  \n"
    path = tmp_path / "blank.jsonl"
    path.write_text(head)
    resumed = certificate(3, checkpoint=str(path))
    assert (resumed.levels, resumed.archetypes) == (cert.levels,
                                                    cert.archetypes)
    assert path.read_text() == head + "".join(lines[2:])


def test_certificate_checkpoint_rejects_other_n(tmp_path):
    p = tmp_path / "other.jsonl"
    certificate(2, checkpoint=str(p))
    with pytest.raises(ValueError):
        certificate(3, checkpoint=str(p))


# ---------------------------------------------------------------------------
# archetypes and counting


def test_archetype_extraction_n2():
    cert = _cert(2)
    names = [render_archetype(a, 2) for a in cert.archetypes]
    assert names == ["[w; ]", "[x; ]", "[w+x; (wx)^1]"]


def arch_count_table(n: int) -> list[int]:
    """Archetype counts by true dimension 0..n-1."""
    out = [0] * n
    for a in _cert(n).archetypes:
        out[a.tau] += 1
    return out


def test_archetype_counts():
    assert [len(_cert(n).archetypes) for n in (1, 2, 3, 4)] == [1, 3, 11, 115]
    assert arch_count_table(3) == [3, 4, 4]
    assert arch_count_table(4) == [4, 11, 74, 26]


def test_placement_count_multinomial_oracle():
    def oracle(parts, d):
        # distinct side tuples: parts at chosen coordinates, envelope elsewhere
        items = []
        for i, (_, r) in enumerate(parts):
            items.extend([f"p{i}"] * r)
        items.extend(["env"] * (d - len(items)))
        if len(items) > d:
            return 0
        return len(set(permutations(items)))

    cert = _cert(3)
    for a in cert.archetypes:
        for d in range(0, 6):
            assert placement_count(a, d) == oracle(a.parts, d)


def test_placement_count_zero_below_tau():
    cert = _cert(3)
    deep = max(cert.archetypes, key=lambda a: a.tau)
    assert placement_count(deep, deep.tau - 1) == 0


def test_counting_identity_every_level():
    # sum of archetype placements at dimension d = size of level d
    for n in (1, 2, 3, 4):
        cert = _cert(n)
        archs = [archetype_of(b) for b in cert.levels[-1]]
        uniq = {}
        for a in archs:
            uniq[a] = uniq.get(a, 0)
        for d, level in enumerate(cert.levels):
            total = sum(placement_count(a, d) for a in uniq)
            assert total == len(level), (n, d)


def test_lattice_maxrank_table_rows():
    for n in (1, 2, 3):
        assert [lattice_maxrank(_cert(n), d) for d in range(0, 12)] == TABLE_10B[n]


def test_lattice_maxrank_errors():
    with pytest.raises(ValueError):
        lattice_maxrank(_cert(2), -1)


# ---------------------------------------------------------------------------
# polynomials


def test_rank_polynomial_exact_coefficients():
    for n, coeffs in POLYNOMIALS.items():
        assert rank_polynomial(_cert(n)) == coeffs


def test_rank_polynomial_denominators_divide_factorial():
    import math

    for n in (1, 2, 3, 4):
        fact = math.factorial(n - 1)
        for c in rank_polynomial(_cert(n)):
            assert fact % c.denominator == 0


def test_polynomial_evaluates_to_table():
    for n in (1, 2, 3):
        coeffs = rank_polynomial(_cert(n))
        for d in range(0, 12):
            v = sum(c * d**i for i, c in enumerate(coeffs))
            assert v == TABLE_10B[n][d]


def test_render_polynomial_frozen():
    assert render_polynomial(rank_polynomial(_cert(1))) == "1"
    assert render_polynomial(rank_polynomial(_cert(2))) == "2 + d"
    assert render_polynomial(rank_polynomial(_cert(3))) == "3 + 1/2*(d + 7*d^2)"
    assert render_polynomial(rank_polynomial(_cert(4))) == (
        "4 + 1/6*(-112*d + 57*d^2 + 121*d^3)"
    )


def test_render_polynomial_branches():
    F = Fraction
    assert render_polynomial((F(2), F(0), F(1, 2))) == "2 + 1/2*(d^2)"
    assert render_polynomial((F(1), F(-1))) == "1 - d"
    assert render_polynomial((F(0), F(-3))) == "0 - 3*d"
    assert render_polynomial((F(0), F(-1, 2), F(1, 2))) == "0 + 1/2*(-d + d^2)"
    assert render_polynomial((F(5), F(0), F(0))) == "5"


def test_render_polynomial_refuses_other_denominators():
    for coeffs in [(Fraction(1, 2),), (Fraction(1), Fraction(1, 3))]:
        with pytest.raises(FactViolation):
            render_polynomial(coeffs)


# ---------------------------------------------------------------------------
# internal consistency facts


def test_fact_F4_nested_brick():
    for n in (1, 2, 3, 4):
        assert check_fact_F4(_cert(n))


def test_fact_F4_fails_on_a_wrong_combine(monkeypatch):
    cert = _cert(3)
    # level 1 is too low to hold the nested brick
    assert not check_fact_F4(Certificate(3, cert.levels[:2], 2, ()))
    # a combine that keeps its first argument never leaves the first cube
    monkeypatch.setattr(archetypes, "cix", lambda d, a, b: a)
    assert not check_fact_F4(cert)


def check_d2_bijection(n: int) -> bool:
    """alpha -> alpha x dual(alpha) maps the whole phrase lattice onto
    the minimal bricks at level 2, one to one."""
    cert = _cert(n)
    lattice = dedekind.enumerate_lattice(n)
    image = {
        symbrick((alpha, dedekind.dual(alpha))) for alpha in lattice
    }
    level = min(2, len(cert.levels) - 1)  # n = 1 stops below level 2
    return len(image) == len(lattice) and image == set(cert.levels[level])


def test_d2_bijection_with_lattice():
    for n in (1, 2, 3, 4):
        assert check_d2_bijection(n)

