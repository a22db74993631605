import json
from pathlib import Path
import random
import subprocess
import sys
from itertools import combinations

import pytest

import brickrank.dedekind
from brickrank.dedekind import (
    Phrase,
    PhraseParseError,
    _letter_tables,
    dual,
    enumerate_lattice,
    eval_hom,
    is_pure_sum,
    join,
    lattice_count,
    lattice_tables,
    leq,
    meet,
    parse_phrase,
    phrase,
    phrase_alphabet,
    phrase_from_tt,
    phrase_key,
    phrase_tt,
    reduce_words,
    render_phrase,
)
from brickrank.numlat import GuardExceeded, nat


def _oracle_from_tt(tt, n):
    """Per-assignment decoder: the words are the true assignments v with
    no true assignment one letter smaller than v."""
    return reduce_words(
        tuple(i + 1 for i in range(n) if v >> i & 1)
        for v in range(1, 1 << n)
        if tt >> v & 1 and not any(tt >> (v & ~(1 << i)) & 1
                                   for i in range(n) if v >> i & 1))


def _oracle_lattice(n):
    """Every phrase on letters 1..n by a join closure that builds the
    phrases, word tables computed per assignment."""
    letters = range(1, n + 1)
    words = {w: sum(1 << v for v in range(1 << n)
                    if all(v >> (l - 1) & 1 for l in w))
             for k in letters for w in combinations(letters, k)}
    seen = {t: Phrase((w,)) for w, t in words.items()}
    frontier = list(seen.items())
    while frontier:
        fresh = []
        for t, p in frontier:
            for w, wt in words.items():
                if t | wt not in seen:
                    seen[t | wt] = q = reduce_words(p.words + (w,))
                    fresh.append((t | wt, q))
        frontier = fresh
    return set(seen.values())


def _random_phrase(rng, n):
    words = [
        tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1))))
        for _ in range(rng.randrange(1, 4))
    ]
    return phrase(*words)


def test_reduction_drops_redundant_words():
    # w absorbs wx: w + wx = w
    assert phrase((1,), (1, 2)) == phrase((1,))
    # duplicates collapse
    assert phrase((1, 2), (2, 1), (1, 2)) == phrase((1, 2))


def test_reduction_keeps_antichains():
    a = phrase((1,), (2, 3))
    assert a.words == ((1,), (2, 3))


def test_phrase_rejects_bad_words():
    with pytest.raises(ValueError):
        phrase()
    with pytest.raises(ValueError):
        phrase((0,))


def test_reduce_words_rejects_the_empty_word():
    with pytest.raises(ValueError, match="empty word"):
        reduce_words([()])


def test_phrase_builder_normalizes_words():
    # builder sorts and dedupes letters within a word
    assert phrase((2, 2)) == phrase((2,))
    assert phrase((3, 1)) == phrase((1, 3))


def test_join_meet_small_cases():
    w, x = phrase((1,)), phrase((2,))
    assert join(w, x) == phrase((1,), (2,))
    assert meet(w, x) == phrase((1, 2))
    assert join(w, meet(w, x)) == w  # absorption
    assert meet(w, join(w, x)) == w


def test_leq_examples():
    # product below each factor, sum above each term
    wx = phrase((1, 2))
    assert leq(wx, phrase((1,)))
    assert leq(phrase((1,)), phrase((1,), (2,)))
    assert not leq(phrase((1,)), phrase((2,)))


def test_dual_examples():
    # dual swaps + and juxtaposition: w+xy <-> wx+wy
    assert dual(parse_phrase("w+xy")) == parse_phrase("wx+wy")
    assert dual(parse_phrase("wx+wy")) == parse_phrase("w+xy")
    assert dual(parse_phrase("w")) == parse_phrase("w")
    assert dual(parse_phrase("wx+wy+xy")) == parse_phrase("wx+wy+xy")


def test_lattice_laws_random():
    rng = random.Random(987)
    for _ in range(1000):
        n = rng.randrange(1, 6)
        a = _random_phrase(rng, n)
        b = _random_phrase(rng, n)
        c = _random_phrase(rng, n)
        assert join(a, b) == join(b, a)
        assert meet(a, b) == meet(b, a)
        assert join(a, a) == a and meet(a, a) == a
        assert join(a, join(b, c)) == join(join(a, b), c)
        assert meet(a, meet(b, c)) == meet(meet(a, b), c)
        assert join(a, meet(a, b)) == a
        assert meet(a, join(a, b)) == a
        # distributivity
        assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
        # order is determined by the operations
        assert leq(a, b) == (join(a, b) == b) == (meet(a, b) == a)


def test_dual_involution_and_de_morgan_random():
    rng = random.Random(988)
    for _ in range(1000):
        n = rng.randrange(1, 6)
        a = _random_phrase(rng, n)
        b = _random_phrase(rng, n)
        assert dual(dual(a)) == a
        assert dual(join(a, b)) == meet(dual(a), dual(b))
        assert leq(a, b) == leq(dual(b), dual(a))


def test_is_pure_sum_and_alphabet():
    assert is_pure_sum(parse_phrase("w+x+y"))
    assert not is_pure_sum(parse_phrase("w+xy"))
    assert phrase_alphabet(parse_phrase("w+xy")) == frozenset({1, 2, 3})


def test_render_compact_letters():
    assert render_phrase(parse_phrase("wx+wy")) == "wx+wy"
    assert render_phrase(phrase((1,), (2, 4))) == "w+xz"


def test_render_numbered_letters():
    a = phrase((1, 5))
    assert render_phrase(a) == "w1w5"
    assert render_phrase(phrase((2,)), n=5) == "w2"


def test_parse_phrase_numbered_and_errors():
    assert parse_phrase("w1w5") == phrase((1, 5))
    assert parse_phrase("w2+w10w11") == phrase((2,), (10, 11))
    assert parse_phrase("ww") == phrase((1,))  # duplicates collapse
    for bad in ["", "+", "w+", "v", "w0"]:
        with pytest.raises(PhraseParseError):
            parse_phrase(bad)


def test_truth_table_round_trip_all_n3():
    for a in enumerate_lattice(3):
        assert phrase_from_tt(phrase_tt(a, 3), 3) == a


def test_letter_tables_per_assignment():
    for n in range(1, 9):
        assert _letter_tables(n) == tuple(
            sum(1 << v for v in range(1 << n) if v >> i & 1) for i in range(n))


def test_phrase_from_tt_matches_per_assignment_decoder():
    for n in range(1, 6):
        for tt in lattice_tables(n):
            assert phrase_from_tt(tt, n) == _oracle_from_tt(tt, n), (tt, n)


@pytest.mark.parametrize("tt, n", [
    (0, 3),                # constant false
    (0xFF, 3),             # constant true
    (0b10000010, 3),       # w and wxy true, wx false: not monotone
    ((1 << 8) | 2, 3),     # a bit beyond the 8 assignments of 3 letters
    (0b10101010 << 8, 3),  # the table of w, shifted out of range
    (0b10, 0),             # no letters, so no phrase
])
def test_phrase_from_tt_rejects_non_tables(tt, n):
    with pytest.raises(ValueError):
        phrase_from_tt(tt, n)


def test_truth_table_semantics():
    # a phrase is true at a letter-set iff some word is contained in it
    a = parse_phrase("w+xy")
    tt = phrase_tt(a, 3)
    for bits in range(8):
        s = {i + 1 for i in range(3) if bits >> i & 1}
        expect = (1 in s) or {2, 3} <= s
        assert bool(tt >> bits & 1) == expect
    with pytest.raises(ValueError, match="outside"):
        phrase_tt(a, 2)


def test_enumerate_lattice_sizes():
    assert [len(enumerate_lattice(n)) for n in range(1, 5)] == [1, 4, 18, 166]


def monotone_count_oracle(n: int) -> int:
    """Count phrases on n letters by brute force over all 2**(2**n)
    truth tables, testing monotonicity directly (n <= 4)."""
    size = 1 << n
    succ = [[v | (1 << i) for i in range(n) if not v >> i & 1] for v in range(size)]
    total = 0
    for tt in range(1 << size):
        ok = True
        for v in range(size):
            if tt >> v & 1:
                if any(not tt >> u & 1 for u in succ[v]):
                    ok = False
                    break
        if ok:
            total += 1
    return total - 2  # the two constants are not phrases


def test_enumerate_matches_brute_force_oracle():
    for n in range(1, 4):
        assert len(enumerate_lattice(n)) == monotone_count_oracle(n)


def test_enumerate_lattice_matches_phrase_closure():
    for n in range(1, 6):
        assert enumerate_lattice(n) == _oracle_lattice(n)


def test_lattice_tables_count_the_lattice():
    for n in range(1, 6):
        lattice = _oracle_lattice(n)
        assert lattice_tables(n) == {phrase_tt(a, n) for a in lattice}
        assert len(lattice_tables(n)) == len(lattice)
    for n in range(1, 5):
        assert len(lattice_tables(n)) == monotone_count_oracle(n)


def test_lattice_tables_follow_the_dedekind_sequence():
    # D(n) - 2: the two constants are not phrases
    assert [len(lattice_tables(n)) for n in range(1, 6)] == [1, 4, 18, 166, 7579]


def test_enumerate_guard_fires_before_any_table(monkeypatch):
    def refuse(n):
        raise AssertionError("tables built")

    monkeypatch.setattr(brickrank.dedekind, "lattice_tables", refuse)
    with pytest.raises(GuardExceeded):
        enumerate_lattice(6)


def test_lattice_count_matches_the_tables():
    assert [lattice_count(n) for n in range(1, 6)] == [
        len(lattice_tables(n)) for n in range(1, 6)]
    for n in (0, 7):
        with pytest.raises(ValueError if n < 1 else GuardExceeded):
            lattice_count(n)
    with pytest.raises(GuardExceeded):
        lattice_tables(6)
    with pytest.raises(ValueError):
        lattice_tables(0)


def test_dedekind_count_n6():
    """dedekind 6 --count in a child process, which reports its seconds
    and peak RSS: the count lists no table on 6 letters (listing them
    all took 633 MB).  The peak is the child's own VmHWM; ru_maxrss
    keeps the parent's high-water mark across exec, and serves only
    where /proc is missing."""
    src = str(Path(brickrank.dedekind.__file__).resolve().parents[1])
    child = ("import contextlib, io, json, resource, sys, time\n"
             f"sys.path.insert(0, {src!r})\n"
             "import brickrank.cli\n"
             "out = io.StringIO()\n"
             "start = time.perf_counter()\n"
             "with contextlib.redirect_stdout(out):\n"
             "    code = brickrank.cli.main(['dedekind', '6', '--count'])\n"
             "seconds = time.perf_counter() - start\n"
             "try:\n"
             "    with open('/proc/self/status') as fh:\n"
             "        kb = next(int(line.split()[1]) for line in fh\n"
             "                  if line.startswith('VmHWM:'))\n"
             "except (OSError, StopIteration):\n"
             "    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
             "print(json.dumps([code, out.getvalue(), seconds, kb / 1024]))\n")
    done = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, out, seconds, rss_mb = json.loads(done.stdout)
    print(f"dedekind 6 --count: {seconds:.3f} s, {rss_mb:.0f} MB peak RSS")
    assert (code, out) == (0, "7828352\n")


def test_lattice_closed_under_ops():
    lat = enumerate_lattice(3)
    sample = sorted(lat, key=phrase_key)[::3]
    for a, b in combinations(sample, 2):
        assert join(a, b) in lat
        assert meet(a, b) in lat
        assert dual(a) in lat


def test_eval_hom_is_lattice_homomorphism():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randrange(1, 5)
        assign = {i: nat(rng.randrange(1, 400)) for i in range(1, n + 1)}
        a = _random_phrase(rng, n)
        b = _random_phrase(rng, n)
        va, vb = eval_hom(a, assign), eval_hom(b, assign)
        from brickrank.numlat import gcd_nat, lcm_nat

        assert eval_hom(join(a, b), assign) == lcm_nat(va, vb)
        assert eval_hom(meet(a, b), assign) == gcd_nat(va, vb)


def test_eval_hom_example():
    # (wx + y) at w=4, x=6, y=9: lcm(gcd(4,6), 9) = lcm(2,9) = 18
    a = parse_phrase("wx+y")
    assign = {1: nat(4), 2: nat(6), 3: nat(9)}
    assert int(eval_hom(a, assign)) == 18


def test_eval_hom_refuses_a_phrase_without_words():
    with pytest.raises(ValueError):
        eval_hom(Phrase(()), {})
