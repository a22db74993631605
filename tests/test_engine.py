import math
import random
from itertools import combinations, permutations

import pytest

import brickrank.engine
from brickrank.dedekind import (
    enumerate_lattice,
    parse_phrase,
    phrase_key,
    reduce_words,
)
from brickrank.engine import (
    Brick,
    BrickAntichain,
    BrickParseError,
    DimensionMismatch,
    GuardExceeded,
    brick,
    brick_divides,
    brick_sort_key,
    cix,
    comb,
    ext_all,
    ext_dir,
    is_tilable,
    minimal_elements,
    minimal_set,
    parse_brick,
    rank,
    render_brick,
)
from brickrank.engine import _BrickCodec, _divisor_counts
from brickrank.numlat import FactoredNat, nat

FIG1 = [brick(25, 3), brick(9, 8), brick(16, 5)]
FIG2 = [brick(3, 8), brick(4, 5), brick(7, 3)]
ROTATION = [brick(2, 3, 7), brick(3, 7, 2), brick(7, 2, 3)]

ROTATION_MINIMAL = [
    "1x1x42", "1x6x21", "1x14x6", "1x21x14", "1x42x1",
    "2x3x7", "3x7x2", "6x1x14", "6x21x1", "7x2x3",
    "14x1x21", "14x6x1", "21x1x6", "21x14x1", "42x1x1",
]


def _random_bricks(rng, count, d, hi=60):
    return [
        brick(*[rng.randrange(1, hi) for _ in range(d)]) for _ in range(count)
    ]


def _subset_ext_oracle(delta, bricks):
    """ext_dir by literal enumeration of every non-empty subset."""
    out = set()
    for r in range(1, len(bricks) + 1):
        for sub in combinations(bricks, r):
            out.add(comb(delta, sub))
    return out


# ---------------------------------------------------------------------------
# construction and text format


def test_brick_constructors():
    b = brick(25, 3)
    assert b.dim == 2
    assert b == brick(nat(25), nat(3))
    assert brick("(wx)", "(w+x)") == brick(parse_phrase("wx"), parse_phrase("w+x"))


def test_brick_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        brick()
    with pytest.raises(ValueError):
        brick(25, "(w)")


def test_brick_text_round_trip_exact():
    assert render_brick(parse_brick("25x3")) == "25x3"
    assert render_brick(parse_brick("(wx)x(w+x)")) == "(wx)x(w+x)"
    assert render_brick(parse_brick("2^1*3^1*5^2x7")) == "150x7"
    huge = "2^200x3"
    assert render_brick(parse_brick(huge)) == huge


def test_parse_brick_errors():
    for bad in ["", "x", "25x", "x3", "25xx3", "(w)x3", "25y3", "(w)x()"]:
        with pytest.raises(BrickParseError):
            parse_brick(bad)


def test_random_brick_text_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        b = brick(*[rng.randrange(1, 10**6) for _ in range(rng.randrange(1, 5))])
        assert parse_brick(render_brick(b)) == b


# ---------------------------------------------------------------------------
# divisibility


def test_brick_divides_examples():
    assert brick_divides(brick(2, 3, 7), brick(2, 3, 7))
    assert not brick_divides(brick(1, 1, 42), brick(1, 21, 14))
    assert brick_divides(brick(3, 8), brick(9, 8))


def test_brick_divides_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        brick_divides(brick(2, 3), brick(2, 3, 7))


def test_brick_divides_matches_componentwise_oracle():
    rng = random.Random(32)
    for _ in range(500):
        d = rng.randrange(1, 4)
        a = _random_bricks(rng, 1, d, 30)[0]
        b = _random_bricks(rng, 1, d, 30)[0]
        expect = all(
            int(t) % int(s) == 0 for s, t in zip(a.sides, b.sides)
        )
        assert brick_divides(a, b) == expect


# ---------------------------------------------------------------------------
# comb / cix


def test_comb_examples():
    assert comb(1, [brick(25, 3), brick(9, 8)]) == brick(1, 24)
    assert comb(1, [brick(2, 3, 7), brick(3, 7, 2)]) == brick(1, 21, 14)
    assert comb(
        2, [brick(1, 21, 14), brick(1, 14, 6), brick(1, 6, 21)]
    ) == brick(1, 1, 42)


def test_comb_errors():
    with pytest.raises(ValueError):
        comb(1, [])
    with pytest.raises(ValueError):
        comb(3, [brick(2, 3)])
    with pytest.raises(ValueError):
        comb(0, [brick(2, 3)])
    with pytest.raises(DimensionMismatch):
        comb(1, [brick(2, 3), brick(2, 3, 7)])


def test_cix_gcd_lcm_semantics():
    rng = random.Random(33)
    for _ in range(300):
        d = rng.randrange(1, 4)
        delta = rng.randrange(1, d + 1)
        a = _random_bricks(rng, 1, d)[0]
        b = _random_bricks(rng, 1, d)[0]
        got = cix(delta, a, b)
        for j in range(d):
            x, y = int(a.sides[j]), int(b.sides[j])
            want = math.gcd(x, y) if j == delta - 1 else x * y // math.gcd(x, y)
            assert int(got.sides[j]) == want


def test_cix_commutative_idempotent_associative():
    rng = random.Random(34)
    for _ in range(300):
        d = rng.randrange(1, 4)
        delta = rng.randrange(1, d + 1)
        a, b, c = _random_bricks(rng, 3, d)
        assert cix(delta, a, b) == cix(delta, b, a)
        assert cix(delta, a, a) == a
        assert cix(delta, a, cix(delta, b, c)) == cix(delta, cix(delta, a, b), c)


def test_cix_cross_distributivity():
    # each direction operator distributes over every other
    rng = random.Random(35)
    for _ in range(200):
        d = rng.randrange(2, 4)
        delta, gamma = rng.sample(range(1, d + 1), 2)
        a, b, c = _random_bricks(rng, 3, d)
        lhs = cix(delta, a, cix(gamma, b, c))
        rhs = cix(gamma, cix(delta, a, b), cix(delta, a, c))
        assert lhs == rhs


def test_cix_symbolic_minimal_pair():
    w, x = parse_brick("(w)x(w)"), parse_brick("(x)x(x)")
    assert cix(1, w, x) == parse_brick("(wx)x(w+x)")


def test_cix_absorption_fails_in_three_dims():
    # absorption would force w ⊻₁ (w ⊻₂ y) back to w; it does not hold
    w = parse_brick("(w)x(w)x(w)")
    y = parse_brick("(y)x(y)x(y)")
    got = cix(1, w, cix(2, w, y))
    assert got == parse_brick("(w)x(w)x(w+y)")
    assert got != w


def test_cix_absorption_holds_in_two_dims():
    rng = random.Random(36)
    for _ in range(200):
        a, b = _random_bricks(rng, 2, 2)
        assert cix(1, a, cix(2, a, b)) == a
        assert cix(2, a, cix(1, a, b)) == a


# ---------------------------------------------------------------------------
# closures


def test_ext_dir_matches_subset_oracle():
    rng = random.Random(37)
    for _ in range(60):
        d = rng.randrange(1, 4)
        P = _random_bricks(rng, rng.randrange(1, 6), d, 40)
        delta = rng.randrange(1, d + 1)
        got = set(ext_dir(delta, P, prune=False))
        assert got == _subset_ext_oracle(delta, P)


def test_ext_dir_contains_displayed_combs():
    got = set(ext_dir(1, FIG1, prune=False))
    for text in ["1x24", "1x40", "1x15", "1x120", "25x3", "9x8", "16x5"]:
        assert parse_brick(text) in got


def test_ext_dir_singleton_and_idempotence():
    b = brick(6, 10)
    assert list(ext_dir(1, [b])) == [b]
    rng = random.Random(38)
    for _ in range(30):
        P = _random_bricks(rng, 4, 2, 30)
        once = ext_dir(1, P, prune=False)
        again = ext_dir(1, once, prune=False)
        assert set(once) == set(again)


def test_ext_dir_operators_commute():
    rng = random.Random(39)
    for _ in range(30):
        P = _random_bricks(rng, 4, 2, 30)
        ab = ext_dir(2, ext_dir(1, P, prune=False), prune=False)
        ba = ext_dir(1, ext_dir(2, P, prune=False), prune=False)
        assert set(ab) == set(ba)


def test_ext_all_reaches_unit_square():
    assert brick(1, 1) in set(ext_all(FIG2, prune=False))


def test_ext_all_direction_order_irrelevant():
    # one pass per direction in any order gives the same closure
    rng = random.Random(40)
    for _ in range(15):
        P = _random_bricks(rng, 3, 3, 12)
        results = []
        for order in permutations(range(1, 4)):
            s = list(P)
            for delta in order:
                s = ext_dir(delta, s, prune=False)
            results.append(set(minimal_elements(s).bricks))
        assert all(r == results[0] for r in results)


def _reference_minimal_set(bricks):
    """M(P) by a plain worklist: close under cix in every direction at
    once, with no pruning, then keep the bricks nothing else divides."""
    closed = set(bricks)
    stack = list(closed)
    d = bricks[0].dim
    while stack:
        a = stack.pop()
        for b in list(closed):
            for delta in range(1, d + 1):
                c = cix(delta, a, b)
                if c not in closed:
                    closed.add(c)
                    stack.append(c)
    keep = [
        b for b in closed
        if not any(a != b and brick_divides(a, b) for a in closed)
    ]
    return tuple(sorted(keep, key=brick_sort_key))


def _random_symbolic_bricks(rng, count, d, letters=3):
    phrases = sorted(enumerate_lattice(letters), key=phrase_key)
    return [Brick(tuple(rng.choice(phrases) for _ in range(d)))
            for _ in range(count)]


def test_minimal_set_matches_reference_closure():
    rng = random.Random(41)
    for _ in range(10):
        P = _random_bricks(rng, 5, 2, 60)
        assert minimal_set(P).bricks == _reference_minimal_set(P)
    for _ in range(10):
        P = _random_symbolic_bricks(rng, rng.randrange(2, 4), 2)
        assert minimal_set(P).bricks == _reference_minimal_set(P)


def _assert_trace_sound(P):
    trace = {}
    M = minimal_set(P, trace=trace)
    for c, (delta, a, b) in trace.items():
        assert cix(delta, a, b) == c
    protos, done = set(P), set()

    def walk(b, path):
        # every derivation path ends in protos and never repeats a brick
        if b in protos or b in done:
            return
        assert b not in path
        _, left, right = trace[b]
        walk(left, path | {b})
        walk(right, path | {b})
        done.add(b)

    for m in M:
        walk(m, frozenset())

    assert not protos & set(trace)
    for delta in range(1, P[0].dim + 1):
        # a pass records no entry for its own inputs, not even on a closed
        # input set, where every combine it makes is one of them
        closed = ext_dir(delta, P, prune=False)
        for inputs in (P, closed):
            for prune in (True, False):
                one = {}
                ext_dir(delta, inputs, prune=prune, trace=one)
                assert not set(inputs) & set(one)


def test_trace_derivations_are_sound_and_acyclic():
    for P in (FIG1, FIG2, ROTATION):
        _assert_trace_sound(P)
    rng = random.Random(45)
    for _ in range(20):
        d = rng.randrange(1, 4)
        _assert_trace_sound(_random_bricks(rng, rng.randrange(1, 6), d, 40))


def test_ext_dir_agrees_across_prune_and_trace():
    rng = random.Random(46)
    sets = [_random_bricks(rng, rng.randrange(2, 7), rng.randrange(1, 4), 60)
            for _ in range(20)]
    sets += [_random_symbolic_bricks(rng, rng.randrange(2, 5),
                                     rng.randrange(1, 4), rng.choice((3, 4)))
             for _ in range(10)]
    for P in sets:
        for delta in range(1, P[0].dim + 1):
            pruned = ext_dir(delta, P)
            full = ext_dir(delta, P, prune=False)
            assert pruned == list(minimal_elements(full))
            assert ext_dir(delta, P, trace={}) == pruned
            assert ext_dir(delta, P, prune=False, trace={}) == full


def test_closure_cap_without_pruning(monkeypatch):
    monkeypatch.setattr(brickrank.engine, "_CLOSURE_CAP", 10)
    with pytest.raises(GuardExceeded):
        minimal_set(ROTATION, prune=False)


# ---------------------------------------------------------------------------
# the packed codec


def _random_factored_bricks(rng, count, d):
    """Sides over 2, 3, 5 and 7, each prime absent from some sides, with
    exponents from 1 up to 10**6."""
    exps = (1, 2, 3, 8, 10**3, 10**6 - 1, 10**6)

    def side():
        return FactoredNat(tuple((p, rng.choice(exps)) for p in (2, 3, 5, 7)
                                 if rng.random() < 0.6))

    return [Brick(tuple(side() for _ in range(d))) for _ in range(count)]


def _random_phrase_bricks(rng, count, d, letters):
    def side():
        return reduce_words(rng.sample(range(1, letters + 1),
                                       rng.randint(1, letters))
                            for _ in range(rng.randint(1, 3)))

    return [Brick(tuple(side() for _ in range(d))) for _ in range(count)]


def _codec_cases():
    rng = random.Random(53)
    for d in range(1, 5):
        yield _random_factored_bricks(rng, 12, d)
    for letters in range(1, 6):
        yield _random_phrase_bricks(rng, 12, rng.randint(1, 4), letters)


@pytest.mark.parametrize("bricks", list(_codec_cases()))
def test_codec_is_a_lattice_embedding(bricks):
    codec = _BrickCodec(bricks)
    rows = codec.rows(bricks)
    assert [codec.decode(r.tobytes()) for r in rows] == bricks
    counts = _divisor_counts(rows, rows).tolist()
    assert counts == [sum(brick_divides(a, b) for a in bricks) for b in bricks]
    for (a, ra), (b, rb) in combinations(zip(bricks, rows), 2):
        assert (not (ra & ~rb).any()) == brick_divides(a, b)
        assert (not (rb & ~ra).any()) == brick_divides(b, a)
        for delta in range(1, a.dim + 1):
            mask = codec.side_mask(delta)
            packed = (ra & rb & mask) | ((ra | rb) & ~mask)
            assert codec.decode(packed.tobytes()) == cix(delta, a, b)


def test_codec_width_counts_exponents_not_their_size():
    bricks = [brick("2^1000000", 1), brick(3, 1)]
    rows = _BrickCodec(bricks).rows(bricks)
    assert rows.shape == (2, 1)
    assert minimal_set(bricks).bricks == (brick(1, 1),)


# ---------------------------------------------------------------------------
# minimal sets and rank


def test_minimal_elements_examples():
    got = minimal_elements([brick(3, 8), brick(9, 8)])
    assert got.bricks == (brick(3, 8),)
    anti = [brick(2, 3), brick(3, 2)]
    assert set(minimal_elements(anti).bricks) == set(anti)


def test_minimal_set_fig1():
    M = minimal_set(FIG1)
    assert M.bricks == (brick(1, 1),)
    assert rank(FIG1) == 1


def test_minimal_set_rotation_example():
    M = minimal_set(ROTATION)
    assert [render_brick(b) for b in M.bricks] == ROTATION_MINIMAL
    assert rank(ROTATION) == 15


def test_minimal_set_singleton():
    assert minimal_set([brick(5, 5)]).bricks == (brick(5, 5),)


def test_minimal_set_antichain_and_covering_invariants():
    rng = random.Random(42)
    for _ in range(40):
        d = rng.randrange(1, 4)
        P = _random_bricks(rng, rng.randrange(1, 5), d, 30)
        M = minimal_set(P)
        M.validate()
        for a, b in combinations(M.bricks, 2):
            assert not brick_divides(a, b) and not brick_divides(b, a)
        # every proto sits above some minimal brick
        for p in P:
            assert M.find_divisor(p) is not None


def test_prune_no_prune_equivalence():
    fixtures = [FIG1, FIG2, ROTATION, [brick(6, 10, 15)], [brick(2, 1), brick(1, 2)]]
    rng = random.Random(43)
    for _ in range(25):
        d = rng.randrange(1, 4)
        fixtures.append(_random_bricks(rng, rng.randrange(1, 5), d, 30))
    for P in fixtures:
        assert minimal_set(P, prune=True).bricks == minimal_set(P, prune=False).bricks


# ---------------------------------------------------------------------------
# tilability


def test_is_tilable_examples():
    M2 = minimal_set(FIG2)
    assert is_tilable(brick(3, 1), M2)
    M1 = minimal_set(FIG1)
    assert is_tilable(brick(34, 11), M1)
    for m in minimal_set(ROTATION).bricks:
        assert is_tilable(m, minimal_set(ROTATION))


def test_is_tilable_negative():
    M = minimal_set([brick(2, 2)])
    assert not is_tilable(brick(3, 3), M)


def test_dimension_one_gcd_oracle():
    rng = random.Random(44)
    for _ in range(1000):
        P = [brick(rng.randrange(1, 200)) for _ in range(rng.randrange(1, 5))]
        t = brick(rng.randrange(1, 200))
        g = math.gcd(*[int(p.sides[0]) for p in P])
        M = minimal_set(P)
        assert is_tilable(t, M) == (int(t.sides[0]) % g == 0)


def test_antichain_membership_and_dimension_guard():
    M = minimal_set(FIG2)
    assert brick(1, 1) in M
    with pytest.raises(DimensionMismatch):
        is_tilable(brick(3, 3, 3), M)


def test_antichain_validate_rejects_comparable():
    bad = BrickAntichain.of([brick(3, 8), brick(9, 8)])
    with pytest.raises(ValueError):
        bad.validate()
