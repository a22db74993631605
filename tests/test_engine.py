import functools
import math
import random
from itertools import combinations, permutations

import pytest

import brickrank.engine
from brickrank.dedekind import (
    enumerate_lattice,
    join as phrase_join,
    parse_phrase,
    phrase_key,
    reduce_words,
)
from brickrank.engine import (
    Brick,
    BrickParseError,
    DimensionMismatch,
    GuardExceeded,
    brick,
    brick_divides,
    brick_sort_key,
    cix,
    comb,
    decide,
    ext_all,
    ext_dir,
    is_tilable,
    lattice_of,
    minimal_elements,
    minimal_set,
    parse_brick,
    rank,
    render_brick,
)
from brickrank.engine import _SLICE_AT, _BrickCodec, _Slices, _close
from brickrank.maxrank import geometric_maxrank, worst_protoset
from brickrank.numlat import FactoredNat, lcm_nat, nat

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


def _unpruned(bricks, deltas):
    """The closure of a proto-set under cix in each of deltas in turn,
    with no pruning, on the engine's rows: adding an input b to the
    closure C of the inputs before it gives C + b + cix(C, b).  Returns
    every brick of it in canonical order."""
    bl = sorted(set(bricks), key=brick_sort_key)
    codec = _BrickCodec(bl)
    rows = codec.rows(bl)
    for delta in deltas:
        mask = codec.side_mask(delta)
        held = dict.fromkeys(rows[:1])
        for b in rows[1:]:
            if b not in held:  # else held has cix(held, b) already
                held.update(dict.fromkeys(
                    [b] + [m & b | (m | b) & ~mask for m in held]))
        rows = list(held)
    return sorted(map(codec.decode, rows), key=brick_sort_key)


def unpruned_ext_dir(delta, bricks):
    """Every combine of a non-void subset of the bricks in direction
    delta: ext_dir before pruning."""
    return _unpruned(bricks, (delta,))


def unpruned_ext_all(bricks):
    return _unpruned(bricks, range(1, bricks[0].dim + 1))


def unpruned_minimal_set(bricks):
    """M(P) as the minimal elements of the unpruned closure."""
    return minimal_elements(unpruned_ext_all(bricks))


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
    # each argument is one side
    for bad in ["25x3", "(w)x(x)", "(w", "0"]:
        with pytest.raises(BrickParseError):
            brick(bad)


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


def test_sort_key_orders_naturals_by_value():
    rng = random.Random(83)

    def nat_():
        return FactoredNat(tuple((p, rng.randint(1, 60)) for p in (2, 3, 5, 7)
                                 if rng.random() < 0.6))

    pairs = [(nat_(), nat_()) for _ in range(400)]
    # 2^p and 3^q from convergents of log2(3): the logs of the first three
    # pairs agree to within their 1e-9 slack, so their exact values decide
    near = [((2, 24727), (3, 15601)), ((2, 50508), (3, 31867)),
            ((2, 125743), (3, 79335)), ((2, 1054), (3, 665))]
    five = nat(5)
    for x, y in near:
        a, b = FactoredNat((x,)), FactoredNat((y,))
        pairs += [(a, b), (b, a), (a, a),
                  (lcm_nat(a, five), lcm_nat(b, five))]
    for a, b in pairs:
        assert ((brick_sort_key(Brick((a,))) < brick_sort_key(Brick((b,))))
                == (a.value < b.value)), (a, b)
    bricks = [Brick((a, b)) for a, b in pairs]
    assert (sorted(bricks, key=brick_sort_key)
            == sorted(bricks, key=lambda b: tuple(s.value for s in b.sides)))
    # too big to expand, with logs that round to one float
    a, b = (Brick((FactoredNat(((2, 10**17), (p, 1))),)) for p in (3, 5))
    assert a.sides[0].log == b.sides[0].log
    assert brick_sort_key(a) < brick_sort_key(b)
    assert not brick_sort_key(b) < brick_sort_key(a)


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
        got = set(unpruned_ext_dir(delta, P))
        assert got == _subset_ext_oracle(delta, P)


def test_ext_dir_contains_displayed_combs():
    got = set(unpruned_ext_dir(1, FIG1))
    for text in ["1x24", "1x40", "1x15", "1x120", "25x3", "9x8", "16x5"]:
        assert parse_brick(text) in got


def test_ext_dir_singleton_and_idempotence():
    b = brick(6, 10)
    assert list(ext_dir(1, [b])) == [b]
    rng = random.Random(38)
    for _ in range(30):
        P = _random_bricks(rng, 4, 2, 30)
        once = unpruned_ext_dir(1, P)
        again = unpruned_ext_dir(1, once)
        assert set(once) == set(again)


def test_ext_dir_operators_commute():
    rng = random.Random(39)
    for _ in range(30):
        P = _random_bricks(rng, 4, 2, 30)
        ab = unpruned_ext_dir(2, unpruned_ext_dir(1, P))
        ba = unpruned_ext_dir(1, unpruned_ext_dir(2, P))
        assert set(ab) == set(ba)


def test_ext_all_reaches_unit_square():
    assert brick(1, 1) in set(unpruned_ext_all(FIG2))


def test_ext_all_direction_order_irrelevant():
    # one pass per direction in any order gives the same closure
    rng = random.Random(40)
    for _ in range(15):
        P = _random_bricks(rng, 3, 3, 12)
        results = []
        for order in permutations(range(1, 4)):
            s = list(P)
            for delta in order:
                s = unpruned_ext_dir(delta, s)
            results.append(set(minimal_elements(s)))
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
        assert minimal_set(P) == _reference_minimal_set(P)
    for _ in range(10):
        P = _random_symbolic_bricks(rng, rng.randrange(2, 4), 2)
        assert minimal_set(P) == _reference_minimal_set(P)


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
        closed = unpruned_ext_dir(delta, P)
        for inputs in (P, closed):
            one = {}
            ext_dir(delta, inputs, trace=one)
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
            full = unpruned_ext_dir(delta, P)
            assert pruned == list(minimal_elements(full))
            assert ext_dir(delta, P, trace={}) == pruned


def test_closure_cap(monkeypatch):
    # the live set grows past 10 on its way to the 15 minimal bricks
    monkeypatch.setattr(brickrank.engine, "_CLOSURE_CAP", 10)
    with pytest.raises(GuardExceeded):
        minimal_set(ROTATION)


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
    yield worst_protoset(3, 3)
    yield worst_protoset(4, 2)
    yield [brick(6, 1), brick(1, 6), brick(2, 3)]


@pytest.mark.parametrize("bricks", list(_codec_cases()))
def test_codec_is_a_lattice_embedding(bricks):
    codec = _BrickCodec(bricks)
    rows = codec.rows(bricks)
    assert [codec.decode(r) for r in rows] == bricks
    sliced = _Slices(codec, rows)
    counts = [sliced.below(r).bit_count() for r in rows]
    assert counts == [sum(brick_divides(a, b) for a in bricks) for b in bricks]
    counts = [sliced.above(r).bit_count() for r in rows]
    assert counts == [sum(brick_divides(b, a) for a in bricks) for b in bricks]
    for (a, ra), (b, rb) in combinations(zip(bricks, rows), 2):
        assert (ra & ~rb == 0) == brick_divides(a, b)
        assert (rb & ~ra == 0) == brick_divides(b, a)
        for delta in range(1, a.dim + 1):
            mask = codec.side_mask(delta)
            packed = (ra & rb & mask) | ((ra | rb) & ~mask)
            assert codec.decode(packed) == cix(delta, a, b)


@pytest.mark.parametrize("count", [3, _SLICE_AT, _SLICE_AT + 1, 40])
@pytest.mark.parametrize("lattice", ["nat", "phrase"])
def test_slices_match_a_row_scan(lattice, count):
    """below and above give the masks of a plain scan of the live rows,
    on every side and on each side alone, before and after slicing."""
    rng = random.Random(count)
    d = 3
    bricks = (_random_factored_bricks(rng, count, d) if lattice == "nat"
              else _random_phrase_bricks(rng, count, d, 4))
    codec = _BrickCodec(bricks)
    rows = codec.rows(bricks)
    # queries from the sublattice the rows generate
    queries = rows + [a & b for a, b in combinations(rows, 2)]
    queries += [a | b for a, b in combinations(rows, 2)]

    def check(live):
        for q in rng.sample(queries, 6):
            for delta in (None, *range(1, d + 1)):
                mask = -1 if delta is None else codec.side_mask(delta)
                held = [(s, r) for s, r in enumerate(live.rows)
                        if live.alive >> s & 1]
                assert live.below(q, delta) == sum(
                    1 << s for s, r in held if not r & ~q & mask)
                assert live.above(q, delta) == sum(
                    1 << s for s, r in held if not q & ~r & mask)

    live = _Slices(codec)
    for row in rows:
        live.add(row)
        if rng.random() < 0.3:  # some slots go before and after slicing
            live.alive &= ~(1 << rng.randrange(len(live.rows)))
        check(live)
    assert (live.cols is not None) == (count > _SLICE_AT)
    check(_Slices(codec, rows))


def test_codec_width_counts_exponents_not_their_size():
    bricks = [brick("2^1000000", 1), brick(3, 1)]
    assert _BrickCodec(bricks).stride == 2
    assert minimal_set(bricks) == (brick(1, 1),)


@pytest.mark.parametrize("n", range(1, 6))
def test_codec_width_of_worst_cubes_is_birkhoff(n):
    # 2^n - 2 nontrivial value sets, against n! * (n - 1) exponent ranks
    assert _BrickCodec(worst_protoset(n, 2)).stride == [0, 2, 6, 14, 30][n - 1]


def test_codec_merges_tests_the_same_values_pass():
    # 2 and 3 always come together, so 2 | v and 3 | v share one bit
    bricks = [brick(6, 1), brick(1, 6)]
    codec = _BrickCodec(bricks)
    assert codec.stride == 1
    assert [codec.decode(r) for r in codec.rows(bricks)] == bricks


def _pairwise_close(delta, rows, mask, inputs):
    """_close by plain pairwise subset tests on the whole block: the live
    rows, and each kept row's (delta, c, m, b) with m the last live row
    whose combine with b gave c."""
    live, derived = rows[:1], []
    for b in rows[1:]:
        if any(m & ~b == 0 for m in live):
            continue
        par = [m for m in live if m & mask & ~b and b & mask & ~m]
        last = {}
        for i, c in enumerate([b] + [m & b | (m | b) & ~mask for m in par]):
            last[c] = i
        new = [c for c in last if not any(m & ~c == 0 for m in live)
               and not any(o & ~c == 0 and o != c for o in last)]
        live = [m for m in live if not any(c & ~m == 0 for c in new)] + new
        derived += [(delta, c, par[last[c] - 1], b) for c in new
                    if last[c] and c not in inputs]
    return live, derived


def test_close_matches_pairwise_reference(monkeypatch):
    sliced = []

    class Counted(_Slices):
        def __init__(self, codec, rows=()):
            sliced.append(len(rows))
            super().__init__(codec, rows)

    monkeypatch.setattr(brickrank.engine, "_Slices", Counted)
    rng = random.Random(71)
    sides = (1, 2, 3, 4, 6, 8, 9, 12, 18, 36)
    cases = [{brick(*rng.choices(sides, k=d)) for _ in range(40)}
             for d in (2, 3) for _ in range(4)]
    cases += [set(_random_phrase_bricks(rng, 10, 3, 5)) for _ in range(2)]
    for bricks in map(list, cases):
        codec = _BrickCodec(bricks)
        rows = codec.rows(bricks)
        rng.shuffle(rows)
        for delta in range(1, codec.dim + 1):
            derived = []
            got = _close(delta, rows, codec, derived, set(rows))
            assert (got, derived) == _pairwise_close(
                delta, rows, codec.side_mask(delta), set(rows))
    # some closures sliced their live rows again after evictions
    assert sum(n > 1 for n in sliced) >= 10


def _rename(b, f):
    """b with every letter l replaced by f(l)."""
    return Brick(tuple(reduce_words(tuple(map(f, w)) for w in s.words)
                       for s in b.sides))


def test_increasing_letter_renames_commute():
    rng = random.Random(67)

    def spread(l):
        return 7 * l + 11

    for letters in range(1, 6):
        for _ in range(6):
            d = rng.randint(1, 3)
            P = _random_phrase_bricks(rng, rng.randint(2, 4), d, letters)
            wide = [_rename(b, spread) for b in P]
            targets = [_random_phrase_bricks(rng, 1, d, letters + 1)[0],
                       rng.choice(minimal_set(P))]
            for close in (minimal_set, unpruned_minimal_set):
                assert close(wide) == tuple(_rename(b, spread)
                                            for b in close(P))
            for T in targets:
                assert decide(_rename(T, spread), wide) == decide(T, P)


@pytest.mark.parametrize("far", [18, 40])
def test_far_letters_answer_as_their_two_letter_renames(far):
    def grow(l):
        return far if l == 2 else l

    near = [brick("(x)", "(w)"), brick("(w)", "(x)")]
    P = [_rename(b, grow) for b in near]
    M = minimal_set(P)
    assert M == tuple(_rename(b, grow) for b in minimal_set(near))
    assert len(M) == 4
    square = brick("(w)", "(w)")
    assert decide(square, P) == decide(square, near) is False


def test_codec_refuses_too_many_letters():
    wide = "(" + "+".join(f"w{l}" for l in range(1, 22)) + ")"
    P = [parse_brick(f"{wide}x(w)"), parse_brick("(w)x(w2)")]
    with pytest.raises(GuardExceeded):
        minimal_set(P)
    with pytest.raises(GuardExceeded):
        decide(brick("(w)", "(w)"), P)
    # letters only the target uses are dropped before the codec is built
    assert decide(parse_brick(f"{wide}x(wx)"), [brick("(w)", "(x)"),
                                                 brick("(x)", "(w)")])


# ---------------------------------------------------------------------------
# minimal sets and rank


def test_minimal_elements_examples():
    got = minimal_elements([brick(3, 8), brick(9, 8)])
    assert got == (brick(3, 8),)
    anti = [brick(2, 3), brick(3, 2)]
    assert set(minimal_elements(anti)) == set(anti)


def test_minimal_set_fig1():
    M = minimal_set(FIG1)
    assert M == (brick(1, 1),)
    assert rank(FIG1) == 1


def test_minimal_set_rotation_example():
    M = minimal_set(ROTATION)
    assert [render_brick(b) for b in M] == ROTATION_MINIMAL
    assert rank(ROTATION) == 15


def _rank_cases():
    rng = random.Random(73)
    for n in range(1, 5):
        yield worst_protoset(n, 2)
    yield worst_protoset(3, 3)
    for d in range(1, 4):
        yield _random_bricks(rng, rng.randint(1, 5), d, 30)
        yield _random_factored_bricks(rng, 5, d)
        yield _random_phrase_bricks(rng, 4, d, 4)


@pytest.mark.parametrize("bricks", list(_rank_cases()))
def test_rank_counts_the_minimal_set(bricks):
    assert rank(bricks) == len(minimal_set(bricks))


def test_rank_refuses_empty_and_mixed_sets():
    with pytest.raises(ValueError):
        rank([])
    with pytest.raises(DimensionMismatch):
        rank([brick(2, 3), brick(2, 3, 5)])
    with pytest.raises(DimensionMismatch):
        rank([brick(2, 3), brick("(w)", "(x)")])


@pytest.mark.parametrize("close", [
    functools.partial(ext_dir, 1), ext_all, minimal_set, minimal_elements],
    ids=["ext_dir", "ext_all", "minimal_set", "minimal_elements"])
def test_closures_refuse_empty_and_mixed_lattices(close):
    with pytest.raises(ValueError):
        close([])
    # the shape check comes before sorting, which cannot order the two
    with pytest.raises(DimensionMismatch):
        close([brick(3, 1), brick("(w)", "(x)")])


def test_ext_dir_refuses_a_direction_outside_the_shape():
    for delta in (0, 3):
        with pytest.raises(ValueError, match="outside 1..2"):
            ext_dir(delta, [brick(3, 1)])


def test_geometric_maxrank_decodes_no_brick(monkeypatch):
    def refuse(self, row):
        raise AssertionError("decoded a row")

    monkeypatch.setattr(_BrickCodec, "decode", refuse)
    assert geometric_maxrank(4, 3) == 578


def test_minimal_set_singleton():
    assert minimal_set([brick(5, 5)]) == (brick(5, 5),)


def test_minimal_set_antichain_and_covering_invariants():
    rng = random.Random(42)
    for _ in range(40):
        d = rng.randrange(1, 4)
        P = _random_bricks(rng, rng.randrange(1, 5), d, 30)
        M = minimal_set(P)
        assert minimal_elements(M) == M
        for a, b in combinations(M, 2):
            assert not brick_divides(a, b) and not brick_divides(b, a)
        # every proto sits above some minimal brick
        for p in P:
            assert is_tilable(p, M)


def test_prune_no_prune_equivalence():
    fixtures = [FIG1, FIG2, ROTATION, [brick(6, 10, 15)], [brick(2, 1), brick(1, 2)]]
    rng = random.Random(43)
    for _ in range(25):
        d = rng.randrange(1, 4)
        fixtures.append(_random_bricks(rng, rng.randrange(1, 5), d, 30))
    for P in fixtures:
        assert minimal_set(P) == unpruned_minimal_set(P)


# ---------------------------------------------------------------------------
# tilability


def test_is_tilable_examples():
    M2 = minimal_set(FIG2)
    assert is_tilable(brick(3, 1), M2)
    M1 = minimal_set(FIG1)
    assert is_tilable(brick(34, 11), M1)
    for m in minimal_set(ROTATION):
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


def _decide_nat_bricks(rng, count, d):
    """Sides over 2, 3, 5 and 7, each prime absent from some sides; 2
    takes exponents up to 10**6 (minimal_set's sort expands sides to
    ints, which stays cheap for powers of 2 alone)."""
    exps = {2: (1, 2, 10**3, 10**6), 3: (1, 2, 5), 5: (1, 3), 7: (1, 2)}

    def side():
        return FactoredNat(tuple((p, rng.choice(e)) for p, e in exps.items()
                                 if rng.random() < 0.6))

    return [Brick(tuple(side() for _ in range(d))) for _ in range(count)]


def _decide_cases():
    """(target, protos): per proto-set, a random target, a minimal brick
    joined with a random brick (tilable, usually with no proto dividing
    it) and, for naturals, that target times 11, a prime no proto has;
    for phrases, targets with letters beyond the protos' alphabet."""
    rng = random.Random(61)
    eleven = FactoredNat(((11, 10**6),))
    for d in range(1, 5):
        for _ in range(6):
            P = _decide_nat_bricks(rng, rng.randint(2, 4), d)
            m = rng.choice(minimal_set(P))
            up = _decide_nat_bricks(rng, 1, d)[0]
            grown = Brick(tuple(map(lcm_nat, m.sides, up.sides)))
            yield _decide_nat_bricks(rng, 1, d)[0], P
            yield grown, P
            yield Brick(tuple(lcm_nat(s, eleven) if i == 0 else s
                              for i, s in enumerate(grown.sides))), P
    huge = FactoredNat(((2, 10**6),))
    yield brick(huge, 3), [brick(huge, 1), brick(3, 1)]
    yield brick(huge, 6), [brick(huge, 2), brick(3, 3)]
    yield brick(huge, 9), [brick(huge, 2), brick(3, 3)]
    yield brick(huge, 12, 5), [brick(2, 3, 5), brick(huge, 4, 1)]
    for letters in range(1, 6):
        for _ in range(4):
            d = rng.randint(1, 3)
            P = _random_phrase_bricks(rng, rng.randint(2, 4), d, letters)
            m = rng.choice(minimal_set(P))
            wide = letters + 2
            yield _random_phrase_bricks(rng, 1, d, letters)[0], P
            yield _random_phrase_bricks(rng, 1, d, wide)[0], P
            up = _random_phrase_bricks(rng, 1, d, wide)[0]
            yield Brick(tuple(map(phrase_join, m.sides, up.sides))), P
    yield brick("(w5)", "(w)"), [brick("(w)", "(w)")]
    yield brick("(w+w5)", "(x)"), [brick("(w)", "(x)"), brick("(x)", "(w)")]
    # minimal bricks of larger sets, whose closures outgrow row-by-row tests
    for _ in range(3):
        P = _decide_nat_bricks(rng, 8, 2)
        yield rng.choice(minimal_set(P)), P


def test_decide_matches_minimal_set(monkeypatch):
    seen = {}

    class Codec(_BrickCodec):
        def __init__(self, bricks):
            seen["codec"] = True
            super().__init__(bricks)

    class Slices(_Slices):
        def add(self, row):
            s = super().add(row)
            if self.cols is not None:
                seen["sliced"] = True
            return s

    def close(*args):
        seen["closed"] = True
        return _close(*args)

    outcomes = set()
    for target, P in _decide_cases():
        want = is_tilable(target, unpruned_minimal_set(P))
        assert is_tilable(target, minimal_set(P)) == want, (target, P)
        seen.clear()
        with monkeypatch.context() as m:
            m.setattr(brickrank.engine, "_BrickCodec", Codec)
            m.setattr(brickrank.engine, "_Slices", Slices)
            m.setattr(brickrank.engine, "_close", close)
            assert decide(target, P) == want, (target, P)
        divided = any(brick_divides(p, target) for p in P)
        name = lattice_of(target).name
        outcomes.add((name, want, divided))
        if not want:
            # a codec and no closure: the meet bound refuted; no codec:
            # some side of the target has no word over the protos' letters
            outcomes.add((name, "refuted by", "closure" if "closed" in seen
                          else "meet" if "codec" in seen else "letters"))
        if "sliced" in seen:
            outcomes.add((name, "sliced"))
    # both answers, and positives that need a closure, in both lattices;
    # refutations by the meet bound and by a closure, and closures whose
    # live rows were sliced
    for name in ("nat", "phrase"):
        assert {(name, True, False), (name, False, False),
                (name, True, True), (name, "refuted by", "meet"),
                (name, "refuted by", "closure"), (name, "sliced")} <= outcomes


@functools.cache
def _decided_cases():
    """(target, protos, answer by M(P)) for each of _decide_cases()."""
    return [(t, P, is_tilable(t, minimal_set(P))) for t, P in _decide_cases()]


def test_decide_closes_all_directions_but_the_last(monkeypatch):
    closed = []

    def close(*args):
        closed.append(args[0])
        return _close(*args)

    monkeypatch.setattr(brickrank.engine, "_close", close)
    last_pass = 0
    for target, P, want in _decided_cases():
        closed.clear()
        assert decide(target, P) == want, (target, P)
        d = target.dim
        assert closed == list(range(1, len(closed) + 1)), (target, P)
        assert len(closed) <= d - 1, (target, P)
        # a yes after d - 1 closures came from the pass over direction d
        last_pass += want and d >= 2 and len(closed) == d - 1
    assert last_pass


def test_decide_builds_no_lifted_brick(monkeypatch):
    cases = _decided_cases()

    def refuse(*args):
        raise AssertionError("a lattice join on sides")

    monkeypatch.setattr(brickrank.engine, "lcm_nat", refuse)
    monkeypatch.setattr(brickrank.dedekind, "join", refuse)
    for target, P, want in cases:
        assert decide(target, P) == want, (target, P)


def test_decide_dividing_proto_starts_no_closure(monkeypatch):
    def refuse(*args):
        raise AssertionError("closure started")

    monkeypatch.setattr(brickrank.engine, "_close", refuse)
    assert decide(brick(34, 11), [brick(2, 3), brick(17, 11)])
    assert decide(brick("(w+x)", "(x)"), [brick("(w)", "(x)")])
    with pytest.raises(AssertionError):
        decide(brick(3, 1), FIG2)


def test_decide_meet_bound_starts_no_closure(monkeypatch):
    def refuse(*args):
        raise AssertionError("closure started")

    monkeypatch.setattr(brickrank.engine, "_close", refuse)
    # lifted by 3x1: 6x1 and 12x1, whose meet 6x1 is not 3x1
    assert not decide(brick(3, 1), [brick(2, 1), brick(4, 1)])
    # lifted by (w)x(x): (w+x)x(x) and (w+x)x(w+x)
    assert not decide(brick("(w)", "(x)"),
                      [brick("(x)", "(x)"), brick("(x)", "(w)")])


def test_decide_mixed_shapes_raise():
    with pytest.raises(DimensionMismatch):
        decide(brick(3, 1), [brick(3, 1, 1)])
    with pytest.raises(DimensionMismatch):
        decide(brick(3, 1), [brick(3, 1), brick("(w)", "(x)")])
    with pytest.raises(DimensionMismatch):
        decide(brick("(w)", "(x)"), FIG2)


def test_antichain_membership_and_dimension_guard():
    M = minimal_set(FIG2)
    assert brick(1, 1) in M
    with pytest.raises(DimensionMismatch):
        is_tilable(brick(3, 3, 3), M)


def test_minimal_elements_tells_an_antichain():
    # M is an antichain exactly when minimal_elements gives M back
    assert minimal_elements([brick(9, 8), brick(3, 8)]) == (brick(3, 8),)
