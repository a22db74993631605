from collections import Counter
from itertools import product
import json
import math
import random
import time

import pytest

from brickrank.engine import (
    GuardExceeded,
    brick,
    minimal_set,
    parse_brick,
    render_brick,
)
from brickrank.witness import (
    Placement,
    TilingWitness,
    combine_witness,
    parallel_pack,
    tile_witness,
    verify_witness,
    witness_from_json,
    witness_to_json,
    _segment_pair,
)

FIG1 = [brick(25, 3), brick(9, 8), brick(16, 5)]
FIG2 = [brick(3, 8), brick(4, 5), brick(7, 3)]


def _hand_fig2_witness():
    """Two a's and three b's stacked into a 7-wide clump, minus five c's."""
    return TilingWitness(
        target=brick(3, 1),
        protos=tuple(FIG2),
        placements=(
            Placement(0, (0, 0), 1), Placement(0, (0, 8), 1),
            Placement(1, (3, 1), 1), Placement(1, (3, 6), 1),
            Placement(1, (3, 11), 1),
            Placement(2, (0, 1), -1), Placement(2, (0, 4), -1),
            Placement(2, (0, 7), -1), Placement(2, (0, 10), -1),
            Placement(2, (0, 13), -1),
        ),
    )


# ---------------------------------------------------------------------------
# verification


def test_hand_built_witness_verifies():
    w = _hand_fig2_witness()
    assert verify_witness(w)
    # coefficient multiset per proto: +2, +3, -5
    nets = [0, 0, 0]
    for p in w.placements:
        nets[p.proto] += p.coeff
    assert nets == [2, 3, -5]


def test_verify_rejects_wrong_coefficient():
    w = _hand_fig2_witness()
    ps = list(w.placements)
    ps[0] = Placement(0, (0, 0), 2)
    assert not verify_witness(TilingWitness(w.target, w.protos, tuple(ps)))


def test_verify_rejects_shifted_placement():
    w = _hand_fig2_witness()
    ps = list(w.placements)
    ps[3] = Placement(1, (3, 7), 1)
    # volume is unchanged, so only the corners can catch it
    assert not verify_witness(TilingWitness(w.target, w.protos, tuple(ps)))


def test_verify_rejects_volume_mismatch():
    w = _hand_fig2_witness()
    assert not verify_witness(TilingWitness(w.target, w.protos, w.placements[:-1]))


def test_verify_rejects_bad_proto_index():
    t = brick(2, 2)
    w = TilingWitness(t, (brick(2, 2),), (Placement(1, (0, 0), 1),))
    assert not verify_witness(w)


def test_verify_rejects_wrong_dimension():
    t = brick(2, 2)
    # an offset with a third coordinate, and a proto of another dimension
    assert not verify_witness(TilingWitness(t, (t,),
                                            (Placement(0, (0, 0, 5), 1),)))
    assert not verify_witness(TilingWitness(t, (brick(2, 2, 1),),
                                            (Placement(0, (0, 0), 1),)))


def test_witnesses_need_numeric_bricks():
    box = brick("(w)", "(x)")
    with pytest.raises(ValueError, match="numeric"):
        tile_witness([box], box)
    with pytest.raises(ValueError, match="numeric"):
        verify_witness(TilingWitness(box, (box,), (Placement(0, (0, 0), 1),)))


def test_verify_with_proto_override():
    w = _hand_fig2_witness()
    assert verify_witness(TilingWitness(w.target, tuple(FIG2), w.placements))
    # swapping the roles of a and c breaks everything
    swapped = (FIG2[2], FIG2[1], FIG2[0])
    assert not verify_witness(TilingWitness(w.target, swapped, w.placements))


def test_verify_needs_no_grid():
    # a 4000x4000 grid was once too big to check; the corners are four
    side = 4000
    t = brick(side, side)
    assert verify_witness(TilingWitness(t, (t,), (Placement(0, (0, 0), 1),)))
    # 2^70-long bricks: three stacked rows, then one of them shifted
    w = TilingWitness(
        parse_brick("2^70x3"), (parse_brick("2^70x1"),),
        tuple(Placement(0, (0, j), 1) for j in range(3)),
    )
    assert verify_witness(w)
    ps = list(w.placements)
    ps[1] = Placement(0, (1, 1), 1)
    assert not verify_witness(TilingWitness(w.target, w.protos, tuple(ps)))


def _grid_oracle(w: TilingWitness) -> bool:
    """Test-only reference: add up every placement cell by cell; the
    target's cells must sum to 1 and every other cell to 0."""
    tsides = tuple(s.value for s in w.target.sides)
    psides = [tuple(s.value for s in b.sides) for b in w.protos]
    d = len(tsides)
    for p in w.placements:
        if not 0 <= p.proto < len(psides):
            return False
        if len(p.offset) != d or len(psides[p.proto]) != d:
            return False
    boxes = [((0,) * d, tsides, -1)] + [
        (p.offset, psides[p.proto], p.coeff) for p in w.placements
    ]
    cells = Counter()
    for o, s, c in boxes:
        for cell in product(*(range(o[j], o[j] + s[j]) for j in range(d))):
            cells[cell] += c
    return not any(cells.values())


def _random_witnesses(rng: random.Random, d: int):
    """Valid witnesses from the constructors on small random bricks."""
    for _ in range(12):
        bricks = [
            brick(*[rng.randrange(1, 7) for _ in range(d)])
            for _ in range(rng.randrange(2, 4))
        ]
        yield combine_witness(rng.randrange(1, d + 1), bricks)
        target = brick(*[rng.randrange(1, 9) for _ in range(d)])
        w = tile_witness(bricks, target)
        if w is not None:
            yield w


def _mutants(rng: random.Random, w: TilingWitness):
    """(kind, placement, index): one placement of w edited, replacing
    the placement at index."""
    ps = list(w.placements)
    i = rng.randrange(len(ps))
    p = ps[i]
    j = rng.randrange(len(p.offset))
    off = list(p.offset)
    off[j] += rng.choice((-1, 1))
    yield "offset", Placement(p.proto, tuple(off), p.coeff), i
    c = p.coeff + rng.choice((-1, 1))
    yield "coeff", Placement(p.proto, p.offset, c), i
    if len(w.protos) > 1:
        other = rng.choice([k for k in range(len(w.protos)) if k != p.proto])
        yield "proto", Placement(other, p.offset, p.coeff), i


@pytest.mark.parametrize("d", [1, 2, 3])
def test_verify_agrees_with_grid_oracle(d):
    rng = random.Random(4000 + d)
    count = 0
    for w in _random_witnesses(rng, d):
        assert verify_witness(w) and _grid_oracle(w)
        for kind, q, i in _mutants(rng, w):
            ps = list(w.placements)
            ps[i] = q
            m = TilingWitness(w.target, w.protos, tuple(ps))
            got = verify_witness(m)
            assert got == _grid_oracle(m)
            # an edit that changes the signed sum can never verify
            old = w.protos[w.placements[i].proto]
            if kind != "proto" or w.protos[q.proto] != old:
                assert not got
            count += 1
    assert count > 30


# ---------------------------------------------------------------------------
# constructors


def test_parallel_pack_two_placements():
    w = parallel_pack(brick(2, 3), brick(4, 3))
    assert w is not None
    assert len(w.placements) == 2
    assert all(p.coeff == 1 for p in w.placements)
    assert verify_witness(w)


def test_parallel_pack_non_divisor():
    assert parallel_pack(brick(2, 3), brick(5, 3)) is None


def test_parallel_pack_counts():
    rng = random.Random(91)
    for _ in range(50):
        d = rng.randrange(1, 4)
        sides = [rng.randrange(1, 6) for _ in range(d)]
        mult = [rng.randrange(1, 4) for _ in range(d)]
        b = brick(*sides)
        t = brick(*[s * m for s, m in zip(sides, mult)])
        w = parallel_pack(b, t)
        assert w is not None
        assert len(w.placements) == math.prod(mult)
        assert verify_witness(w)


def _check_segment_pair(x: int, y: int, t: int) -> None:
    """The tiles of _segment_pair(x, y, t) cover [0, t) exactly once, and
    the net count u of x-tiles is the residue with -y/g < 2u <= y/g."""
    tiles = _segment_pair(x, y, t)
    ends: Counter = Counter()
    for which, off, c in tiles:
        ends[off] -= c
        ends[off + (x, y)[which]] += c
    assert +ends == Counter({t: 1}) and -ends == Counter({0: 1})
    u = sum(c for which, _, c in tiles if which == 0)
    m = y // math.gcd(x, y)
    assert -m < 2 * u <= m
    assert (t - u * x) % y == 0


def test_segment_pair_seeded_triples():
    rng = random.Random(1998)
    for _ in range(400):
        x, y = rng.randrange(1, 500), rng.randrange(1, 500)
        _check_segment_pair(x, y, math.gcd(x, y) * rng.randrange(1, 40))


def test_segment_pair_consecutive_fibonacci():
    # a recursive extended Euclid takes one frame per step: about 4,800
    # for a pair of 1,000-digit Fibonacci numbers
    a, b = 1, 1
    while b < 10**999:
        a, b = b, a + b
    for x, y in ((a, b), (b, a)):
        for t in (x, y, x + y):
            _check_segment_pair(x, y, t)


def test_constructors_refuse_sides_past_the_digit_bound():
    big = parse_brick("2^20000x1")  # 6,021 digits
    for make in (lambda: parallel_pack(big, big),
                 lambda: combine_witness(1, [big, brick(3, 1)]),
                 lambda: tile_witness([big], big)):
        with pytest.raises(GuardExceeded, match="digits"):
            make()


def test_combine_witness_bezout_pair():
    w = combine_witness(1, [brick(25, 3), brick(9, 8)])
    assert render_brick(w.target) == "1x24"
    assert verify_witness(w)
    # net signed slab counts realize u*25 + v*9 = 1
    u = sum(p.coeff for p in w.placements if p.proto == 0)
    v = sum(p.coeff for p in w.placements if p.proto == 1)
    assert u * 75 + v * 72 == 24  # volume identity
    assert (u // (24 // 3)) * 25 + (v // (24 // 8)) * 9 == 1


def test_combine_witness_direction_two():
    w = combine_witness(2, [brick(25, 3), brick(9, 8)])
    assert render_brick(w.target) == "225x1"
    assert verify_witness(w)


def test_combine_witness_divisor_shortcut():
    # one length divides the gcd of the rest: a single positive grid
    w = combine_witness(1, [brick(2, 3), brick(4, 5)])
    assert render_brick(w.target) == "2x15"
    assert verify_witness(w)


def test_combine_witness_three_bricks():
    w = combine_witness(1, FIG1)
    assert render_brick(w.target) == "1x120"
    assert verify_witness(w)


def test_combine_witness_random():
    rng = random.Random(92)
    for _ in range(40):
        d = rng.randrange(1, 3)
        count = rng.randrange(2, 4)
        bricks = [
            brick(*[rng.randrange(1, 10) for _ in range(d)])
            for _ in range(count)
        ]
        delta = rng.randrange(1, d + 1)
        w = combine_witness(delta, bricks)
        assert verify_witness(w)


# ---------------------------------------------------------------------------
# end-to-end generation


def test_tile_witness_fig2_targets():
    for target in [brick(3, 1), brick(2, 1)]:
        w = tile_witness(FIG2, target)
        assert w is not None
        assert w.target == target
        assert verify_witness(w)


def test_tile_witness_fig1_big_target():
    w = tile_witness(FIG1, brick(34, 11))
    assert w is not None
    assert verify_witness(w)


def test_tile_witness_fig1_multiples_are_tiled_directly():
    t0 = time.perf_counter()
    w = tile_witness(FIG1, brick(340, 110))
    assert w is not None and verify_witness(w)
    assert time.perf_counter() - t0 < 1.0
    w = tile_witness(FIG1, brick(3400, 1100))
    assert w is not None and verify_witness(w)
    assert len(w.placements) < 10**6


def test_tile_witness_none_when_untilable():
    assert tile_witness([brick(2, 2)], brick(3, 3)) is None


def test_tile_witness_positive_packing_case():
    w = tile_witness([brick(5, 5)], brick(10, 15))
    assert w is not None
    assert len(w.placements) == 6
    assert all(p.coeff == 1 for p in w.placements)


def test_domino_coloring_sweep():
    # a target with unequal checkerboard color counts (both sides odd)
    # is exactly the untilable case for the two dominoes
    dominoes = [brick(1, 2), brick(2, 1)]
    M = minimal_set(dominoes)
    for wdt in range(1, 7):
        for hgt in range(1, 7):
            w = tile_witness(dominoes, brick(wdt, hgt))
            balanced = (wdt * hgt) % 2 == 0
            assert (w is not None) == balanced
            if w is not None:
                assert verify_witness(w)


# ---------------------------------------------------------------------------
# JSON form


def test_json_round_trip():
    w = tile_witness(FIG2, brick(3, 1))
    assert witness_from_json(witness_to_json(w)) == w


def test_json_schema_and_ordering():
    w = _hand_fig2_witness()
    shuffled = TilingWitness(w.target, w.protos, w.placements[::-1])
    doc = json.loads(witness_to_json(shuffled))
    assert set(doc) == {"target", "protos", "placements"}
    assert doc["target"] == "3x1"
    assert doc["protos"] == ["3x8", "4x5", "7x3"]
    keys = [(p["proto"], tuple(p["offset"])) for p in doc["placements"]]
    assert keys == sorted(keys)


def _indented_dumps(w: TilingWitness) -> str:
    doc = {
        "target": render_brick(w.target),
        "protos": [render_brick(b) for b in w.protos],
        "placements": [
            {"proto": p.proto, "offset": list(p.offset), "coeff": p.coeff}
            for p in sorted(w.placements, key=lambda p: (p.proto, p.offset))
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_json_layout_matches_indented_dumps():
    """The placements are written from a template; the text must be the
    one json.dumps(doc, indent=2) writes."""
    fig2 = _hand_fig2_witness()
    cases = [tile_witness(FIG1, brick(34 * k, 11 * k)) for k in (1, 2, 3, 5)]
    cases += [tile_witness(FIG2, brick(3, 1)),
              TilingWitness(fig2.target, fig2.protos, fig2.placements[::-1]),
              TilingWitness(brick(2, 3), (brick(2, 3),), ())]
    rng = random.Random(5150)
    for d in range(1, 5):
        cases += _random_witnesses(rng, d)
    assert any(p.coeff < 0 for w in cases for p in w.placements)
    assert {len(w.target.sides) for w in cases} == {1, 2, 3, 4}
    for w in cases:
        assert witness_to_json(w) == _indented_dumps(w)


def test_json_rejects_malformed():
    with pytest.raises((KeyError, ValueError)):
        witness_from_json("{}")
