"""End-to-end acceptance checks, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line (visible with
pytest -s; captured output is shown on failure anyway).  The two long
n = 5 computations are opt-in: set BRICKRANK_RUN_SLOW=1 to include them.
"""

import functools
import math
import os
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from brickrank import (
    brick,
    brick_divides,
    certificate,
    check_fact_F4,
    cix,
    dual,
    enumerate_lattice,
    gcd_nat,
    geometric_maxrank,
    is_tilable,
    join,
    lattice_maxrank,
    lcm_nat,
    leq,
    meet,
    minimal_elements,
    minimal_set,
    nat,
    parse_brick,
    phrase,
    placement_count,
    rank,
    rank_polynomial,
    render_brick,
    tile_witness,
    verify_witness,
)
from brickrank.archetypes import archetype_of
from brickrank.numlat import divides_nat
from brickrank.witness import Placement, TilingWitness
from test_dedekind import monotone_count_oracle
from test_engine import unpruned_ext_dir, unpruned_minimal_set

RUN_SLOW = os.environ.get("BRICKRANK_RUN_SLOW", "").lower() in {
    "1", "true", "yes", "on",
}

FIG1 = [brick(25, 3), brick(9, 8), brick(16, 5)]
FIG2 = [brick(3, 8), brick(4, 5), brick(7, 3)]
ROTATION = [brick(2, 3, 7), brick(3, 7, 2), brick(7, 2, 3)]

ROTATION_MINIMAL = [
    "1x1x42", "1x6x21", "1x14x6", "1x21x14", "1x42x1",
    "2x3x7", "3x7x2", "6x1x14", "6x21x1", "7x2x3",
    "14x1x21", "14x6x1", "21x1x6", "21x14x1", "42x1x1",
]

# maxrank(n, d) over cube proto-sets, rows n = 1..3 for d = 2..8 and the
# n = 4 row for d = 2..6
TABLE8 = {
    1: [1, 1, 1, 1, 1, 1, 1],
    2: [4, 5, 6, 7, 8, 9, 10],
    3: [18, 36, 61, 93, 132, 178, 231],
}
TABLE8_N4 = [166, 578, 1372, 2669, 4590]

DEDEKIND = [1, 4, 18, 166, 7579]

# worst-case ranks over the full phrase lattice, rows n = 1..4 for d = 0..11
TABLE_10B = {
    1: [1] * 12,
    2: list(range(2, 14)),
    3: [3, 7, 18, 36, 61, 93, 132, 178, 231, 291, 358, 432],
    4: [4, 15, 166, 578, 1372, 2669, 4590, 7256, 10788, 15307, 20934, 27790],
}

POLYNOMIALS = {
    2: (Fraction(2), Fraction(1)),
    3: (Fraction(3), Fraction(1, 2), Fraction(7, 2)),
    4: (Fraction(4), Fraction(-56, 3), Fraction(19, 2), Fraction(121, 6)),
}


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL - {label}")
                raise
            print(f"criterion {num}: PASS - {label}")
        return run
    return deco


# the certificates of n <= 4, each built once for the whole module
_cert = functools.cache(certificate)


# ---------------------------------------------------------------------------
# 1. worked examples


@criterion(1, "worked examples: rank 1 and rank 15 minimal sets, < 1 s each")
def test_worked_examples():
    t0 = time.perf_counter()
    M1 = minimal_set(FIG1)
    assert rank(FIG1) == 1
    assert M1 == (brick(1, 1),)
    assert time.perf_counter() - t0 < 1.0

    t0 = time.perf_counter()
    MR = minimal_set(ROTATION)
    assert rank(ROTATION) == 15
    assert [render_brick(b) for b in MR] == ROTATION_MINIMAL
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. worst-case rank table over cube proto-sets


@criterion(2, "maxrank table: n <= 3 for d = 2..8 and n = 4 for d = 2..6")
def test_maxrank_table():
    for n, row in TABLE8.items():
        assert [geometric_maxrank(n, d) for d in range(2, 9)] == row, n
    assert [geometric_maxrank(4, d) for d in range(2, 7)] == TABLE8_N4


@pytest.mark.skipif(not RUN_SLOW, reason="set BRICKRANK_RUN_SLOW=1 to include")
@criterion("2 (slow)", "maxrank(5, 2) = 7579 and maxrank(5, 3) = 40517")
def test_maxrank_n5_opt_in():
    assert geometric_maxrank(5, 2, allow_big=True) == 7579
    # the geometric table meets the lattice table at n = 5, d = 3
    assert geometric_maxrank(5, 3, allow_big=True) == 40517


# ---------------------------------------------------------------------------
# 3. free-lattice sizes


@criterion(3, "lattice sizes 1, 4, 18, 166, 7579 and brute-force oracle, < 1 min")
def test_lattice_sizes():
    t0 = time.perf_counter()
    for n in range(1, 6):
        assert len(enumerate_lattice(n)) == DEDEKIND[n - 1], n
    for n in range(1, 5):
        assert monotone_count_oracle(n) == DEDEKIND[n - 1], n
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# 4. worst-case rank table over the full phrase lattice


@criterion(4, "lattice maxrank rows n <= 4 for d = 0..11, exact")
def test_lattice_maxrank_table():
    for n, row in TABLE_10B.items():
        assert [lattice_maxrank(_cert(n), d) for d in range(0, 12)] == row, n
        assert row[0] == n
        assert row[1] == 2 ** n - 1
        assert row[2] == DEDEKIND[n - 1]


# ---------------------------------------------------------------------------
# 5. rank polynomials and certificates


@criterion(5, "rank polynomials p_2..p_4 exact; max true dimension = n - 1")
def test_rank_polynomials_and_certificates():
    for n, coeffs in POLYNOMIALS.items():
        assert rank_polynomial(_cert(n)) == coeffs, n
    for n in range(1, 5):
        assert _cert(n).max_true_dim == n - 1, n


@pytest.mark.skipif(not RUN_SLOW, reason="set BRICKRANK_RUN_SLOW=1 to include")
@criterion("5 (slow)", "n = 5 polynomial, certificate size, maxrank d = 3..5")
def test_certificate_n5_opt_in():
    coeffs = (
        Fraction(5),
        Fraction(29898, 24),
        Fraction(-81241, 24),
        Fraction(48066, 24),
        Fraction(3901, 24),
    )
    cert = certificate(5, allow_big=True)
    assert rank_polynomial(cert) == coeffs
    assert cert.max_true_dim == 4
    assert len(cert.levels[-1]) == 273540
    assert lattice_maxrank(cert, 3) == 40517
    assert lattice_maxrank(cert, 4) == 120614
    assert lattice_maxrank(cert, 5) == 273540


# ---------------------------------------------------------------------------
# 6. the nested-combine brick


@criterion(6, "nested combine brick is minimal with true dimension n - 1, n <= 4")
def test_nested_brick_minimal():
    for n in range(1, 5):
        assert check_fact_F4(_cert(n)), n


# ---------------------------------------------------------------------------
# 7. counting identity


@criterion(7, "archetype placements sum to the level size at every level, n <= 4")
def test_counting_identity():
    for n in range(1, 5):
        cert = _cert(n)
        archs = set(archetype_of(b) for b in cert.levels[-1])
        for d, level in enumerate(cert.levels):
            assert sum(placement_count(a, d) for a in archs) == len(level), (n, d)


# ---------------------------------------------------------------------------
# 8. witness soundness


def _hand_witness():
    # two 3x8 and three 4x5 stacked into a 7-wide clump, minus five 7x3
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


@criterion(8, "constructed and hand-built witnesses verify by the corner identity, < 1 s")
def test_witness_soundness():
    t0 = time.perf_counter()
    w2 = tile_witness(FIG2, brick(3, 1))
    assert w2 is not None and verify_witness(w2)

    w1 = tile_witness(FIG1, brick(34, 11))
    assert w1 is not None and verify_witness(w1)

    hand = _hand_witness()
    assert verify_witness(hand)
    nets = [0, 0, 0]
    for p in hand.placements:
        nets[p.proto] += p.coeff
    assert sorted(nets) == [-5, 2, 3]
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 9. property suites


def _random_phrase(rng, n):
    words = [
        tuple(sorted(rng.sample(range(1, n + 1), rng.randrange(1, n + 1))))
        for _ in range(rng.randrange(1, 4))
    ]
    return phrase(*words)


def _random_bricks(rng, count, d, bound=40):
    return [
        brick(*[rng.randrange(1, bound) for _ in range(d)]) for _ in range(count)
    ]


@criterion(9, "property suites: lattice laws, duality, closures, oracles")
def test_property_suites():
    rng = random.Random(20260818)

    # lattice laws, 1000 random cases on phrases with up to 5 letters
    for _ in range(1000):
        n = rng.randrange(1, 6)
        a, b, c = (_random_phrase(rng, n) for _ in range(3))
        assert join(a, b) == join(b, a) and meet(a, b) == meet(b, a)
        assert join(a, a) == a and meet(a, a) == a
        assert join(a, join(b, c)) == join(join(a, b), c)
        assert meet(a, meet(b, c)) == meet(meet(a, b), c)
        assert join(a, meet(a, b)) == a and meet(a, join(a, b)) == a
        assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
        assert leq(a, b) == (join(a, b) == b) == (meet(a, b) == a)

    # the same laws on exact naturals under gcd/lcm, 1000 random cases
    for _ in range(1000):
        a, b, c = (nat(rng.randrange(1, 10 ** 6)) for _ in range(3))
        assert gcd_nat(a, b) == gcd_nat(b, a) and lcm_nat(a, b) == lcm_nat(b, a)
        assert gcd_nat(a, a) == a and lcm_nat(a, a) == a
        assert lcm_nat(a, lcm_nat(b, c)) == lcm_nat(lcm_nat(a, b), c)
        assert gcd_nat(a, lcm_nat(a, b)) == a and lcm_nat(a, gcd_nat(a, b)) == a
        assert gcd_nat(a, lcm_nat(b, c)) == lcm_nat(gcd_nat(a, b), gcd_nat(a, c))
        assert divides_nat(a, b) == (lcm_nat(a, b) == b) == (gcd_nat(a, b) == a)

    # dual involution
    for _ in range(1000):
        n = rng.randrange(1, 6)
        a, b = _random_phrase(rng, n), _random_phrase(rng, n)
        assert dual(dual(a)) == a
        assert dual(join(a, b)) == meet(dual(a), dual(b))

    # one-direction closures commute and are idempotent
    for _ in range(30):
        P = _random_bricks(rng, 4, 2, 30)
        once = unpruned_ext_dir(1, P)
        assert set(unpruned_ext_dir(1, once)) == set(once)
        ab = unpruned_ext_dir(2, unpruned_ext_dir(1, P))
        ba = unpruned_ext_dir(1, unpruned_ext_dir(2, P))
        assert set(ab) == set(ba)

    # absorption fails in three dimensions, on the record example
    w = parse_brick("(w)x(w)x(w)")
    y = parse_brick("(y)x(y)x(y)")
    got = cix(1, w, cix(2, w, y))
    assert got == parse_brick("(w)x(w)x(w+y)")
    assert got != w

    # every minimal set is an antichain that covers its inputs
    fixtures = [FIG1, FIG2, ROTATION, [brick(6, 10, 15)]]
    for _ in range(40):
        d = rng.randrange(1, 4)
        fixtures.append(_random_bricks(rng, rng.randrange(1, 5), d, 30))
    for P in fixtures:
        M = minimal_set(P)
        assert minimal_elements(M) == M
        for x, z in combinations(M, 2):
            assert not brick_divides(x, z) and not brick_divides(z, x)
        for p in P:
            assert is_tilable(p, M)
        # pruning during closure never changes the answer
        assert unpruned_minimal_set(P) == M

    # in one dimension, tilability is exactly divisibility by the gcd
    for _ in range(1000):
        P = [brick(rng.randrange(1, 200)) for _ in range(rng.randrange(1, 5))]
        t = brick(rng.randrange(1, 200))
        g = math.gcd(*[int(p.sides[0]) for p in P])
        assert is_tilable(t, minimal_set(P)) == (int(t.sides[0]) % g == 0)
