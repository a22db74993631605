import math
import random

import pytest

from brickrank.numlat import (
    ONE,
    FactoredNat,
    GuardExceeded,
    ParseError,
    divides_nat,
    first_primes,
    gcd_nat,
    is_probable_prime,
    lcm_nat,
    nat,
    nat_from_factors,
    parse_nat,
    render_nat,
)


def test_nat_small_values():
    assert nat(1) is not None and nat(1).factors == ()
    assert nat(12).factors == ((2, 2), (3, 1))
    assert nat(97).factors == ((97, 1),)
    assert int(nat(720)) == 720


def _factor_by_every_integer(k):
    """Trial division by 2, 3, 4, ... up to the square root."""
    pairs, p = [], 2
    while p * p <= k:
        e = 0
        while k % p == 0:
            k //= p
            e += 1
        if e:
            pairs.append((p, e))
        p += 1
    return tuple(pairs) + (((k, 1),) if k > 1 else ())


def test_nat_wheel_matches_plain_trial_division():
    for k in range(1, 20_000):
        assert nat(k).factors == _factor_by_every_integer(k), k


@pytest.mark.parametrize("k, factors", [
    (999_999_999_989, ((999_999_999_989, 1),)),  # the largest 12-digit prime
    (999_983 ** 2, ((999_983, 2),)),
    (999_979 * 999_983, ((999_979, 1), (999_983, 1))),
    # where the prime table ends and the wheel takes over
    (991 * 997, ((991, 1), (997, 1))),
    (997 ** 2, ((997, 2),)),
    (1009 ** 2, ((1009, 2),)),
    (997 * 1009, ((997, 1), (1009, 1))),
])
def test_nat_factors_near_the_bound(k, factors):
    assert nat(k).factors == factors


def test_nat_rejects_nonpositive_and_huge():
    with pytest.raises(ValueError):
        nat(0)
    with pytest.raises(ValueError):
        nat(-6)
    with pytest.raises(ValueError):
        nat(10**12 + 1)


def test_factored_nat_canonical_form_enforced():
    with pytest.raises(ValueError):
        FactoredNat(((3, 1), (2, 1)))  # out of order
    with pytest.raises(ValueError):
        FactoredNat(((2, 0),))  # zero exponent
    with pytest.raises(ValueError):
        FactoredNat(((1, 2),))  # 1 is not a prime


def test_nat_from_factors():
    assert nat_from_factors({2: 3, 5: 1}) == nat(40)
    assert nat_from_factors([(7, 0), (3, 2)]) == nat(9)
    with pytest.raises(ValueError):
        nat_from_factors({4: 1})


def test_nat_from_factors_rejects_negative_exponents():
    with pytest.raises(ParseError, match="negative exponent for 2"):
        nat_from_factors({2: -1})


def test_gcd_lcm_against_euclid():
    rng = random.Random(20260818)
    for _ in range(1000):
        a = rng.randrange(1, 10**6)
        b = rng.randrange(1, 10**6)
        fa, fb = nat(a), nat(b)
        assert int(gcd_nat(fa, fb)) == math.gcd(a, b)
        assert int(lcm_nat(fa, fb)) == a * b // math.gcd(a, b)
        assert divides_nat(fa, fb) == (b % a == 0)


def test_one_is_identity():
    x = nat(360)
    assert gcd_nat(ONE, x) == ONE
    assert lcm_nat(ONE, x) == x
    assert divides_nat(ONE, x)
    assert not divides_nat(x, ONE)


def test_lattice_ops_beyond_word_size():
    # exponents from the worst-case construction overflow u64 quickly
    big = nat_from_factors({2: 120, 3: 24, 5: 6})
    bigger = nat_from_factors({2: 24, 3: 120, 7: 1})
    g = gcd_nat(big, bigger)
    l = lcm_nat(big, bigger)
    assert g.factors == ((2, 24), (3, 24))
    assert l.factors == ((2, 120), (3, 120), (5, 6), (7, 1))
    assert divides_nat(g, big) and divides_nat(g, bigger)
    assert divides_nat(big, l) and divides_nat(bigger, l)


def test_exponent_lookup():
    x = nat(2**5 * 7**2)
    assert x.exponent(2) == 5
    assert x.exponent(7) == 2
    assert x.exponent(3) == 0


def test_first_primes():
    assert first_primes(10) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(first_primes(120)) == 120  # enough for n = 5 worst cases
    assert first_primes(120)[119] == 659
    # against a search that tests each odd number in turn
    primes = [2]
    for c in range(3, 8000, 2):
        if is_probable_prime(c):
            primes.append(c)
    assert len(primes) > 1000
    for k in range(1001):
        assert first_primes(k) == primes[:k], k


def test_order_expands_no_quotient_past_the_bound():
    # 2^p and 3^q for convergents p/q of log2(3): logs within the slack
    a, b = FactoredNat(((2, 301994),)), FactoredNat(((3, 190537),))
    assert abs(a.log - b.log) < 1e-9 * a.log  # 90,909-digit quotients
    assert (a < b) == (a.value < b.value)
    assert (b < a) == (b.value < a.value)
    a, b = FactoredNat(((2, 16785921),)), FactoredNat(((3, 10590737),))
    with pytest.raises(GuardExceeded, match="digits"):
        a < b  # 5,053,066-digit quotients
    with pytest.raises(TypeError):
        a < 3


def test_is_probable_prime_small_sweep():
    def sieve(limit):
        flags = [True] * limit
        flags[0] = flags[1] = False
        for i in range(2, int(limit**0.5) + 1):
            if flags[i]:
                for j in range(i * i, limit, i):
                    flags[j] = False
        return flags

    flags = sieve(10000)
    for k in range(10000):
        assert is_probable_prime(k) == flags[k], k


def test_parse_nat_decimal():
    assert parse_nat("24") == nat(24)
    assert parse_nat("1") == ONE


def test_parse_nat_factored():
    assert parse_nat("2^1*3^1*5^2") == nat(150)
    assert parse_nat("659^1") == nat(659)


def test_parse_nat_rejects_garbage():
    for bad in ["", "0", "-3", "24x7", "3^1*2^1", "2^0", "4^2", "2^1*2^1"]:
        with pytest.raises(ParseError):
            parse_nat(bad)


def test_parse_nat_refuses_over_long_numbers():
    """int() reads at most 4,300 digits; a longer number is a parse error."""
    long = "1" + "0" * 5000
    for bad in (long, f"2^{long}", f"{long}^1", f"2^1*{long}^1"):
        with pytest.raises(ParseError):
            parse_nat(bad)


# the least strong pseudoprime to all twelve bases of is_probable_prime,
# 2 to 37 (Sorenson and Webster 2015)
PSEUDOPRIME = 318665857834031151167461


def test_prime_bases_must_lie_below_the_proved_bound():
    assert PSEUDOPRIME == 399165290221 * 798330580441
    assert is_probable_prime(PSEUDOPRIME)  # why it must be refused
    below = PSEUDOPRIME - 20  # the largest prime below it
    assert parse_nat(f"{below}^1").factors == ((below, 1),)
    assert parse_nat("399165290221^1").factors == ((399165290221, 1),)
    assert nat_from_factors({399165290221: 2}).factors == ((399165290221, 2),)
    # psi_13 = 1287836182261 * 2575672364521 passes base 41 as well
    for base in (PSEUDOPRIME, 3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ParseError, match="too large"):
            parse_nat(f"{base}^1")
        with pytest.raises(ParseError, match="too large"):
            parse_nat(f"2^1*{base}^1")
        with pytest.raises(ParseError, match="too large"):
            nat_from_factors({base: 1})


def test_render_nat_styles():
    assert render_nat(nat(150)) == "150"
    assert render_nat(ONE) == "1"
    assert render_nat(nat_from_factors({2: 200})) == "2^200"
    # decimal up to 10^12, and a far larger value is never expanded
    assert render_nat(nat(10**12)) == str(10**12)
    assert render_nat(nat_from_factors({2: 40})) == "2^40"
    vast = nat_from_factors({2: 10**17})
    assert render_nat(vast) == f"2^{10**17}"


def test_parse_render_round_trip():
    rng = random.Random(7)
    primes = first_primes(12)
    for _ in range(300):
        pairs = {
            p: rng.randrange(1, 9)
            for p in rng.sample(primes, rng.randrange(0, 5))
        }
        x = nat_from_factors(pairs)
        assert parse_nat(render_nat(x)) == x
