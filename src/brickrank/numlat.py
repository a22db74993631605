"""Positive integers kept in fully factored form.

Divisibility makes the positive integers a distributive lattice with
gcd as meet and lcm as join.  Worst-case brick sidelengths are products
of the first n! primes with permuted exponents and overflow machine
words long before n = 5, so values are stored as sorted
(prime, exponent) pairs and only expanded to ``int`` on request.

Literal grammar (no whitespace):

    nat    := decimal | factor ("*" factor)*
    factor := prime "^" exponent

with primes strictly increasing left to right, e.g. ``2^1*3^1*5^2``.

Naturals compare by value, and no comparison expands a quotient of
more than _MAX_QUOTIENT_DIGITS digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count
import math
import re

__all__ = [
    "FactoredNat",
    "ONE",
    "GuardExceeded",
    "ParseError",
    "nat",
    "nat_from_factors",
    "gcd_nat",
    "lcm_nat",
    "divides_nat",
    "parse_nat",
    "render_nat",
    "first_primes",
    "is_probable_prime",
]

# Decimal literals above this bound are rejected: trial division by the
# primes below 10**6 either finishes the factorization or leaves a prime
# cofactor, and only up to (10**6)**2.
_DECIMAL_BOUND = 10**12


class ParseError(ValueError):
    """Malformed or out-of-range literal."""


class GuardExceeded(RuntimeError):
    """A feasibility guard stopped the computation; override to proceed."""


# ---------------------------------------------------------------------------
# primes

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The least strong pseudoprime to every base of _SMALL_PRIMES (Sorenson
# and Webster 2015), 399165290221 * 798330580441: below it
# is_probable_prime proves primality.
_PRIME_BOUND = 318665857834031151167461

# Quotients of 10^5 digits compare in a few ms, and the cost grows faster
# than the digits (two of 5 million take seconds).  Only logs made to agree
# to 1e-9, like 2^p and 3^q for a convergent p/q of log2(3), need them.
_MAX_QUOTIENT_DIGITS = 10**5


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin over fixed bases, deterministic for n < _PRIME_BOUND."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# the value type


@dataclass(frozen=True, order=False)
class FactoredNat:
    """A positive integer as a sorted tuple of (prime, exponent) pairs.

    The empty tuple is 1.  Exponents are >= 1 and primes strictly
    increase; equality and hashing are structural, which matches value
    equality exactly because factorizations are unique.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError(f"not a canonical factorization: {self.factors}")
            last = p

    @property
    def value(self) -> int:
        v = 1
        for p, e in self.factors:
            v *= p**e
        return v

    def __int__(self) -> int:
        return self.value

    @cached_property
    def log(self) -> float:
        """The natural log of the value, from the factors alone."""
        return math.fsum(e * math.log(p) for p, e in self.factors)

    def __lt__(self, other):
        """Order by value: two logs further apart than their rounding
        error (a relative 1e-9 is far above it) decide, and only closer
        ones compare the exact quotients by the gcd, each of at most
        _MAX_QUOTIENT_DIGITS digits by its log or GuardExceeded."""
        if not isinstance(other, FactoredNat):
            return NotImplemented
        gap = self.log - other.log
        if abs(gap) > 1e-9 * (1 + self.log + other.log):
            return gap < 0
        g = gcd_nat(self, other)
        if (max(self.log, other.log) - g.log
                > _MAX_QUOTIENT_DIGITS * math.log(10)):
            raise GuardExceeded(f"ordering {render_nat(self)} and "
                                f"{render_nat(other)} needs quotients of more "
                                f"than {_MAX_QUOTIENT_DIGITS} digits")
        return (math.prod(p ** (e - g.exponent(p)) for p, e in self.factors)
                < math.prod(p ** (e - g.exponent(p)) for p, e in other.factors))

    def exponent(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    def __repr__(self) -> str:
        return f"FactoredNat({render_nat(self)!r})"


ONE = FactoredNat(())


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n, by a sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), sieve))


# trial division takes these from a table, and larger divisors from _wheel
_TABLE_PRIMES = _primes_below(1000)


def first_primes(k: int) -> list[int]:
    """The first k primes: from the table up to its 168, else from a
    sieve up to k (ln k + ln ln k), above the k-th prime for k >= 6
    (Rosser and Schoenfeld 1962)."""
    if k <= len(_TABLE_PRIMES):
        return list(_TABLE_PRIMES[:k])
    bound = k * (math.log(k) + math.log(math.log(k)))
    return list(_primes_below(int(bound) + 1)[:k])


def _wheel():
    """Every integer from 1000 on prime to 30 (a wheel mod 30): each
    prime in increasing order, among 8 of every 30 integers.  The offsets
    from 1020 are the 8 residues prime to 30, from 1001 up to 1027."""
    for base in count(1020, 30):
        for r in (-19, -17, -13, -11, -7, -1, 1, 7):
            yield base + r


def nat(k: int) -> FactoredNat:
    """Factor a plain int (trial division; k <= 10**12)."""
    if k < 1:
        raise ValueError(f"not a positive integer: {k}")
    if k > _DECIMAL_BOUND:
        raise ValueError(
            f"{k} exceeds the factorization bound {_DECIMAL_BOUND}; "
            "construct it with nat_from_factors instead"
        )
    pairs = []
    rem = k
    for p in chain(_TABLE_PRIMES, _wheel()):
        if p * p > rem:
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            pairs.append((p, e))
    if rem > 1:
        pairs.append((rem, 1))
    return FactoredNat(tuple(pairs))


def nat_from_factors(factors: dict[int, int] | list[tuple[int, int]]) -> FactoredNat:
    """Build from {prime: exponent}.  Each base must be proved prime, so
    bases from _PRIME_BOUND up raise ParseError like composite ones."""
    items = sorted(dict(factors).items())
    for p, e in items:
        if p >= _PRIME_BOUND:
            raise ParseError(f"base {p} is too large: primality is proved "
                             f"only below {_PRIME_BOUND}")
        if not is_probable_prime(p):
            raise ParseError(f"base {p} is not prime")
        if e < 0:
            raise ParseError(f"negative exponent for {p}")
    return FactoredNat(tuple((p, e) for p, e in items if e > 0))


# ---------------------------------------------------------------------------
# lattice operations (gcd = meet, lcm = join)


def gcd_nat(a: FactoredNat, b: FactoredNat) -> FactoredNat:
    out = []
    fb = dict(b.factors)
    for p, e in a.factors:
        eb = fb.get(p, 0)
        if eb:
            out.append((p, min(e, eb)))
    return FactoredNat(tuple(out))


def lcm_nat(a: FactoredNat, b: FactoredNat) -> FactoredNat:
    merged = dict(a.factors)
    for p, e in b.factors:
        if merged.get(p, 0) < e:
            merged[p] = e
    return FactoredNat(tuple(sorted(merged.items())))


def divides_nat(a: FactoredNat, b: FactoredNat) -> bool:
    fb = dict(b.factors)
    return all(e <= fb.get(p, 0) for p, e in a.factors)


# ---------------------------------------------------------------------------
# literals

_DECIMAL_RE = re.compile(r"^(0|[1-9][0-9]*)$")
_FACTOR_RE = re.compile(r"^([1-9][0-9]*)\^([1-9][0-9]*)$")


def parse_nat(text: str) -> FactoredNat:
    """Parse a nat literal, decimal or factored."""
    if _DECIMAL_RE.match(text):
        if text == "0":
            raise ParseError(f"not a positive integer: {text!r}")
        # the length test comes first: int() refuses over 4,300 digits
        if (len(text) > len(str(_DECIMAL_BOUND))
                or (k := int(text)) > _DECIMAL_BOUND):
            raise ParseError(f"decimal literal exceeds the factorization "
                             f"bound {_DECIMAL_BOUND}; write it in factored "
                             f"form p^e*... in {text!r}")
        return nat(k)
    parts = [_FACTOR_RE.match(part) for part in text.split("*")]
    if not all(parts):
        raise ParseError(f"malformed nat literal: {text!r}")
    try:
        pairs = [(int(m[1]), int(m[2])) for m in parts]
    except ValueError:  # a base or exponent of over 4,300 digits
        raise ParseError(f"number too long in {text!r}") from None
    if any(p >= q for (p, _), (q, _) in zip(pairs, pairs[1:])):
        raise ParseError(f"primes must strictly increase: {text!r}")
    try:
        return nat_from_factors(pairs)
    except ParseError as e:
        raise ParseError(f"{e} in {text!r}") from None


def render_nat(x: FactoredNat) -> str:
    """Render a nat literal that parse_nat reads back exactly: decimal
    up to the factorization bound, p^e factors above it."""
    # e^28 > 10^12, so no value far above the bound is expanded
    if x.log < 28 and (v := x.value) <= _DECIMAL_BOUND:
        return str(v)
    return "*".join(f"{p}^{e}" for p, e in x.factors)
