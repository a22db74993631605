"""Worst-case proto-sets and the growth of rank with dimension.

Among all proto-sets of n bricks in dimension d, rank is maximized by
cubes over sidelengths built from the first n! primes: number the
permutations of 1..n lexicographically, give prime p_j to permutation
pi_j, and let the m-th sidelength be the product of p_j ** pi_j(m).
Any relabeling of primes gives the same rank, so this assignment is
just the fixed convention.  The resulting table starts at d = 2; the
d = 1 column is constant 1 because one gcd cube divides everything.
"""

from __future__ import annotations

from itertools import permutations

from .engine import Brick, GuardExceeded, rank
from .numlat import FactoredNat, first_primes

__all__ = [
    "worst_sidelengths",
    "worst_protoset",
    "geometric_maxrank",
    "maxrank_table",
]


def _check_guard(n: int, d: int, allow_big: bool) -> None:
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n} d={d}")
    if allow_big:
        return
    if n <= 4 and d <= 8:
        return
    if n == 5 and d <= 2:
        return
    raise GuardExceeded(
        f"maxrank n={n} d={d} exceeds the default guard "
        "(n <= 4 with d <= 8, or n = 5 with d <= 2); pass allow_big to force"
    )


def worst_sidelengths(n: int, allow_big: bool = False) -> list[FactoredNat]:
    """The n rank-maximizing sidelengths (n! primes each).  Guard n <= 5."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 5 and not allow_big:
        raise GuardExceeded(f"worst_sidelengths n={n} needs {n}! primes; "
                            "pass allow_big to force")
    perms = list(permutations(range(1, n + 1)))
    primes = first_primes(len(perms))
    out = []
    for m in range(1, n + 1):
        out.append(FactoredNat(tuple(
            (primes[j], perms[j][m - 1]) for j in range(len(perms))
        )))
    return out


def worst_protoset(n: int, d: int, allow_big: bool = False) -> list[Brick]:
    """n worst-case cubes in dimension d."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return [Brick((s,) * d) for s in worst_sidelengths(n, allow_big=allow_big)]


def geometric_maxrank(n: int, d: int, allow_big: bool = False,
                      progress=None) -> int:
    """max over proto-sets of n bricks in dimension d of rank, computed
    directly as the rank of the worst-case cubes."""
    _check_guard(n, d, allow_big)
    return rank(worst_protoset(n, d, allow_big=allow_big), progress=progress)


def maxrank_table(n_max: int, d_max: int, allow_big: bool = False,
                  progress=None) -> list[list[int]]:
    """Rows n = 1..n_max of geometric maxrank over columns d = 2..d_max."""
    if d_max < 2:
        raise ValueError(f"need d_max >= 2, got {d_max}")
    _check_guard(n_max, d_max, allow_big)  # the guarded region is a down-set
    rows = []
    for nn in range(1, n_max + 1):
        row = []
        for dd in range(2, d_max + 1):
            row.append(geometric_maxrank(nn, dd, allow_big=allow_big))
            if progress is not None:
                progress(f"maxrank({nn},{dd}) = {row[-1]}")
        rows.append(row)
    return rows

