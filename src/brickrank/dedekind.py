"""The free distributive lattice on n generators, as phrases.

A phrase is a reduced sum of products of letters: an antichain of words
under inclusion, e.g. ``wx+wy+xy``.  Phrases on n letters ordered by
pointwise implication form the free distributive lattice L[n] minus its
two constants; its size is the Dedekind number of n in the convention
that starts 1, 4, 18, 166, 7579, 7828352.

Letters are plain ints >= 1.  Words are sorted tuples of letters.  A
Phrase stores its words in a fixed total order so equality, hashing and
rendering are canonical.  Rendering uses the names w, x, y, z while
every letter index is <= 4 and w1..wn beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, filterfalse, islice
import re

from .numlat import FactoredNat, GuardExceeded, gcd_nat, lcm_nat

__all__ = [
    "Phrase",
    "PhraseParseError",
    "reduce_words",
    "phrase",
    "join",
    "meet",
    "leq",
    "dual",
    "is_pure_sum",
    "phrase_alphabet",
    "word_key",
    "phrase_key",
    "render_phrase",
    "parse_phrase",
    "enumerate_lattice",
    "lattice_tables",
    "lattice_count",
    "eval_hom",
    "phrase_tt",
    "phrase_from_tt",
    "tt_extremes",
]

_COMPACT = {"w": 1, "x": 2, "y": 3, "z": 4}
_COMPACT_NAMES = "wxyz"


class PhraseParseError(ValueError):
    """Malformed phrase text."""


def word_key(w: tuple[int, ...]) -> tuple:
    """Total order on words: size first, then letter indices."""
    return (len(w), w)


@dataclass(frozen=True)
class Phrase:
    """An antichain of words, canonically ordered by word_key."""

    words: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return render_phrase(self)

    def __repr__(self) -> str:
        return f"Phrase({render_phrase(self)!r})"


def reduce_words(words) -> Phrase:
    """Reduce a word collection: dedupe, then drop any word that
    strictly contains another.  The result is the canonical antichain."""
    ws = {tuple(sorted(set(w))) for w in words}
    if not ws:
        raise ValueError("a phrase needs at least one word")
    if () in ws:
        raise ValueError("empty word")
    for w in ws:
        if w[0] < 1:
            raise ValueError(f"letters are 1-based, got {w}")
    sets = {w: frozenset(w) for w in ws}
    kept = []
    for w in ws:
        sw = sets[w]
        if not any(sets[v] < sw for v in ws if v != w):
            kept.append(w)
    return Phrase(tuple(sorted(kept, key=word_key)))


def phrase(*words) -> Phrase:
    """Convenience constructor: phrase((1,2),(3,)) -> wx+y."""
    return reduce_words(words)


def join(a: Phrase, b: Phrase) -> Phrase:
    """Least upper bound: union of the word sets, reduced."""
    return reduce_words(a.words + b.words)


def meet(a: Phrase, b: Phrase) -> Phrase:
    """Greatest lower bound: all pairwise word unions, reduced."""
    return reduce_words(u + v for u in a.words for v in b.words)


def leq(a: Phrase, b: Phrase) -> bool:
    """a <= b iff every word of a contains some word of b."""
    bsets = [frozenset(v) for v in b.words]
    return all(any(bs <= set(u) for bs in bsets) for u in a.words)


def dual(a: Phrase) -> Phrase:
    """Swap sums and products: the minimal transversals of a's words.

    An involution; self-dual phrases such as wx+wy+xy are fixed points.
    """
    trans: set[frozenset[int]] = {frozenset()}
    for w in a.words:
        grown = {t | {l} for t in trans for l in w}
        # absorption: keep inclusion-minimal transversals only
        trans = {t for t in grown if not any(u < t for u in grown)}
    return reduce_words(tuple(sorted(t)) for t in trans)


def is_pure_sum(a: Phrase) -> bool:
    """True when every word is a single letter."""
    return all(len(w) == 1 for w in a.words)


def phrase_alphabet(a: Phrase) -> frozenset[int]:
    return frozenset(l for w in a.words for l in w)


def phrase_key(a: Phrase) -> tuple:
    """Sort key: word count, then the word list."""
    return (len(a.words), tuple(word_key(w) for w in a.words))


# ---------------------------------------------------------------------------
# text form


def _letter_str(i: int, numbered: bool) -> str:
    if not numbered and 1 <= i <= 4:
        return _COMPACT_NAMES[i - 1]
    return f"w{i}"


def render_phrase(a: Phrase, n: int | None = None) -> str:
    """Canonical text: words joined by +, letters in index order.

    Compact letter names w,x,y,z apply while the alphabet stays within
    the first four letters; pass n > 4 to force the numbered form.
    """
    hi = max((l for w in a.words for l in w), default=1)
    numbered = (n or hi) > 4
    return "+".join("".join(_letter_str(l, numbered) for l in w) for w in a.words)


_TOKEN_RE = re.compile(r"w[0-9]+|[wxyz]")


def parse_phrase(text: str) -> Phrase:
    """Parse phrase text; both letter styles are accepted anywhere."""
    if not text:
        raise PhraseParseError("empty phrase text")
    words = []
    for part in text.split("+"):
        pos, letters = 0, []
        while pos < len(part):
            m = _TOKEN_RE.match(part, pos)
            if not m:
                raise PhraseParseError(f"bad letter at {part[pos:]!r} in {text!r}")
            tok = m.group(0)
            if len(tok) > 1:
                idx = int(tok[1:])
                if idx < 1:
                    raise PhraseParseError(f"letter index must be >= 1 in {text!r}")
            else:
                idx = _COMPACT[tok]
            letters.append(idx)
            pos = m.end()
        if not letters:
            raise PhraseParseError(f"empty word in {text!r}")
        words.append(tuple(letters))
    try:
        return reduce_words(words)
    except ValueError as e:
        raise PhraseParseError(str(e)) from None


# ---------------------------------------------------------------------------
# truth tables: bit v of a table over letters 1..n is the value on the
# assignment whose true letters are the set bits of v, so letter i's table
# repeats 2^(i-1) false bits then 2^(i-1) true bits.  Monotone functions
# only.  Shifting the part of a table where letter i is false left by
# 2^(i-1) moves each value to the assignment that adds i; a table is
# monotone exactly when every shifted table lies within it, and its words
# are the true assignments that no shifted table covers.  The low half of
# a table over letters 1..k+1 is the part where letter k+1 is false: a
# table is monotone exactly when both halves are monotone tables over
# letters 1..k and the low half lies within the high one (Dedekind's
# halving, which _monotone_tables runs up from no letters).


def phrase_tt(a: Phrase, n: int) -> int:
    """Truth table of a over letters 1..n as a 2**n bit int."""
    letter_tt = _letter_tables(n)
    out = 0
    for w in a.words:
        m = (1 << (1 << n)) - 1
        for l in w:
            if l > n:
                raise ValueError(f"letter {l} outside alphabet of size {n}")
            m &= letter_tt[l - 1]
        out |= m
    return out


@lru_cache(maxsize=None)
def _letter_tables(n: int) -> tuple[int, ...]:
    """The table of each letter 1..n: one more letter doubles each table,
    and the new letter's is 2^(n-1) false bits then 2^(n-1) true bits."""
    if n == 0:
        return ()
    half = 1 << n - 1
    return (tuple(t | t << half for t in _letter_tables(n - 1))
            + (((1 << half) - 1) << half,))


def _lifted(tt: int, n: int) -> int:
    """The assignments that add one letter to a true assignment of tt."""
    out = 0
    for i, t in enumerate(_letter_tables(n)):
        out |= (tt & ~t) << (1 << i)
    return out


def tt_extremes(tt: int, n: int) -> tuple[int, int]:
    """The minimal true and the maximal false assignments of a monotone
    table over letters 1..n, each as a table.  The first holds the words
    of its phrase; every true assignment lies above one of them and every
    false one below one of the second."""
    false = ~tt & ((1 << (1 << n)) - 1)
    dropped = 0
    for i, t in enumerate(_letter_tables(n)):
        dropped |= (false & t) >> (1 << i)
    return tt & ~_lifted(tt, n), false & ~dropped


def phrase_from_tt(tt: int, n: int) -> Phrase:
    """Inverse of phrase_tt: words are the minimal true assignments.
    Anything but the table of a phrase on letters 1..n raises."""
    if tt <= 0:
        raise ValueError("constant-false table is not a phrase")
    if tt & 1:
        raise ValueError("constant-true row: table is not generated by letters")
    if tt >> (1 << n):
        raise ValueError(f"table has bits beyond the 2**{n} assignments")
    shifted = _lifted(tt, n)
    if shifted & ~tt:
        raise ValueError(f"not a monotone table on {n} letters")
    bits = bin(tt & ~shifted)[:1:-1]  # bit v at index v
    words = (tuple(i + 1 for i in range(n) if m.start() >> i & 1)
             for m in re.finditer("1", bits))
    return Phrase(tuple(sorted(words, key=word_key)))


# ---------------------------------------------------------------------------
# whole-lattice enumeration and the count


def _monotone_tables(n: int) -> list[int]:
    """Every monotone table on letters 1..n, the two constants included,
    in ascending order, by Dedekind's halving: the tables on k+1 letters
    are f0 | f1 << 2^k for every pair of tables f0 within f1 on k
    letters, from the constants 0 and 1 on no letters."""
    tables = [0, 1]
    for k in range(n):
        # the tables ascend, so every f0 within f1 comes at or before f1,
        # and f1 as the high half keeps the new tables ascending
        tables = list(chain.from_iterable(
            map((f1 << (1 << k)).__or__,
                filterfalse((~f1).__and__, islice(tables, i + 1)))
            for i, f1 in enumerate(tables)))
    return tables


def lattice_tables(n: int) -> set[int]:
    """The truth tables of all phrases on letters 1..n, with no phrase
    built: the monotone tables less the two constants.  Guard:
    1 <= n <= 5."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 5:
        raise GuardExceeded(f"lattice enumeration supports n <= 5, got {n}")
    return set(_monotone_tables(n)[1:-1])


def lattice_count(n: int) -> int:
    """D(n) - 2, the number of phrases on letters 1..n, from the tables
    on n - 2 letters: a monotone table on k + 2 letters is four, f00
    within f01 and f10 within f11, one per value of the last two letters,
    so D(k + 2) sums |[0, a & b]| * |[a | b, 1]| over the monotone tables
    a = f01 and b = f10 on k letters.  Guard: 1 <= n <= 6."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 6:
        raise GuardExceeded(f"lattice count supports n <= 6, got {n}")
    if n == 1:
        return 1
    tables = _monotone_tables(n - 2)
    below = {g: sum(not f & ~g for f in tables) for g in tables}
    above = {g: sum(not g & ~f for f in tables) for g in tables}
    return sum(below[a & b] * above[a | b] for a in tables for b in tables) - 2


def enumerate_lattice(n: int) -> set[Phrase]:
    """All phrases on letters 1..n, decoded from lattice_tables.
    Guard: n <= 5, before any table is built (n = 6 would decode 7.8M
    phrases, several GB)."""
    if n > 5:
        raise GuardExceeded(f"phrase enumeration supports n <= 5, got {n}")
    return {phrase_from_tt(t, n) for t in lattice_tables(n)}


# ---------------------------------------------------------------------------
# evaluation


def eval_hom(a: Phrase, assign: dict[int, FactoredNat]) -> FactoredNat:
    """Evaluate a with + as lcm and product as gcd at the given letters.

    This is the lattice homomorphism L[n] -> (naturals, divisibility)
    fixed by the assignment; unassigned letters raise KeyError.
    """
    out: FactoredNat | None = None
    for w in a.words:
        cur: FactoredNat | None = None
        for l in w:
            v = assign[l]
            cur = v if cur is None else gcd_nat(cur, v)
        out = cur if out is None else lcm_nat(out, cur)
    if out is None:
        raise ValueError("a phrase needs at least one word")
    return out
