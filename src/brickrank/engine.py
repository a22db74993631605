"""Bricks over a sidelength lattice and the minimal-tilable-set machinery.

A d-dimensional brick is a tuple of d sidelengths drawn from one
distributive lattice: factored naturals under divisibility, or phrases
under implication.  Brick divisibility is componentwise.  The combine
of a non-void brick set in direction delta takes the meet of the
delta-th sides and the join of every other side; the binary case is
written cix.  Closing a proto-set under cix in every direction and
keeping the divisibility-minimal elements yields the finite set that
decides tilability: a box T admits a signed tiling by the proto-set
exactly when some minimal brick divides T.

One codec packs bricks for every bit-level step.  Each lattice codes a
side as a Python int in which meet is AND, join is OR and order is bit
subset: phrases by their truth tables, naturals by the rank of each
prime's exponent among those the prime takes in the inputs.
_BrickCodec puts a brick's side codes at a fixed bit stride in a row of
64-bit words and decodes each distinct side code once.

One closure engine computes the fixpoint.  It encodes each brick once
and runs every direction on the packed rows.  In a fixed direction cix
is commutative, associative and idempotent, so the closure grows one
input at a time: each input is combined with every live row in one
numpy block.  With the trace on, each new row records the live row and
the input it came from, so a derivation trace (needed to rebuild
explicit tilings) comes from the same run.  Mid-closure pruning
(dropping any brick another brick divides) is on by default and does
not change the minimal set, because combines are monotone in each
argument; pass prune=False to cross-check.  minimal_elements and
BrickAntichain.validate run the same packed subset test on rows of the
same codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import re

import numpy as np

from . import dedekind
from .numlat import (
    FactoredNat,
    GuardExceeded,
    ParseError,
    divides_nat,
    gcd_nat,
    lcm_nat,
    parse_nat,
    render_nat,
)
from .dedekind import Phrase, parse_phrase, phrase_key, render_phrase

__all__ = [
    "Brick",
    "BrickAntichain",
    "BrickParseError",
    "DimensionMismatch",
    "GuardExceeded",
    "NAT_LATTICE",
    "PHRASE_LATTICE",
    "lattice_of",
    "brick",
    "brick_divides",
    "comb",
    "cix",
    "ext_dir",
    "ext_all",
    "minimal_elements",
    "minimal_set",
    "rank",
    "is_tilable",
    "parse_brick",
    "render_brick",
    "brick_sort_key",
]

class BrickParseError(ValueError):
    """Malformed brick text."""


class DimensionMismatch(ValueError):
    """Bricks of different dimension or sidelength type were mixed."""


# ---------------------------------------------------------------------------
# sidelength lattices


class _NatLattice:
    """Naturals under divisibility: meet gcd, join lcm."""

    name = "nat"

    @staticmethod
    def meet(a, b):
        return gcd_nat(a, b)

    @staticmethod
    def join(a, b):
        return lcm_nat(a, b)

    @staticmethod
    def leq(a, b):
        return divides_nat(a, b)

    @staticmethod
    def sort_key(a):
        return a.value

    @staticmethod
    def render_side(a):
        return render_nat(a, style="auto")

    @staticmethod
    def side_codec(values):
        """Rank codes: each prime gets a field, and its exponent in a value
        is coded as r low ones, r the exponent's rank among those the
        prime takes in values (0 counts where a value lacks the prime).
        min and max never leave that set, so gcd and lcm are AND and OR."""
        values = set(values)
        seen: dict[int, list[int]] = {}
        for v in values:
            for p, e in v.factors:
                seen.setdefault(p, []).append(e)
        fields, nbits = {}, 0  # prime -> (offset, exponents, their ranks)
        for p in sorted(seen):
            absent = {0} if len(seen[p]) < len(values) else set()
            exps = sorted(set(seen[p]) | absent)
            fields[p] = nbits, exps, {e: r for r, e in enumerate(exps)}
            nbits += len(exps) - 1

        def encode(v):
            code = 0
            for p, e in v.factors:
                at, _, rank = fields[p]
                code |= ((1 << rank[e]) - 1) << at
            return code

        def decode(code):
            pairs = []
            for p, (at, exps, _) in fields.items():
                e = exps[(code >> at & (1 << len(exps) - 1) - 1).bit_count()]
                if e:
                    pairs.append((p, e))
            return FactoredNat(tuple(pairs))

        return nbits, encode, decode


class _PhraseLattice:
    """Phrases under implication: meet is product, join is sum."""

    name = "phrase"

    @staticmethod
    def meet(a, b):
        return dedekind.meet(a, b)

    @staticmethod
    def join(a, b):
        return dedekind.join(a, b)

    @staticmethod
    def leq(a, b):
        return dedekind.leq(a, b)

    @staticmethod
    def sort_key(a):
        return phrase_key(a)

    @staticmethod
    def render_side(a):
        return "(" + render_phrase(a) + ")"

    @staticmethod
    def side_codec(values):
        """Truth tables over the joint alphabet of values: meet is AND,
        join is OR."""
        n = max((l for v in values for w in v.words for l in w), default=1)
        return (1 << n, lambda v: dedekind.phrase_tt(v, n),
                lambda code: dedekind.phrase_from_tt(code, n))


NAT_LATTICE = _NatLattice()
PHRASE_LATTICE = _PhraseLattice()


def lattice_of(b: "Brick"):
    s = b.sides[0]
    if isinstance(s, FactoredNat):
        return NAT_LATTICE
    if isinstance(s, Phrase):
        return PHRASE_LATTICE
    raise TypeError(f"unsupported sidelength type {type(s).__name__}")


# ---------------------------------------------------------------------------
# bricks


@dataclass(frozen=True)
class Brick:
    """A box: d sidelengths from one lattice, all positions meaningful."""

    sides: tuple

    def __post_init__(self):
        if not self.sides:
            raise ValueError("bricks need at least one side")
        kind = type(self.sides[0])
        if not isinstance(self.sides[0], (FactoredNat, Phrase)):
            raise TypeError(f"unsupported sidelength type {kind.__name__}")
        if any(type(s) is not kind for s in self.sides):
            raise ValueError("sides must all come from one lattice")

    @property
    def dim(self) -> int:
        return len(self.sides)

    def __str__(self) -> str:
        return render_brick(self)

    def __repr__(self) -> str:
        return f"Brick({render_brick(self)!r})"


def brick(*sides) -> Brick:
    """Convenience constructor accepting ints, literals, or lattice values.
    String sides parse like brick text: nat literals, or (phrase)."""
    conv = []
    for s in sides:
        if isinstance(s, int):
            conv.append(parse_nat(str(s)))
        elif isinstance(s, str):
            conv.append(_parse_side(s))
        else:
            conv.append(s)
    return Brick(tuple(conv))


def brick_sort_key(b: Brick):
    lat = lattice_of(b)
    return tuple(lat.sort_key(s) for s in b.sides)


def _check_same_shape(bricks) -> int:
    dims = {b.dim for b in bricks}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed dimensions {sorted(dims)}")
    kinds = {lattice_of(b).name for b in bricks}
    if len(kinds) != 1:
        raise DimensionMismatch(f"mixed sidelength lattices {sorted(kinds)}")
    return dims.pop()


def brick_divides(a: Brick, b: Brick) -> bool:
    """Componentwise divisibility; the parallel-packing order."""
    _check_same_shape((a, b))
    lat = lattice_of(a)
    return all(lat.leq(x, y) for x, y in zip(a.sides, b.sides))


def comb(delta: int, bricks) -> Brick:
    """Combine a non-void brick collection in direction delta (1-based):
    meet of the delta-th sides, join of every other side."""
    bl = list(bricks)
    if not bl:
        raise ValueError("comb of an empty collection")
    d = _check_same_shape(bl)
    if not 1 <= delta <= d:
        raise ValueError(f"direction {delta} outside 1..{d}")
    lat = lattice_of(bl[0])
    out = list(bl[0].sides)
    for b in bl[1:]:
        for i, s in enumerate(b.sides):
            out[i] = lat.meet(out[i], s) if i == delta - 1 else lat.join(out[i], s)
    return Brick(tuple(out))


def cix(delta: int, a: Brick, b: Brick) -> Brick:
    """Binary combine.  Commutative, idempotent, associative in each
    direction, and the direction operators distribute over each other;
    absorption fails from dimension 3 up, so this is not a lattice."""
    return comb(delta, (a, b))


# ---------------------------------------------------------------------------
# packed rows: meet = AND, join = OR, divides = bit subset


class _BrickCodec:
    """Bricks of one shape as rows of 64-bit words.  Side i of a brick
    holds bits [i * stride, (i + 1) * stride) of its row: the side's code
    under its lattice's side_codec, built from every side of the bricks
    given, with the rest of the last word zero.  Meet, join and
    divisibility act side by side, so on rows cix is AND on the delta
    field and OR elsewhere, and divisibility is bit subset.  Decoding
    shifts the side codes out of a row and decodes each distinct code
    once."""

    def __init__(self, bricks):
        self.dim = _check_same_shape(bricks)
        self.stride, self._encode, decode = lattice_of(bricks[0]).side_codec(
            [s for b in bricks for s in b.sides])
        self._decode = functools.cache(decode)
        self.ones = (1 << self.stride) - 1
        self.nbytes = 8 * max(1, -(-self.stride * self.dim // 64))

    def rows(self, bricks) -> np.ndarray:
        """One row of words per brick, all from one buffer."""
        buf = b"".join(
            sum(self._encode(s) << i * self.stride
                for i, s in enumerate(b.sides)).to_bytes(self.nbytes, "little")
            for b in bricks)
        return np.frombuffer(buf, dtype="<u8").reshape(len(bricks), -1)

    def decode(self, row: bytes) -> Brick:
        code = int.from_bytes(row, "little")
        return Brick(tuple(self._decode(code >> i * self.stride & self.ones)
                           for i in range(self.dim)))

    def side_mask(self, delta: int) -> np.ndarray:
        """The words of a row with every bit of side delta set."""
        mask = self.ones << (delta - 1) * self.stride
        return np.frombuffer(mask.to_bytes(self.nbytes, "little"), dtype="<u8")


def _divisor_counts(rows: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """For each candidate, the number of rows that divide it (bit subset),
    both given as uint64 word matrices; candidates go in chunks that keep
    the temporaries near a quarter million words."""
    cols = np.ascontiguousarray(rows.T)
    out = np.empty(len(cands), dtype=np.int64)
    step = max(1, (1 << 18) // rows.size)
    for s in range(0, len(cands), step):
        outside = ~cands[s:s + step].T
        miss = cols[0] & outside[0, :, None]
        for w in range(1, len(cols)):
            miss |= cols[w] & outside[w, :, None]
        out[s:s + step] = (miss == 0).sum(axis=1)
    return out


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a C-contiguous uint64 word matrix."""
    return rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel().tolist()


# ---------------------------------------------------------------------------
# the closure

# cap on the bricks a closure may hold at once, checked before a step's
# new rows are appended; mostly relevant with prune=False, where the
# held set is not an antichain
_CLOSURE_CAP = 5_000_000


def _close(delta, rows, mask, prune, derived, inputs):
    """Close distinct packed rows under cix in direction delta, whose
    bits are set in mask, adding one input at a time.

    cix in a fixed direction is commutative, associative and idempotent,
    so adding an input b to the closure C of the inputs before it gives
    C + b + cix(C, b), and with pruning, by monotonicity, the minimal
    elements of live + b + cix(live, b).  Each step is one block of
    candidates.  Before any subset test, a live row m is skipped when m
    divides cix(m, b) (m_delta within b_delta) or b does (b_delta within
    m_delta); the rest are deduped by their bytes, those a live row or
    another new row divides are rejected, and the live rows a new row
    divides are evicted.  Without pruning every row not held yet is
    kept.  Returns the live rows.  When derived is a list, each kept row
    c = cix(m, b) whose bytes are not in inputs is appended to it as
    (delta, c, m, b), rows as bytes.
    """
    other = ~mask
    live, row_keys = rows[:1], _row_keys(rows)
    held = set(row_keys[:1])  # every row of live, without pruning
    for b, bkey in zip(rows[1:], row_keys[1:]):
        if prune:
            if not (live & ~b).any(axis=1).all():
                continue  # a live row divides b, and so every cix(m, b)
            bm = b & mask
            par = live[(live & (mask & ~b)).any(axis=1)
                       & ((live & bm) != bm).any(axis=1)]
        else:
            if bkey in held:
                continue  # the closure already holds b and cix(live, b)
            par = live
        # b leads the block, so row i > 0 is cix(par[i - 1], b)
        block = np.vstack([b, (par & (b | other)) | (b & other)])
        keys = _row_keys(block)
        if prune:
            pick = np.fromiter(dict(zip(keys, range(len(keys)))).values(),
                               dtype=np.intp)
            surv = block[pick]
            pick = pick[_divisor_counts(np.vstack([live, surv]), surv) == 1]
        else:
            fresh = {k: i for i, k in enumerate(keys) if k not in held}
            held.update(fresh)
            pick = np.fromiter(fresh.values(), dtype=np.intp)
        new = block[pick]
        if prune and len(new):
            live = live[_divisor_counts(new, live) == 0]
        if len(live) + len(new) > _CLOSURE_CAP:
            raise GuardExceeded("closure exceeded the size cap")
        if derived is not None:
            pkeys = _row_keys(par)
            derived.extend((delta, keys[i], pkeys[i - 1], bkey)
                           for i in pick.tolist()
                           if i and keys[i] not in inputs)
        live = np.vstack([live, new])
    return live


def _closure(bricks, deltas, prune, trace, progress=None):
    """Close bricks in each direction of deltas in turn, on packed rows
    under one codec: the side codes of the inputs are closed under AND
    and OR, so a codec built from the inputs encodes every combine.  Trace
    entries go in the order the rows were made, keeping any derivation
    already there, and never name an input of this or an earlier pass."""
    start = sorted(set(bricks), key=brick_sort_key)
    codec = _BrickCodec(start)
    rows = codec.rows(start)
    derived = [] if trace is not None else None
    inputs = set(_row_keys(rows)) if trace is not None else None
    for delta in deltas:
        rows = _close(delta, rows, codec.side_mask(delta), prune, derived, inputs)
        if trace is not None:
            inputs.update(_row_keys(rows))
        if progress is not None:
            progress(f"direction {delta}/{codec.dim}: {len(rows)} bricks")
    decode = codec.decode
    if trace is not None:
        for delta, c, a, b in derived:
            trace.setdefault(decode(c), (delta, decode(a), decode(b)))
    return sorted(map(decode, _row_keys(rows)), key=brick_sort_key)


def ext_dir(delta: int, bricks, prune: bool = True, trace: dict | None = None):
    """Close a proto-set under cix in one direction: exactly the combines
    of its non-void subsets (minus pruned non-minimal ones when prune is
    on).  Returns bricks in canonical order."""
    bl = list(bricks)
    if not bl:
        raise ValueError("ext_dir of an empty proto-set")
    d = _check_same_shape(bl)
    if not 1 <= delta <= d:
        raise ValueError(f"direction {delta} outside 1..{d}")
    return _closure(bl, (delta,), prune, trace)


def ext_all(bricks, prune: bool = True, trace: dict | None = None,
            progress=None):
    """One closure pass per direction, in order.  The direction operators
    commute and are idempotent, so a single sweep reaches the fixpoint."""
    bl = list(bricks)
    if not bl:
        raise ValueError("ext_all of an empty proto-set")
    d = _check_same_shape(bl)
    return _closure(bl, range(1, d + 1), prune, trace, progress)


# ---------------------------------------------------------------------------
# antichains, minimal sets, tilability


@dataclass(frozen=True)
class BrickAntichain:
    """Bricks pairwise incomparable under divisibility, canonical order."""

    bricks: tuple[Brick, ...]
    _index: frozenset = field(repr=False, compare=False, default=frozenset())

    @staticmethod
    def of(bricks) -> "BrickAntichain":
        bs = tuple(sorted(set(bricks), key=brick_sort_key))
        return BrickAntichain(bs, frozenset(bs))

    def __iter__(self):
        return iter(self.bricks)

    def __len__(self) -> int:
        return len(self.bricks)

    def __contains__(self, b: Brick) -> bool:
        return b in (self._index or self.bricks)

    def validate(self) -> None:
        """Raise if any two members are comparable (packed subset tests)."""
        bs = self.bricks
        if len(bs) <= 1:
            return
        mat = _BrickCodec(bs).rows(bs)
        over = np.flatnonzero(_divisor_counts(mat, mat) > 1)
        if over.size:  # brick j has a divisor beyond itself
            j = int(over[0])
            i = next(i for i, b in enumerate(bs)
                     if i != j and brick_divides(b, bs[j]))
            raise ValueError(f"not an antichain: {bs[i]} divides {bs[j]}")

    def find_divisor(self, target: Brick) -> Brick | None:
        for m in self.bricks:
            if brick_divides(m, target):
                return m
        return None


def minimal_elements(bricks) -> BrickAntichain:
    """The bricks of S no other brick of S strictly divides."""
    bl = sorted(set(bricks), key=brick_sort_key)
    if not bl:
        raise ValueError("minimal_elements of an empty set")
    mat = _BrickCodec(bl).rows(bl)
    counts = _divisor_counts(mat, mat).tolist()
    return BrickAntichain.of(b for b, c in zip(bl, counts) if c == 1)


def minimal_set(bricks, prune: bool = True, trace: dict | None = None,
                progress=None) -> BrickAntichain:
    """The minimal tilable set M(P): divisibility-minimal elements of the
    full combine closure.  Finite, an antichain, and the complete
    tilability criterion for P."""
    closed = ext_all(bricks, prune=prune, trace=trace, progress=progress)
    # a pruned closure is already the antichain of its minimal elements
    return BrickAntichain.of(closed) if prune else minimal_elements(closed)


def rank(bricks) -> int:
    """|M(P)|: the number of minimal tilable bricks of the proto-set."""
    return len(minimal_set(bricks))


def is_tilable(target: Brick, minimal: BrickAntichain) -> bool:
    """Signed-tilability decision: some minimal brick divides the target."""
    if minimal.bricks:
        _check_same_shape((target,) + minimal.bricks)
    return minimal.find_divisor(target) is not None


# ---------------------------------------------------------------------------
# brick text


def render_brick(b: Brick) -> str:
    """Numeric sides in nat-literal form joined by x; symbolic sides are
    each parenthesized, e.g. 25x3 and (wx)x(w+x)."""
    lat = lattice_of(b)
    return "x".join(lat.render_side(s) for s in b.sides)


_SYM_BRICK_RE = re.compile(r"^\(([^()]*)\)(?:x\(([^()]*)\))*$")


def _parse_side(text: str):
    """One side in brick-text form: a nat literal or a (phrase)."""
    if text.startswith("("):
        if not (len(text) > 2 and text.endswith(")")
                and "(" not in text[1:-1] and ")" not in text[1:-1]):
            raise BrickParseError(f"malformed symbolic side: {text!r}")
        try:
            return dedekind.parse_phrase(text[1:-1])
        except dedekind.PhraseParseError as e:
            raise BrickParseError(str(e)) from None
    return parse_nat(text)


def parse_brick(text: str) -> Brick:
    """Parse brick text in either numeric or symbolic form."""
    if not text:
        raise BrickParseError("empty brick text")
    if "(" in text:
        if not _SYM_BRICK_RE.match(text):
            raise BrickParseError(f"malformed symbolic brick: {text!r}")
        parts = re.findall(r"\(([^()]*)\)", text)
        try:
            return Brick(tuple(parse_phrase(p) for p in parts))
        except dedekind.PhraseParseError as e:
            raise BrickParseError(str(e)) from None
    try:
        return Brick(tuple(parse_nat(p) for p in text.split("x")))
    except ParseError as e:
        raise BrickParseError(str(e)) from None
