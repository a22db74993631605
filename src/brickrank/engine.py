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
subset: phrases by their truth tables over the letters in use (at most
20, renumbered in increasing order), naturals by the rank of each
prime's exponent among those the prime takes in the inputs.
_BrickCodec puts a brick's side codes at a fixed bit stride in one int
row and decodes each distinct side code once.

One closure engine computes the fixpoint.  It encodes each brick once
and runs every direction on the rows.  In a fixed direction cix is
commutative, associative and idempotent, so the closure grows one input
at a time: each input is combined with every live row.  The live rows
are bit-sliced, one int per row bit with a bit per row (Biham's
bit-slicing), so finding the live rows that divide a candidate, or that
it divides, takes one OR or AND per irreducible bit of its side codes.
With the trace on, each new row records the live row and the input it
came from, so a derivation trace (needed to rebuild explicit tilings)
comes from the same run.  Mid-closure pruning (dropping any brick
another brick divides) is on by default and does not change the
minimal set, because combines are monotone in each argument; pass
prune=False to cross-check.  minimal_elements and
BrickAntichain.validate run the same sliced test on rows of the same
codec.

One tilability decision needs less than M(P).  Joining with a fixed
element of a distributive lattice is a lattice homomorphism, so
psi_T(b) = (b_1 v T_1, ..., b_d v T_d) commutes with cix in every
direction and Cl(psi_T P) = psi_T(Cl P).  A brick c divides T exactly
when psi_T(c) = T, so T is tilable exactly when T lies in Cl(psi_T P),
whose least element T then is.  decide closes the lifted protos one
direction at a time under a codec built over T and them (a lifted
exponent never drops below T's, so rank codes shrink) and stops once
T's row is live; a proto that divides T answers before any codec.
"""

from __future__ import annotations

from array import array
import copy
from dataclasses import dataclass
import functools
import math
import re

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
    "decide",
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
    def sort_key(sides):
        return _NatOrder(sides)

    @staticmethod
    def render_side(a):
        return render_nat(a, style="auto")

    @staticmethod
    def side_codec(values):
        """Rank codes: each prime gets a field, and its exponent in a value
        is coded as r low ones, r the exponent's rank among those the
        prime takes in values (0 counts where a value lacks the prime).
        min and max never leave that set, so gcd and lcm are AND and OR.
        A field's code is its low r bits, so it is spanned by its last one
        and its first zero."""
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

        # the fields tile bits 0..nbits - 1, so each one's last bit is
        # the bit below the next one's first, or the top bit
        firsts = sum(1 << at for at, exps, _ in fields.values() if exps[1:])
        lasts = firsts >> 1 | 1 << nbits >> 1

        def probe(code):
            return (_bits(code & ~(code >> 1 & ~lasts)),
                    _bits(~code & (code << 1 | firsts) & (1 << nbits) - 1))

        return nbits, encode, decode, probe


class _NatOrder:
    """Sort key of a tuple of naturals, by value side by side, without
    expanding them: two logs further apart than their rounding error (a
    relative 1e-9 is far above it) decide, and only closer ones compare
    the exact quotients by the gcd."""

    __slots__ = ("nats",)

    def __init__(self, nats: tuple):
        self.nats = nats

    def __lt__(self, other):
        for a, b in zip(self.nats, other.nats):
            if a.factors != b.factors:
                gap = a.log - b.log
                if abs(gap) > 1e-9 * (1 + a.log + b.log):
                    return gap < 0
                g = gcd_nat(a, b)
                return _quotient(a, g) < _quotient(b, g)
        return len(self.nats) < len(other.nats)


def _quotient(a: FactoredNat, g: FactoredNat) -> int:
    """a / g for g dividing a."""
    return math.prod(p ** (e - g.exponent(p)) for p, e in a.factors)


# a phrase side over k letters is a 2^k-bit table
_MAX_LETTERS = 20


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
    def sort_key(sides):
        return tuple(map(phrase_key, sides))

    @staticmethod
    def render_side(a):
        return "(" + render_phrase(a) + ")"

    @staticmethod
    def side_codec(values):
        """Truth tables over the letters the values use, renumbered 1..k
        in increasing order, which keeps word order: meet is AND, join
        is OR.  More than _MAX_LETTERS letters raise before any table.
        A table's irreducible bits are its words and its maximal false
        assignments."""
        used = sorted({l for v in values for w in v.words for l in w})
        if len(used) > _MAX_LETTERS:
            raise GuardExceeded(f"phrase bricks use {len(used)} distinct "
                                f"letters, at most {_MAX_LETTERS} allowed")
        k, back = len(used), (0, *used)
        to = {l: r for r, l in enumerate(used, 1)}

        def relabel(p, new):
            return Phrase(tuple(tuple(new[l] for l in w) for w in p.words))

        return (1 << k, lambda v: dedekind.phrase_tt(relabel(v, to), k),
                lambda code: relabel(dedekind.phrase_from_tt(code, k), back),
                lambda code: tuple(map(_bits, dedekind.tt_extremes(code, k))))


NAT_LATTICE = _NatLattice()
PHRASE_LATTICE = _PhraseLattice()


def lattice_of(b: "Brick"):
    return NAT_LATTICE if isinstance(b.sides[0], FactoredNat) else PHRASE_LATTICE


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
    return lattice_of(b).sort_key(b.sides)


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


def _bits(x: int) -> list[int]:
    """The positions of the set bits of x, in increasing order."""
    return [m.start() for m in re.finditer("1", bin(x)[:1:-1])]


class _BrickCodec:
    """Bricks of one shape as int rows.  Side i of a brick holds bits
    [i * stride, (i + 1) * stride) of its row: the side's code under its
    lattice's side_codec, built from every side of the bricks given.
    Meet, join and divisibility act side by side, so on rows cix is AND
    on the delta field and OR elsewhere, and divisibility is bit subset.
    Each distinct side code is decoded, probed and split into bits once.

    Side codes are down-sets of a bit order, so probe(code) gives the
    ones and the zeros that span the rest: a code holds another exactly
    when it has the other's probed ones, and lies within it exactly when
    it has none of the other's probed zeros."""

    def __init__(self, bricks):
        self.dim = _check_same_shape(bricks)
        self.stride, self.encode_side, decode, probe = lattice_of(
            bricks[0]).side_codec([s for b in bricks for s in b.sides])
        self.decode_side = functools.cache(decode)
        self.probe = functools.cache(probe)
        # as arrays: a table over 20 letters has half a million set bits
        self.bits = functools.cache(lambda code: array("I", _bits(code)))
        self.ones = (1 << self.stride) - 1

    def rows(self, bricks) -> list[int]:
        return [sum(self.encode_side(s) << i * self.stride
                    for i, s in enumerate(b.sides)) for b in bricks]

    def sides(self, row: int) -> list[int]:
        return [row >> i * self.stride & self.ones for i in range(self.dim)]

    def decode(self, row: int) -> Brick:
        return Brick(tuple(map(self.decode_side, self.sides(row))))

    def widened(self, dim: int) -> "_BrickCodec":
        """The same side codec, caches and all, for rows of dim sides."""
        wide = copy.copy(self)
        wide.dim = dim
        return wide

    def side_mask(self, delta: int) -> int:
        """A row with every bit of side delta set."""
        return self.ones << (delta - 1) * self.stride


class _Slices:
    """Rows of one codec, bit-sliced by slot: bit s of cols[i][k] says
    whether the row in slot s has bit k of side i, and alive marks the
    slots still held."""

    def __init__(self, codec: _BrickCodec, rows=()):
        self.codec, self.rows, self.alive = codec, [], 0
        self.cols = [[0] * codec.stride for _ in range(codec.dim)]
        self.by_side = [(cols, i * codec.stride)
                        for i, cols in enumerate(self.cols)]
        for row in rows:
            self.add(row)

    def add(self, row: int) -> int:
        """Hold row in a new slot, and return the slot."""
        s = len(self.rows)
        bit = 1 << s
        self.rows.append(row)
        self.alive |= bit
        bits = self.codec.bits
        for cols, code in zip(self.cols, self.codec.sides(row)):
            for k in bits(code):
                cols[k] |= bit
        return s

    def live(self) -> list[int]:
        return [self.rows[s] for s in _bits(self.alive)]

    def below(self, row: int, sides=None) -> int:
        """The live slots whose rows divide row, on the given sides."""
        probe, ones, miss = self.codec.probe, self.codec.ones, 0
        for cols, at in sides or self.by_side:
            for k in probe(row >> at & ones)[1]:
                miss |= cols[k]
        return self.alive & ~miss

    def above(self, row: int, sides=None) -> int:
        """The live slots whose rows row divides, on the given sides."""
        probe, ones, hit = self.codec.probe, self.codec.ones, self.alive
        for cols, at in sides or self.by_side:
            for k in probe(row >> at & ones)[0]:
                hit &= cols[k]
        return hit


def _divisors(bricks) -> list[int]:
    """For each brick, bit i set when the i-th brick divides it."""
    codec = _BrickCodec(bricks)
    rows = codec.rows(bricks)
    return list(map(_Slices(codec, rows).below, rows))


# ---------------------------------------------------------------------------
# the closure

# cap on the bricks a closure may hold at once, checked after each step;
# mostly relevant with prune=False, where the held set is not an antichain
_CLOSURE_CAP = 5_000_000


def _close(delta, rows, codec, prune, derived, inputs):
    """Close distinct rows under cix in direction delta, adding one input
    at a time.

    cix in a fixed direction is commutative, associative and idempotent,
    so adding an input b to the closure C of the inputs before it gives
    C + b + cix(C, b), and with pruning, by monotonicity, the minimal
    elements of live + b + cix(live, b).  Each step is one block of
    candidates.  Before any subset test, a live row m is skipped when m
    divides cix(m, b) (m_delta within b_delta) or b does (b_delta within
    m_delta).  The rest are deduped and taken in turn: one that a live
    row divides is rejected, any other evicts the live rows it divides
    and goes live.  The live rows are sliced again, in order, once
    evicted slots outnumber them.  Without pruning every row not held yet
    is kept.  Returns the live rows.  When derived is a list, each kept
    row c = cix(m, b) not in inputs is appended to it as (delta, c, m, b).
    """
    other = ~codec.side_mask(delta)
    live = _Slices(codec, rows[:1]) if prune else rows[:1]
    held = set(rows[:1])  # every row of live, without pruning
    for b in rows[1:]:
        if prune:
            if live.below(b):
                continue  # a live row divides b, and so every cix(m, b)
            side = (live.by_side[delta - 1],)
            par = live.alive & ~live.below(b, side) & ~live.above(b, side)
            par = [live.rows[s] for s in _bits(par)]
        elif b in held:
            continue  # the closure already holds b and cix(live, b)
        else:
            par = live
        # b leads the block, so row i > 0 is cix(par[i - 1], b)
        bm, bo = b | other, b & other
        block = [b] + [m & bm | bo for m in par]
        if prune:
            slots = {}  # the last occurrence of each distinct row, in order
            for i in dict(zip(block, range(len(block)))).values():
                # b is first, and no live row divides it
                if not (i and live.below(block[i])):
                    live.alive &= ~live.above(block[i])
                    slots[i] = live.add(block[i])
            pick = [i for i, s in slots.items() if live.alive >> s & 1]
            size = live.alive.bit_count()
            if 2 * size < len(live.rows):
                live = _Slices(codec, live.live())
        else:
            fresh = {c: i for i, c in enumerate(block) if c not in held}
            held.update(fresh)
            pick = list(fresh.values())
            live.extend(block[i] for i in pick)
            size = len(live)
        if size > _CLOSURE_CAP:
            raise GuardExceeded("closure exceeded the size cap")
        if derived is not None:
            derived.extend((delta, block[i], par[i - 1], b) for i in pick
                           if i and block[i] not in inputs)
    return live.live() if prune else live


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
    inputs = set(rows) if trace is not None else None
    for delta in deltas:
        rows = _close(delta, rows, codec, prune, derived, inputs)
        if trace is not None:
            inputs.update(rows)
        if progress is not None:
            progress(f"direction {delta}/{codec.dim}: {len(rows)} bricks")
    decode = codec.decode
    if trace is not None:
        for delta, c, a, b in derived:
            trace.setdefault(decode(c), (delta, decode(a), decode(b)))
    return sorted(map(decode, rows), key=brick_sort_key)


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

    @staticmethod
    def of(bricks) -> "BrickAntichain":
        return BrickAntichain(tuple(sorted(set(bricks), key=brick_sort_key)))

    def __iter__(self):
        return iter(self.bricks)

    def __len__(self) -> int:
        return len(self.bricks)

    def __contains__(self, b: Brick) -> bool:
        return b in self.bricks

    def validate(self) -> None:
        """Raise if any two members are comparable (packed subset tests)."""
        bs = self.bricks
        if len(bs) <= 1:
            return
        for j, below in enumerate(_divisors(bs)):
            if others := below & ~(1 << j):
                i = _bits(others)[0]
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
    return BrickAntichain(tuple(b for s, (b, below) in enumerate(
        zip(bl, _divisors(bl))) if below == 1 << s))


def minimal_set(bricks, prune: bool = True, trace: dict | None = None,
                progress=None) -> BrickAntichain:
    """The minimal tilable set M(P): divisibility-minimal elements of the
    full combine closure.  Finite, an antichain, and the complete
    tilability criterion for P."""
    closed = ext_all(bricks, prune=prune, trace=trace, progress=progress)
    if not prune:
        return minimal_elements(closed)
    # a pruned closure is already the antichain of its minimal elements,
    # in canonical order
    return BrickAntichain(tuple(closed))


def rank(bricks) -> int:
    """|M(P)|: the number of minimal tilable bricks of the proto-set."""
    return len(minimal_set(bricks))


def is_tilable(target: Brick, minimal: BrickAntichain) -> bool:
    """Signed-tilability decision: some minimal brick divides the target."""
    if minimal.bricks:
        _check_same_shape((target,) + minimal.bricks)
    return minimal.find_divisor(target) is not None


def decide(target: Brick, protos, prune: bool = True) -> bool:
    """Signed-tilability decision without M(P): close the protos joined
    with the target, stopping once the target itself is reached.

    psi_T(b) = b v T side by side commutes with every cix, so the closure
    of psi_T(P) is psi_T of the closure of P, and c divides T exactly when
    psi_T(c) = T.  T, the least element of that closure, is in it exactly
    when T is tilable, and is then its only minimal row.
    """
    bl = list(protos)
    if not bl:
        raise ValueError("decide on an empty proto-set")
    d = _check_same_shape([target] + bl)
    lat = lattice_of(target)
    if lat is PHRASE_LATTICE:
        # every brick of the closure uses only the protos' letters, and
        # such a phrase lies below T exactly when it lies below T with
        # those letters' words kept; so the codec spans only those letters
        letters = {l for b in bl for s in b.sides for w in s.words for l in w}
        kept = [[w for w in s.words if letters.issuperset(w)]
                for s in target.sides]
        if not all(kept):
            return False  # a side no phrase over those letters is below
        target = Brick(tuple(Phrase(tuple(ws)) for ws in kept))
    lifted = list(dict.fromkeys(
        Brick(tuple(map(lat.join, b.sides, target.sides))) for b in bl))
    if target in lifted:
        return True  # a proto divides the target
    codec = _BrickCodec([target] + lifted)
    goal, *rows = codec.rows([target] + lifted)
    for delta in range(1, d + 1):
        rows = _close(delta, rows, codec, prune, None, None)
        if goal in rows:
            return True
    return False


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
