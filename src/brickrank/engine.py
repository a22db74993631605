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
20, renumbered in increasing order), naturals by which tests "p^e
divides v" they pass, one bit per set of inputs that such a test tells
apart from the rest.  A natural code is exact only on the sublattice
the codec's values generate, and every caller encodes only those values.
_BrickCodec puts a brick's side codes at a fixed bit stride in one int
row and decodes each distinct side code once; rank counts the closure's
rows and decodes none.

One closure engine computes the fixpoint.  It encodes each brick once
and runs every direction on the rows.  In a fixed direction cix is
commutative, associative and idempotent, so the closure grows one input
at a time: each input is combined with every live row.  While the live
set has held at most _SLICE_AT rows, each divisibility test is one AND
per row.  Past that the rows are bit-sliced, one int per row bit with a
bit per row that lacks it (Biham's bit-slicing; closure rows are mostly
ones, so the bits a row lacks are the fewer), so finding the live rows
that divide a candidate, or that it divides, takes one AND or OR per
irreducible bit of its side codes.
With the trace on, each new row records the live row and the input it
came from, so a derivation trace (needed to rebuild explicit tilings)
comes from the same run.  The closure drops every brick another brick
divides as it goes, which leaves the minimal set unchanged because
combines are monotone in each argument; so its live rows are M(P).
minimal_elements runs the same tests on rows of the same codec; a
set is an antichain exactly when minimal_elements gives it back.

One tilability decision needs less than M(P).  Joining with a fixed
element of a distributive lattice is a lattice homomorphism, so
psi_T(b) = (b_1 v T_1, ..., b_d v T_d) commutes with cix in every
direction and Cl(psi_T P) = psi_T(Cl P).  A brick c divides T exactly
when psi_T(c) = T, so T is tilable exactly when T lies in Cl(psi_T P),
whose least element T then is.  decide encodes T and the protos once
and lifts on rows, ORing T's row into each; the codec is exact on the
sublattice their sides generate, which holds every b v T and every
combine of those.  It closes directions 1 to d - 1 and answers
direction d by one pass over the live rows, so d = 1 runs no closure; a
proto that divides T answers before any codec.  Every closure row is a
lattice term in the lifted rows, so it lies above their meet, the AND
of their rows; the closure's meet is that same meet, so when it is not
T's row the answer is no before any closure.
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
        return render_nat(a)

    @staticmethod
    def side_codec(values):
        """Test codes: one bit per set of values that pass a test "p^e
        divides v" when some but not all of them do, shared by every test
        that exactly those values pass (Birkhoff: 2^n - 2 bits for n
        values in general position).  A lattice term u in the values
        passes such a test as the same monotone Boolean function of which
        values pass it, whatever p^e is, so on the sublattice the values
        generate the code is exact: gcd is AND, lcm is OR, divisibility
        is bit subset.  Every caller encodes only those values.  A
        prime's tests are nested, so u's exponent of p has the rank, among
        those p takes in values (0 where a value lacks p), of the count of
        p's test bits u has.  Test a implies test b when a's values are a
        subset of b's, so a code is spanned by its least ones and its
        greatest zeros in that order.  The order tables among the sets
        are built at the first probe: a codec that never slices rows
        never probes."""
        values = list(set(values))
        every = (1 << len(values)) - 1
        # p -> e -> the values in which p has exponent e
        by_exp: dict[int, dict[int, int]] = {}
        for i, v in enumerate(values):
            for p, e in v.factors:
                masks = by_exp.setdefault(p, {})
                masks[e] = masks.get(e, 0) | 1 << i
        bit = {}  # set of values -> its bit
        enc = {}  # (p, e) -> the bits of the tests that p^e passes
        primes = []  # (p, the bits of p's tests, p's exponents in values)
        for p in sorted(by_exp):
            masks = by_exp[p]
            # the values that p^e does not divide, for each e in turn
            below = every - sum(masks.values())
            exps, code = [0] if below else [], 0
            for e in sorted(masks):
                if below:
                    code |= 1 << bit.setdefault(every - below, len(bit))
                enc[p, e] = code
                exps.append(e)
                below |= masks[e]
            primes.append((p, code, exps))
        sets = list(bit)
        full = (1 << len(sets)) - 1
        order = None  # (lower, upper), built at the first probe

        def encode(v):
            code = 0
            for f in v.factors:
                code |= enc[f]
            return code

        def decode(code):
            return FactoredNat(tuple(
                (p, e) for p, mask, exps in primes
                if (e := exps[(code & mask).bit_count()])))

        def probe(code):
            nonlocal order
            if order is None:
                order = _set_order(sets)
            lower, upper = order
            return ([j for j in _bits(code) if not lower[j] & code],
                    [j for j in _bits(~code & full) if not upper[j] & ~code])

        return len(sets), encode, decode, probe


def _set_order(sets):
    """For each set s of sets, as bit masks over the positions of sets:
    the other sets within s, and those s lies within."""
    lower, upper = [0] * len(sets), [0] * len(sets)
    for j, s in enumerate(sets):
        for k, t in enumerate(sets[:j]):
            if (u := s | t) == s:  # t within s
                lower[j] |= 1 << k
                upper[k] |= 1 << j
            elif u == t:
                lower[k] |= 1 << j
                upper[j] |= 1 << k
    return lower, upper


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
    An int or string side is brick text of one side: a nat literal, or
    (phrase)."""
    conv = []
    for s in sides:
        if isinstance(s, (int, str)):
            b = parse_brick(str(s))
            if b.dim != 1:
                raise BrickParseError(f"one side expected, got {s!r}")
            s = b.sides[0]
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


def _canonical(bricks, empty: str) -> tuple[int, list[Brick]]:
    """The dimension and the distinct bricks of a non-empty set of one
    shape, in brick_sort_key order.  No bricks raise ValueError(empty);
    the shape is checked before the sort, which cannot order two
    lattices."""
    bl = list(bricks)
    if not bl:
        raise ValueError(empty)
    d = _check_same_shape(bl)
    return d, sorted(set(bl), key=brick_sort_key)


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
    """Bricks of one shape (the caller checks) as int rows.  Side i of a
    brick holds bits [i * stride, (i + 1) * stride) of its row: the side's
    code under its lattice's side_codec, built from every side given.
    Natural codes are exact only on the sublattice those sides generate,
    which holds every combine of the bricks, so callers encode no other
    natural; phrase codes are exact on every phrase over the letters.
    Meet, join and divisibility act side by side, so on rows cix is AND
    on the delta field and OR elsewhere, and divisibility is bit subset.
    Each distinct side code is decoded, probed and split into its unset
    bits once.

    Side codes are down-sets of a bit order, so probe(code) gives the
    ones and the zeros that span the rest: a code holds another exactly
    when it has the other's probed ones, and lies within it exactly when
    it has none of the other's probed zeros."""

    def __init__(self, bricks):
        self.dim = bricks[0].dim
        self.stride, self.encode_side, decode, probe = lattice_of(
            bricks[0]).side_codec([s for b in bricks for s in b.sides])
        self.decode_side = functools.cache(decode)
        self.probe = functools.cache(probe)
        self.ones = ones = (1 << self.stride) - 1
        # as arrays: a table over 20 letters has half a million unset bits
        self.zeros = functools.cache(lambda code: array("I", _bits(code ^ ones)))

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


# the most slots a _Slices tests row by row; past it the rows are sliced
_SLICE_AT = 12


class _Slices:
    """Rows of one codec in slots, with alive marking the slots still
    held.  Up to _SLICE_AT slots each test scans the rows one by one;
    once the slot count passes it the rows are bit-sliced by slot: bit s
    of cols[i][k] says whether the row in slot s lacks bit k of side i.
    Closure rows are mostly ones, so slicing the bits a row lacks sets
    fewer bits per row.  Both ways give the same slot masks."""

    def __init__(self, codec: _BrickCodec, rows=()):
        self.codec, self.rows, self.alive, self.cols = codec, [], 0, None
        for row in rows:
            self.add(row)

    def add(self, row: int) -> int:
        """Hold row in a new slot, and return the slot."""
        s = len(self.rows)
        self.rows.append(row)
        self.alive |= 1 << s
        if self.cols is not None:
            self._slice_row(s)
        elif s == _SLICE_AT:
            self._slice()
        return s

    def _slice(self) -> None:
        """Build the columns, from the live slots."""
        codec = self.codec
        self.cols = [[0] * codec.stride for _ in range(codec.dim)]
        sides = [(cols, i * codec.stride) for i, cols in enumerate(self.cols)]
        # delta -> (cols, offset) of side delta, or of every side
        self.by_side = {None: sides}
        self.by_side.update((i, [c]) for i, c in enumerate(sides, 1))
        for s in _bits(self.alive):
            self._slice_row(s)

    def _slice_row(self, s: int) -> None:
        bit, zeros = 1 << s, self.codec.zeros
        for cols, code in zip(self.cols, self.codec.sides(self.rows[s])):
            for k in zeros(code):
                cols[k] |= bit

    def live(self) -> list[int]:
        return [self.rows[s] for s in _bits(self.alive)]

    def below(self, row: int, delta: int | None = None) -> int:
        """The live slots whose rows divide row, on side delta or all."""
        if self.cols is None:
            out = ~row
            if delta is not None:
                out &= self.codec.side_mask(delta)
            hit = 0
            for s, r in enumerate(self.rows):
                if not r & out:
                    hit |= 1 << s
            return self.alive & hit
        probe, ones, hit = self.codec.probe, self.codec.ones, self.alive
        for cols, at in self.by_side[delta]:
            for k in probe(row >> at & ones)[1]:
                hit &= cols[k]
        return hit

    def above(self, row: int, delta: int | None = None) -> int:
        """The live slots whose rows row divides, on side delta or all."""
        if self.cols is None:
            need = row
            if delta is not None:
                need &= self.codec.side_mask(delta)
            hit = 0
            for s, r in enumerate(self.rows):
                if not need & ~r:
                    hit |= 1 << s
            return self.alive & hit
        probe, ones, miss = self.codec.probe, self.codec.ones, 0
        for cols, at in self.by_side[delta]:
            for k in probe(row >> at & ones)[0]:
                miss |= cols[k]
        return self.alive & ~miss


# ---------------------------------------------------------------------------
# the closure

# cap on the live bricks of a closure, an antichain, checked after each step
_CLOSURE_CAP = 5_000_000


def _close(delta, rows, codec, derived, inputs):
    """The minimal rows of the closure of distinct rows under cix in
    direction delta, adding one input at a time.

    cix in a fixed direction is commutative, associative and idempotent,
    so adding an input b to the closure C of the inputs before it gives
    C + b + cix(C, b), and by monotonicity the minimal elements of that
    are those of live + b + cix(live, b).  Each step is one block of
    candidates.  Before any subset test, a live row m is skipped when m
    divides cix(m, b) (m_delta within b_delta) or b does (b_delta within
    m_delta).  The rest are deduped and taken in turn: one that a live
    row divides is rejected, any other evicts the live rows it divides
    and goes live.  The live rows are sliced again, in order, once
    evicted slots outnumber them.  Returns the live rows.  When derived
    is a list, each kept row c = cix(m, b) not in inputs is appended to
    it as (delta, c, m, b).
    """
    other = ~codec.side_mask(delta)
    live = _Slices(codec, rows[:1])
    for b in rows[1:]:
        if live.below(b):
            continue  # a live row divides b, and so every cix(m, b)
        par = live.alive & ~live.below(b, delta) & ~live.above(b, delta)
        par = [live.rows[s] for s in _bits(par)]
        # b leads the block, so row i > 0 is cix(par[i - 1], b)
        bm, bo = b | other, b & other
        block = [b] + [m & bm | bo for m in par]
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
        if size > _CLOSURE_CAP:
            raise GuardExceeded("closure exceeded the size cap")
        if derived is not None:
            derived.extend((delta, block[i], par[i - 1], b) for i in pick
                           if i and block[i] not in inputs)
    return live.live()


def _closed(bricks, delta, trace, progress):
    """Close a non-empty proto-set of one shape under cix in direction
    delta, or in every direction in turn when delta is None, on packed
    rows under one codec: the side codes of the inputs are closed under
    AND and OR, so a codec built from the inputs encodes every combine.
    Trace entries go in the order the rows were made, keeping any
    derivation already there, and never name an input of this or an
    earlier pass.  Returns the codec and the live rows."""
    d, start = _canonical(bricks, "closure of an empty proto-set")
    if delta is not None and not 1 <= delta <= d:
        raise ValueError(f"direction {delta} outside 1..{d}")
    codec = _BrickCodec(start)
    rows = codec.rows(start)
    derived = [] if trace is not None else None
    inputs = set(rows) if trace is not None else None
    for delta in range(1, d + 1) if delta is None else (delta,):
        rows = _close(delta, rows, codec, derived, inputs)
        if trace is not None:
            inputs.update(rows)
        if progress is not None:
            progress(f"direction {delta}/{d}: {len(rows)} bricks")
    if trace is not None:
        decode = codec.decode
        for delta, c, a, b in derived:
            trace.setdefault(decode(c), (delta, decode(a), decode(b)))
    return codec, rows


def _closure(bricks, delta, trace):
    """The bricks of _closed, in canonical order."""
    codec, rows = _closed(bricks, delta, trace, None)
    return sorted(map(codec.decode, rows), key=brick_sort_key)


def ext_dir(delta: int, bricks, trace: dict | None = None):
    """Close a proto-set under cix in one direction: the minimal ones
    among the combines of its non-void subsets, in canonical order."""
    return _closure(bricks, delta, trace)


def ext_all(bricks, trace: dict | None = None):
    """One closure pass per direction, in order.  The direction operators
    commute and are idempotent, so a single sweep reaches the fixpoint."""
    return _closure(bricks, None, trace)


# ---------------------------------------------------------------------------
# antichains, minimal sets, tilability


def minimal_elements(bricks) -> tuple[Brick, ...]:
    """The bricks of S no other brick of S strictly divides, in canonical
    order: those whose row no other row lies within."""
    _, bl = _canonical(bricks, "minimal_elements of an empty set")
    codec = _BrickCodec(bl)
    rows = codec.rows(bl)
    below = _Slices(codec, rows).below
    return tuple(b for s, (b, row) in enumerate(zip(bl, rows))
                 if below(row) == 1 << s)


def minimal_set(bricks, trace: dict | None = None) -> tuple[Brick, ...]:
    """The minimal tilable set M(P) in canonical order: the minimal
    elements of the full combine closure, which are the bricks the closure
    keeps live.  Finite, an antichain, and the complete tilability
    criterion for P."""
    return tuple(ext_all(bricks, trace=trace))


def rank(bricks, progress=None) -> int:
    """|M(P)|: the number of minimal tilable bricks of the proto-set,
    counted on the closure's rows without decoding any."""
    return len(_closed(bricks, None, None, progress)[1])


def is_tilable(target: Brick, minimal) -> bool:
    """Signed-tilability decision: some minimal brick divides the target."""
    return any(brick_divides(m, target) for m in minimal)


def decide(target: Brick, protos) -> bool:
    """Signed-tilability decision without M(P): close the protos joined
    with the target in every direction but the last, and answer the last
    by one pass over the live rows.

    psi_T(b) = b v T side by side commutes with every cix, so the closure
    of psi_T(P) is psi_T of the closure of P, and c divides T exactly when
    psi_T(c) = T.  T, the least element of that closure, is in it exactly
    when T is tilable.  Every row of the closure lies above the meet of
    the lifted protos, and T below it, so T is out of reach unless that
    meet is T.

    One sweep of directions reaches the fixpoint, so T is in the closure
    exactly when it is a direction-d combine of a set S of rows of the
    closure C in directions 1 to d - 1.  Every row lies above T, so the
    join of S off side d is T's there exactly when every row of S equals
    T off side d, and the combine is T exactly when those rows meet to T
    on side d.  The rows equal to T off side d meet to T if any set of
    them does.  A row of C that is not minimal lies above a minimal one,
    which lies above T and so also equals T off side d: the live rows
    among them have the same meet as all of them.  The same pass in an
    earlier direction finds T sooner when it is already a combine there.
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
    if any(all(map(lat.leq, b.sides, target.sides)) for b in bl):
        return True  # a proto divides the target
    codec = _BrickCodec([target] + bl)
    goal, *rows = codec.rows([target] + bl)
    rows = list(dict.fromkeys(r | goal for r in rows))
    if functools.reduce(int.__and__, rows) != goal:
        return False  # every closure row lies above the lifted protos' meet
    for delta in range(1, d + 1):
        other = ~codec.side_mask(delta)
        on_t = [r for r in rows if r & other == goal & other]
        if on_t and functools.reduce(int.__and__, on_t) == goal:
            return True
        if delta < d:
            rows = _close(delta, rows, codec, None, None)
    return False


# ---------------------------------------------------------------------------
# brick text


def render_brick(b: Brick) -> str:
    """Numeric sides in nat-literal form joined by x; symbolic sides are
    each parenthesized, e.g. 25x3 and (wx)x(w+x)."""
    lat = lattice_of(b)
    return "x".join(lat.render_side(s) for s in b.sides)


_SYM_BRICK_RE = re.compile(r"^\(([^()]*)\)(?:x\(([^()]*)\))*$")


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
