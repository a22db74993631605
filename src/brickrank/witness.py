"""Explicit signed tilings and their verification.

A witness places integer-translated copies of proto-set bricks with
integer coefficients so that the multiplicities sum to 1 on every cell
of the target box and 0 outside it.  Tiles may overlap and stick out;
only the signed sum matters.  Witnesses are built straight into the
target box T by one recursive builder on exact integers:

  * a proto dividing T fills it with a full grid of copies;
  * a brick b derived by a combine of a and a' in direction delta
    dividing T reduces to a signed segment tiling of the whole delta
    side of T by the delta-sides of a and a' (Bezout coefficients from
    a modular inverse), with each segment tile thickened to a slab of T
    and built from its parent the same way.

So a multiple of a minimal brick is tiled directly, never by copying
the brick's own witness into every cell.  Guards refuse any stage that
would list more than _MAX_PLACEMENTS placements, and any target or
proto side of more than _MAX_DIGITS digits, read from its factors.

verify_witness is the only normative check.  The difference operator
prod_j (1 - shift_j) sends the box [o, o + s) to its 2^d corners
o + s*e, e in {0, 1}^d, with sign (-1)^(d - |e|), and it is injective
on finitely supported functions.  So a witness is valid exactly when
its signed corners cancel the target's: the polynomial identity
sum c * x^o * prod_j (x_j^s_j - 1) = prod_j (x_j^t_j - 1) (Barnes 1982;
Conway and Lagarias 1990).  The check works on exact integers and costs
O(placements * 2^d), whatever the size of the boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
import json
import math

from .engine import (
    Brick,
    GuardExceeded,
    brick_divides,
    cix,
    comb,
    lattice_of,
    minimal_set,
    parse_brick,
    render_brick,
    NAT_LATTICE,
)

__all__ = [
    "Placement",
    "TilingWitness",
    "verify_witness",
    "parallel_pack",
    "combine_witness",
    "tile_witness",
    "witness_to_json",
    "witness_from_json",
]

# The most placements one construction stage may list: a segment tiling,
# a proto grid, or a node's placements before they are merged.
_MAX_PLACEMENTS = 5_000_000

# Sides below 10^_MAX_DIGITS keep a witness's numbers within CPython's
# 4,300-digit limit on writing an int as text.
_MAX_DIGITS = 4000


@dataclass(frozen=True)
class Placement:
    """One signed tile: proto index, integer offset, nonzero coefficient."""

    proto: int
    offset: tuple[int, ...]
    coeff: int


@dataclass(frozen=True)
class TilingWitness:
    """A signed tiling of target by translated proto copies."""

    target: Brick
    protos: tuple[Brick, ...]
    placements: tuple[Placement, ...]


def _int_sides(b: Brick) -> tuple[int, ...]:
    if lattice_of(b) is not NAT_LATTICE:
        raise ValueError("witnesses need numeric bricks")
    return tuple(s.value for s in b.sides)


def _check_sizes(bricks) -> None:
    """Refuse a numeric side of more than _MAX_DIGITS digits, read from
    its factors before any side is expanded."""
    for b in bricks:
        if lattice_of(b) is NAT_LATTICE and max(
                s.log for s in b.sides) >= _MAX_DIGITS * math.log(10):
            raise GuardExceeded(f"witness brick {render_brick(b)} has a side "
                                f"of more than {_MAX_DIGITS} digits")


def _num(n: int) -> str:
    return str(n) if n < 10**_MAX_DIGITS else f"a {n.bit_length()}-bit number"


def _guard(count: int, what) -> None:
    """Refuse more than _MAX_PLACEMENTS placements; calls what() only then."""
    if count > _MAX_PLACEMENTS:
        raise GuardExceeded(f"witness {what()} needs {_num(count)} "
                            f"placements (> {_MAX_PLACEMENTS})")


def _placements(acc: dict) -> tuple[Placement, ...]:
    """Placements of a (proto, offset) -> coeff sum: zeros dropped,
    canonical order."""
    return tuple(Placement(proto, off, c)
                 for (proto, off), c in sorted(acc.items()) if c)


def _add_corners(acc: dict, offsets, sides, coeffs) -> None:
    """Add coeff * x^offset * prod_j (x_j^sides_j - 1) to acc for every
    box of the given sides, one corner pattern at a time."""
    d = len(sides)
    cols = [(lo, [o + s for o in lo]) for lo, s in zip(zip(*offsets), sides)]
    signed = (coeffs, [-c for c in coeffs])
    get = acc.get
    for pick in product((0, 1), repeat=d):
        keys = zip(*(col[e] for col, e in zip(cols, pick)))
        for k, c in zip(keys, signed[(d - sum(pick)) % 2]):
            acc[k] = get(k, 0) + c


def verify_witness(w: TilingWitness) -> bool:
    """Exact check that w is a signed tiling of its target.

    Sums the signed corners of every placement, starting from the
    target's corners negated: w is valid exactly when every corner
    cancels.  No grid is built, so the size of the boxes does not
    matter.
    """
    d = w.target.dim
    tsides = _int_sides(w.target)
    psides = [_int_sides(p) for p in w.protos]
    used = {p.proto for p in w.placements}
    if not used <= set(range(len(psides))):
        return False

    acc: dict[tuple[int, ...], int] = {}
    _add_corners(acc, [(0,) * d], tsides, [-1])
    for i in used:
        ps = [p for p in w.placements if p.proto == i]
        offsets = [p.offset for p in ps]
        if len(psides[i]) != d or set(map(len, offsets)) != {d}:
            return False
        _add_corners(acc, offsets, psides[i], [p.coeff for p in ps])
    return not any(acc.values())


def _grid(sides: tuple[int, ...], box: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Offsets of copies of a brick with the given sides, one per cell of
    the quotient box, in canonical order; the sides divide box."""
    counts = [t // s for s, t in zip(sides, box)]
    _guard(math.prod(counts),
           lambda: f"grid of {'x'.join(map(_num, counts))} copies")
    return [tuple(i * s for i, s in zip(idx, sides))
            for idx in product(*map(range, counts))]


def parallel_pack(b: Brick, target: Brick) -> TilingWitness | None:
    """The all-positive witness when b divides target: a full grid of
    translated copies, one per cell of the quotient box."""
    return tile_witness((b,), target)


def _segment_pair(x: int, y: int, t: int) -> list[tuple[int, int, int]]:
    """Signed tiling of [0, t) by translates of [0, x) and [0, y), for t
    a multiple of gcd(x, y).

    Returns tiles (which, offset, coeff), which 0 for x and 1 for y.
    Takes u*x + v*y = t with |u| < y/g least (ties to u >= 0).  When u
    and v are both >= 0 the tiles lie end to end; otherwise the positive
    tiles overshoot t and the negative ones cancel the overshoot.
    """
    g = math.gcd(x, y)
    m = y // g
    u = pow(x // g, -1, m) * (t // g) % m
    if u > m - u:
        u -= m
    v = (t - u * x) // y
    _guard(abs(u) + abs(v),
           lambda: f"segment tiling of {_num(t)} by {_num(x)} and {_num(y)}")
    if u >= 0 and v >= 0:
        return ([(0, i * x, 1) for i in range(u)]
                + [(1, u * x + i * y, 1) for i in range(v)])
    if u > 0:
        return ([(0, i * x, 1) for i in range(u)]
                + [(1, t + i * y, -1) for i in range(-v)])
    return ([(1, i * y, 1) for i in range(v)]
            + [(0, t + i * x, -1) for i in range(-u)])


def _build(protos: tuple[Brick, ...], trace: dict, b: Brick,
           box: tuple[int, ...]) -> tuple[Placement, ...]:
    """Merged placements of the protos tiling box, for a brick b that
    divides box and is either a proto or has a derivation
    trace[b] = (delta, a, a') with b = cix(delta, a, a').  Each node
    sums (proto, offset) -> coeff in one dict; Placements are made once,
    at the end."""
    base = {p: i for i, p in enumerate(protos)}
    memo: dict[tuple[Brick, tuple[int, ...]], dict] = {}

    def build(b: Brick, box: tuple[int, ...]) -> dict:
        if (b, box) in memo:
            return memo[b, box]
        if b in base:
            i = base[b]
            out = {(i, off): 1 for off in _grid(_int_sides(b), box)}
        else:
            delta, *parents = trace[b]
            k = delta - 1
            sides = [_int_sides(p)[k] for p in parents]
            tiles = _segment_pair(*sides, box[k])
            slabs = [build(p, box[:k] + (s,) + box[k + 1:]).items()
                     for p, s in zip(parents, sides)]
            _guard(sum(len(slabs[which]) for which, _, _ in tiles),
                   lambda: f"slab sum for {render_brick(b)}")
            acc: dict[tuple[int, tuple[int, ...]], int] = {}
            get = acc.get
            for which, shift, c in tiles:
                for (i, off), q in slabs[which]:
                    key = (i, off[:k] + (off[k] + shift,) + off[k + 1:])
                    acc[key] = get(key, 0) + c * q
            out = {key: c for key, c in acc.items() if c}
        memo[b, box] = out
        return out

    return _placements(build(b, box))


def _witness(protos: tuple[Brick, ...], trace: dict, b: Brick,
             target: Brick) -> TilingWitness:
    """The witness _build makes of target from b, verified: every
    constructor ends here, and a failed check is a bug."""
    w = TilingWitness(target, protos,
                      _build(protos, trace, b, _int_sides(target)))
    if not verify_witness(w):
        raise RuntimeError("constructed witness failed verification")
    return w


def combine_witness(delta: int, bricks: list[Brick]) -> TilingWitness:
    """A witness that the combine of bricks in direction delta is signed
    tilable by them: the combine folded left to right, each step a
    segment tiling along delta thickened to slabs of the target."""
    target = comb(delta, bricks)
    _check_sizes((target, *bricks))
    trace: dict[Brick, tuple[int, Brick, Brick]] = {}
    acc = bricks[0]
    for b in bricks[1:]:
        c = cix(delta, acc, b)
        if c != acc:
            trace[c] = (delta, acc, b)
            acc = c
    return _witness(tuple(bricks), trace, acc, target)


def tile_witness(protoset: list[Brick], target: Brick) -> TilingWitness | None:
    """An explicit signed tiling of target by the proto-set, or None.

    Computes the minimal tilable set with derivation tracing, picks the
    first minimal brick dividing the target, and builds the target from
    that brick's combine derivations.  The result is always verified
    before being returned.
    """
    protos = tuple(dict.fromkeys(protoset))
    _check_sizes((target, *protos))
    trace: dict[Brick, tuple[int, Brick, Brick]] = {}
    m = next((m for m in minimal_set(protos, trace=trace)
              if brick_divides(m, target)), None)
    return None if m is None else _witness(protos, trace, m, target)


# ---------------------------------------------------------------------------
# JSON form: placements ordered by proto index then offset


@lru_cache(maxsize=None)
def _placement_template(d: int) -> str:
    """One placement of d offsets as json.dumps(..., indent=2) lays it
    out inside the placements list, with %d for each number."""
    offset = "[\n" + ",\n".join(["        %d"] * d) + "\n      ]" if d else "[]"
    return ('    {\n      "proto": %d,\n      "offset": ' + offset
            + ',\n      "coeff": %d\n    }')


def witness_to_json(w: TilingWitness) -> str:
    """The text json.dumps(doc, indent=2) writes.  With an indent json
    runs its pure-Python encoder, so only the head goes through it and
    each placement is filled into a template of the same layout."""
    head = json.dumps({"target": render_brick(w.target),
                       "protos": [render_brick(b) for b in w.protos],
                       "placements": []}, indent=2)
    if not w.placements:
        return head + "\n"
    rows = ",\n".join(
        _placement_template(len(p.offset)) % (p.proto, *p.offset, p.coeff)
        for p in sorted(w.placements, key=lambda p: (p.proto, p.offset)))
    return head[:-len("[]\n}")] + "[\n" + rows + "\n  ]\n}\n"


def witness_from_json(text: str) -> TilingWitness:
    doc = json.loads(text)
    protos = tuple(parse_brick(t) for t in doc["protos"])
    acc: dict[tuple[int, tuple[int, ...]], int] = {}
    for p in doc["placements"]:
        key = (int(p["proto"]), tuple(int(v) for v in p["offset"]))
        acc[key] = acc.get(key, 0) + int(p["coeff"])
    return TilingWitness(parse_brick(doc["target"]), protos, _placements(acc))
