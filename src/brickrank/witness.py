"""Explicit signed tilings and their verification.

A witness places integer-translated copies of proto-set bricks with
integer coefficients so that the multiplicities sum to 1 on every cell
of the target box and 0 outside it.  Tiles may overlap and stick out;
only the signed sum matters.  Witnesses are built constructively:

  * a combine in direction delta reduces to a signed segment tiling of
    the gcd by the delta-sides (extended Euclid, folded left to right),
    with each segment tile thickened to a slab and parallel-packed;
  * a minimal brick reached through a chain of combines is expanded by
    replaying the chain, substituting each parent's witness into the
    child's with offsets shifted and coefficients multiplied.

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
from itertools import product
import json

import numpy as np

from .engine import (
    Brick,
    GuardExceeded,
    brick_divides,
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


def _merged(placements) -> tuple[Placement, ...]:
    """Sum coefficients per (proto, offset), drop zeros, canonical order."""
    acc: dict[tuple[int, tuple[int, ...]], int] = {}
    for p in placements:
        k = (p.proto, p.offset)
        acc[k] = acc.get(k, 0) + p.coeff
    return tuple(
        Placement(proto, off, c)
        for (proto, off), c in sorted(acc.items())
        if c != 0
    )


def _merged_arrays(proto: np.ndarray, offs: np.ndarray,
                   coeffs: np.ndarray) -> tuple[Placement, ...]:
    """_merged on column arrays (proto, offset rows, coefficients)."""
    if proto.size == 0:
        return ()
    keys = np.concatenate([proto[:, None], offs], axis=1)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    sums_in = coeffs[order]
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.any(keys[1:] != keys[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(sums_in, starts)
    keep = np.flatnonzero(sums != 0)
    out = []
    for row, c in zip(keys[starts[keep]].tolist(), sums[keep].tolist()):
        out.append(Placement(row[0], tuple(row[1:]), c))
    return tuple(out)


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


def verify_witness(w: TilingWitness, protos=None) -> bool:
    """Exact check that w is a signed tiling of its target.

    Sums the signed corners of every placement, starting from the
    target's corners negated: w is valid exactly when every corner
    cancels.  No grid is built, so the size of the boxes does not
    matter.  protos defaults to the set carried by the witness itself.
    """
    if protos is not None:
        w = TilingWitness(w.target, tuple(protos), w.placements)
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


def parallel_pack(b: Brick, target: Brick,
                  proto: int = 0) -> TilingWitness | None:
    """The all-positive witness when b divides target: a full grid of
    translated copies, one per cell of the quotient box."""
    if not brick_divides(b, target):
        return None
    bs, ts = _int_sides(b), _int_sides(target)
    counts = [t // s for s, t in zip(bs, ts)]
    placements = [
        Placement(proto, tuple(i * s for i, s in zip(idx, bs)), 1)
        for idx in product(*map(range, counts))
    ]
    return _checked(TilingWitness(target, (b,), _merged(placements)))


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g."""
    if b == 0:
        return a, 1, 0
    g, u, v = _ext_gcd(b, a % b)
    return g, v, u - (a // b) * v


def _bezout_min(a: int, b: int) -> tuple[int, int, int]:
    """Bezout pair with |u| minimal (ties to the positive residue)."""
    g, u, v = _ext_gcd(a, b)
    m = b // g
    if m > 1:
        u %= m  # now 0 <= u < m
        if u > m - u:
            u -= m
        v = (g - u * a) // b
    return g, u, v


def _segment_pair(x: int, y: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Signed tiling of [0, gcd(x, y)) by translates of [0,x) and [0,y).

    Returns (g, tiles) with tiles as (which, offset, coeff), which 0
    for x and 1 for y.  With u*x + v*y = g and v <= 0 < u the positive
    x-tiles cover [0, u*x) and the negative y-tiles cancel [g, u*x).
    """
    g, u, v = _bezout_min(x, y)
    tiles = []
    if u > 0:
        tiles += [(0, k * x, 1) for k in range(u)]
        tiles += [(1, g + k * y, -1) for k in range(-v)]
    else:
        tiles += [(1, k * y, 1) for k in range(v)]
        tiles += [(0, g + k * x, -1) for k in range(-u)]
    return g, tiles


def _segment_multi(lengths: list[int]) -> tuple[int, list[tuple[int, int, int]]]:
    """Fold _segment_pair over the lengths: a signed tiling of the
    running gcd, tiles indexed by position in lengths."""
    g = lengths[0]
    tiles = [(0, 0, 1)]
    for i, ell in enumerate(lengths[1:], start=1):
        if g % ell == 0:
            # ell divides g, so gcd(g, ell) = ell: a single ell-tile suffices
            g = ell
            tiles = [(i, 0, 1)]
            continue
        new_g, pair = _segment_pair(g, ell)
        out = []
        for which, off, c in pair:
            if which == 0:
                out += [(w2, off + o2, c * c2) for w2, o2, c2 in tiles]
            else:
                out.append((i, off, c))
        g, tiles = new_g, out
    return g, tiles


def _checked(w: TilingWitness) -> TilingWitness:
    """Constructors always self-verify; a failure here is a bug."""
    if not verify_witness(w):
        raise RuntimeError("internal error: constructed witness failed verification")
    return w


def combine_witness(delta: int, bricks: list[Brick]) -> TilingWitness:
    """A witness that the combine of bricks in direction delta is signed
    tilable by them: segment tiles along delta thickened to slabs of the
    joint lcm cross-section, each slab parallel-packed by its brick."""
    target = comb(delta, bricks)
    tsides = _int_sides(target)
    d = target.dim
    k = delta - 1
    g, seg = _segment_multi([_int_sides(b)[k] for b in bricks])
    assert g == tsides[k]
    placements = []
    for which, off, coeff in seg:
        bs = _int_sides(bricks[which])
        counts = [tsides[j] // bs[j] if j != k else 1 for j in range(d)]
        shift = [off if j == k else 0 for j in range(d)]
        placements += [
            Placement(which,
                      tuple(i * s + o for i, s, o in zip(idx, bs, shift)),
                      coeff)
            for idx in product(*map(range, counts))
        ]
    return _checked(TilingWitness(target, tuple(bricks), _merged(placements)))


def _magnitudes(placements) -> tuple[int, int]:
    """The largest |offset entry| and the largest |coefficient|."""
    return (max((abs(v) for p in placements for v in p.offset), default=0),
            max((abs(p.coeff) for p in placements), default=0))


def _substitute(outer: TilingWitness,
                inner: dict[int, tuple[Placement, ...]],
                protos: tuple[Brick, ...]) -> TilingWitness:
    """Replace each outer tile by the inner witness of its proto, shifted
    by the tile offset and scaled by the tile coefficient.

    The arithmetic runs on int64 arrays, so the offset sums and
    coefficient products are bounded first on exact integers."""
    o_off, o_coeff = _magnitudes(outer.placements)
    q_off, q_coeff = _magnitudes([q for pls in inner.values() for q in pls])
    top = np.iinfo(np.int64).max
    if o_off + q_off > top or o_coeff * q_coeff > top:
        raise GuardExceeded(
            f"substituted witness needs offsets up to {o_off + q_off} and "
            f"coefficients up to {o_coeff * q_coeff}, beyond int64"
        )
    d = outer.target.dim
    n = len(outer.placements)
    o_proto = np.fromiter((p.proto for p in outer.placements), np.int64, n)
    o_off = np.array([p.offset for p in outer.placements], np.int64)
    o_off = o_off.reshape(n, d)
    o_coeff = np.fromiter((p.coeff for p in outer.placements), np.int64, n)
    missing = set(o_proto.tolist()) - set(inner)
    if missing:
        raise KeyError(min(missing))

    parts = []
    for key, pls in inner.items():
        sel = np.flatnonzero(o_proto == key)
        if sel.size == 0 or not pls:
            continue
        m = len(pls)
        q_proto = np.fromiter((q.proto for q in pls), np.int64, m)
        q_off = np.array([q.offset for q in pls], np.int64).reshape(m, d)
        q_coeff = np.fromiter((q.coeff for q in pls), np.int64, m)
        offs = (o_off[sel][:, None, :] + q_off[None, :, :]).reshape(-1, d)
        coeffs = (o_coeff[sel][:, None] * q_coeff[None, :]).reshape(-1)
        parts.append((np.tile(q_proto, sel.size), offs, coeffs))
    if not parts:
        return TilingWitness(outer.target, protos, ())
    merged = _merged_arrays(
        np.concatenate([p[0] for p in parts]),
        np.concatenate([p[1] for p in parts]),
        np.concatenate([p[2] for p in parts]),
    )
    return TilingWitness(outer.target, protos, merged)


def tile_witness(protoset: list[Brick], target: Brick) -> TilingWitness | None:
    """An explicit signed tiling of target by the proto-set, or None.

    Computes the minimal tilable set with derivation tracing, picks the
    first minimal brick dividing the target, rebuilds that brick's
    witness by replaying its combine derivations, and parallel-packs it
    into the target.  The result is always verified before being
    returned.
    """
    protos = tuple(dict.fromkeys(protoset))
    trace: dict[Brick, tuple[int, Brick, Brick]] = {}
    M = minimal_set(protos, trace=trace)
    m = M.find_divisor(target)
    if m is None:
        return None

    base = {p: i for i, p in enumerate(protos)}
    memo: dict[Brick, tuple[Placement, ...]] = {}

    def expand(b: Brick) -> tuple[Placement, ...]:
        """Witness of b in terms of the original protos."""
        if b in base:
            return (Placement(base[b], (0,) * b.dim, 1),)
        if b in memo:
            return memo[b]
        delta, pa, pb = trace[b]
        local = combine_witness(delta, [pa, pb])
        assert local.target == b
        inner = {0: expand(pa), 1: expand(pb)}
        full = _substitute(local, inner, protos)
        memo[b] = full.placements
        return full.placements

    outer = parallel_pack(m, target)
    w = _substitute(outer, {0: expand(m)}, protos)
    return _checked(w)


# ---------------------------------------------------------------------------
# JSON form: placements ordered by proto index then offset


def witness_to_json(w: TilingWitness) -> str:
    doc = {
        "target": render_brick(w.target),
        "protos": [render_brick(b) for b in w.protos],
        "placements": [
            {"proto": p.proto, "offset": list(p.offset), "coeff": p.coeff}
            for p in sorted(w.placements, key=lambda p: (p.proto, p.offset))
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def witness_from_json(text: str) -> TilingWitness:
    doc = json.loads(text)
    protos = tuple(parse_brick(t) for t in doc["protos"])
    placements = tuple(
        Placement(int(p["proto"]), tuple(int(v) for v in p["offset"]),
                  int(p["coeff"]))
        for p in doc["placements"]
    )
    return TilingWitness(parse_brick(doc["target"]), protos,
                         _merged(placements))
