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

verify_witness is the only normative check: a volume identity as a
fast filter, then exact integer accumulation on the bounding grid.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math

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

_DEFAULT_MAX_CELLS = 10**7


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


def _volume(b: Brick) -> int:
    v = 1
    for s in _int_sides(b):
        v *= s
    return v


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


def verify_witness(w: TilingWitness, protos=None,
                   max_cells: int = _DEFAULT_MAX_CELLS) -> bool:
    """Exact check that w is a signed tiling of its target.

    Fast-fails on the volume identity, then accumulates coefficients on
    the integer grid spanning all placements and the target: inside the
    target every cell must sum to 1, outside to 0.  protos defaults to
    the set carried by the witness itself.
    """
    if protos is not None:
        w = TilingWitness(w.target, tuple(protos), w.placements)
    d = w.target.dim
    tsides = _int_sides(w.target)
    psides = [_int_sides(p) for p in w.protos]
    pvols = [math.prod(s) for s in psides]

    # one exact pass: shape validation, volume identity, bounding box
    vol = 0
    lo = [0] * d
    hi = list(tsides)
    for p in w.placements:
        if p.proto < 0 or p.proto >= len(w.protos):
            return False
        if len(p.offset) != d or w.protos[p.proto].dim != d:
            return False
        vol += p.coeff * pvols[p.proto]
        ps = psides[p.proto]
        for j in range(d):
            o = p.offset[j]
            if o < lo[j]:
                lo[j] = o
            if o + ps[j] > hi[j]:
                hi[j] = o + ps[j]
    if vol != _volume(w.target):
        return False
    cells = math.prod(hi[j] - lo[j] for j in range(d))
    if cells > max_cells:
        raise GuardExceeded(
            f"verification grid has {cells} cells (> {max_cells}); "
            "raise max_cells to force"
        )

    # accumulate coefficients per proto on the flattened grid
    shape = [hi[j] - lo[j] for j in range(d)]
    strides = np.array(
        [math.prod(shape[j + 1:]) for j in range(d)], dtype=np.int64
    )
    flat = np.zeros(cells, dtype=np.int64)
    n = len(w.placements)
    pidx = np.fromiter((p.proto for p in w.placements), np.int64, n)
    offs = np.array([p.offset for p in w.placements], np.int64).reshape(n, d)
    offs -= np.array(lo, dtype=np.int64)
    coeffs = np.fromiter((p.coeff for p in w.placements), np.int64, n)
    for i, ps in enumerate(psides):
        sel = np.flatnonzero(pidx == i)
        if sel.size == 0:
            continue
        # flat positions of the proto box cells, then of each placement
        box = np.zeros(1, dtype=np.int64)
        for j in range(d):
            step = np.arange(ps[j], dtype=np.int64) * strides[j]
            box = (box[:, None] + step[None, :]).reshape(-1)
        base = offs[sel] @ strides
        csel = coeffs[sel]
        chunk = max(1, 4_194_304 // box.size)
        for s in range(0, sel.size, chunk):
            idx = (base[s:s + chunk, None] + box[None, :]).reshape(-1)
            np.add.at(flat, idx, np.repeat(csel[s:s + chunk], box.size))

    grid = flat.reshape(shape)
    inside = tuple(slice(-lo[j], -lo[j] + tsides[j]) for j in range(d))
    if not (grid[inside] == 1).all():
        return False
    return int(np.abs(flat).sum()) == math.prod(tsides)


def parallel_pack(b: Brick, target: Brick, proto: int = 0,
                  max_cells: int = _DEFAULT_MAX_CELLS) -> TilingWitness | None:
    """The all-positive witness when b divides target: a full grid of
    translated copies, one per cell of the quotient box."""
    if not brick_divides(b, target):
        return None
    bs, ts = _int_sides(b), _int_sides(target)
    counts = [t // s for s, t in zip(bs, ts)]
    placements = []
    idx = [0] * len(counts)
    while True:
        placements.append(
            Placement(proto, tuple(i * s for i, s in zip(idx, bs)), 1)
        )
        j = 0
        while j < len(counts):
            idx[j] += 1
            if idx[j] < counts[j]:
                break
            idx[j] = 0
            j += 1
        if j == len(counts):
            break
    return _checked(TilingWitness(target, (b,), _merged(placements)), max_cells)


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


def _checked(w: TilingWitness, max_cells: int = _DEFAULT_MAX_CELLS) -> TilingWitness:
    """Constructors always self-verify; a failure here is a bug."""
    if not verify_witness(w, max_cells=max_cells):
        raise RuntimeError("internal error: constructed witness failed verification")
    return w


def combine_witness(delta: int, bricks: list[Brick],
                    max_cells: int = _DEFAULT_MAX_CELLS) -> TilingWitness:
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
        idx = [0] * d
        while True:
            pos = tuple(
                idx[j] * bs[j] + (off if j == k else 0) for j in range(d)
            )
            placements.append(Placement(which, pos, coeff))
            j = 0
            while j < d:
                if j == k:
                    j += 1
                    continue
                idx[j] += 1
                if idx[j] < counts[j]:
                    break
                idx[j] = 0
                j += 1
            if j == d:
                break
    return _checked(TilingWitness(target, tuple(bricks), _merged(placements)),
                    max_cells)


def _substitute(outer: TilingWitness,
                inner: dict[int, tuple[Placement, ...]],
                protos: tuple[Brick, ...]) -> TilingWitness:
    """Replace each outer tile by the inner witness of its proto, shifted
    by the tile offset and scaled by the tile coefficient."""
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


def tile_witness(protoset: list[Brick], target: Brick,
                 max_cells: int = _DEFAULT_MAX_CELLS) -> TilingWitness | None:
    """An explicit signed tiling of target by the proto-set, or None.

    Computes the minimal tilable set with derivation tracing, picks the
    first minimal brick dividing the target, rebuilds that brick's
    witness by replaying its combine derivations, and parallel-packs it
    into the target.  The result is always verified before being
    returned (raising on the grid guard rather than skipping it).
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
        local = combine_witness(delta, [pa, pb], max_cells=max_cells)
        assert local.target == b
        inner = {0: expand(pa), 1: expand(pb)}
        full = _substitute(local, inner, protos)
        memo[b] = full.placements
        return full.placements

    outer = parallel_pack(m, target, max_cells=max_cells)
    w = _substitute(outer, {0: expand(m)}, protos)
    return _checked(w, max_cells=max_cells)


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
