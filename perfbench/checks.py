"""Answer checks that share no code with brickrank.

Every reference here is computed from first principles or from the
published numbers, never from a stored copy of the program's output:

* the rank polynomials p_3 and p_4 and the Dedekind numbers, as printed
  in the paper and in OEIS A000372;
* a reference closure over plain Python ints (gcd/lcm) and truth-table
  bitmasks (AND/OR), which decides tilability;
* the corner identity of a signed tiling,
  sum c * x^o * prod_j (x_j^s_j - 1) = prod_j (x_j^t_j - 1),
  checked on exact ints without a grid.
"""

from __future__ import annotations

import ast
import json
import math
import operator
from fractions import Fraction
from itertools import product

# Dedekind numbers M(n), OEIS A000372.  The free distributive lattice on
# n generators has M(n) - 2 elements once top and bottom are removed.
DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354)

# The paper's rank polynomials: maxrank(n, d) = p_n(d).
PAPER_POLY = {
    3: (Fraction(3), Fraction(1, 2), Fraction(7, 2)),
    4: (Fraction(4), Fraction(-112, 6), Fraction(57, 6), Fraction(121, 6)),
}


def paper_rank(n: int, d: int) -> int:
    """p_n(d) from the paper's coefficients (an integer for d >= 0)."""
    v = sum(c * d**i for i, c in enumerate(PAPER_POLY[n]))
    if v.denominator != 1:
        raise ValueError(f"p_{n}({d}) = {v} is not an integer")
    return int(v)


def free_lattice_size(n: int) -> int:
    """Phrases on n letters: the Dedekind number without top and bottom."""
    return DEDEKIND[n] - 2


# ---------------------------------------------------------------------------
# polynomial text


_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}


def eval_poly_text(text: str, d: int) -> Fraction:
    """Evaluate printed polynomial text such as '3 + 1/2*(d + 7*d^2)'
    at d, in exact arithmetic; only +, -, *, /, ^, integers and d."""

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return Fraction(node.value)
        if isinstance(node, ast.Name) and node.id == "d":
            return Fraction(d)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        raise ValueError(f"unexpected polynomial syntax in {text!r}")

    return ev(ast.parse(text.replace("^", "**"), mode="eval"))


def poly_text_is_paper(text: str, n: int) -> bool:
    """True when the text equals p_n as a polynomial: both have degree
    below n + 3, so agreement on d = 0..n+2 is equality."""
    try:
        return all(eval_poly_text(text, d) == paper_rank(n, d)
                   for d in range(n + 3))
    except (ValueError, SyntaxError, ZeroDivisionError):
        return False


# ---------------------------------------------------------------------------
# reference closure


class IntLattice:
    """Positive ints under divisibility."""

    meet = staticmethod(math.gcd)
    join = staticmethod(math.lcm)

    @staticmethod
    def leq(a: int, b: int) -> bool:
        return b % a == 0


class TruthTableLattice:
    """Monotone Boolean functions as truth-table bitmasks."""

    meet = staticmethod(operator.and_)
    join = staticmethod(operator.or_)

    @staticmethod
    def leq(a: int, b: int) -> bool:
        return a & ~b == 0


def truth_table(words, n: int) -> int:
    """Truth table over letters 1..n of a sum of products: bit v is set
    when the assignment whose true letters are the set bits of v makes
    some word true."""
    tt = 0
    for v in range(1 << n):
        if any(all(v >> (l - 1) & 1 for l in w) for w in words):
            tt |= 1 << v
    return tt


def _divides(lat, a, b) -> bool:
    return all(map(lat.leq, a, b))


def reference_minimal(bricks, lat) -> set[tuple]:
    """Minimal elements of the closure of the bricks under the binary
    combine in every direction (meet there, join elsewhere).

    Semi-naive fixpoint over the live antichain.  Dropping a brick some
    live brick divides loses nothing, because the combine is monotone in
    each argument.
    """
    d = len(bricks[0])
    live: set[tuple] = set()
    seen: set[tuple] = set()

    def admit(cands) -> list[tuple]:
        # A brick once divided by a live brick stays divided: a live
        # brick leaves only for a brick that divides it.
        nonlocal live
        fresh = []
        for c in cands:
            if c in seen:
                continue
            seen.add(c)
            if any(_divides(lat, s, c) for s in live):
                continue
            live = {s for s in live if not _divides(lat, c, s)}
            live.add(c)
            fresh.append(c)
        return fresh

    frontier = admit(tuple(b) for b in bricks)
    while frontier:
        cands = []
        for a in frontier:
            if a not in live:
                continue
            for b in list(live):
                for k in range(d):
                    cands.append(tuple(
                        lat.meet(x, y) if j == k else lat.join(x, y)
                        for j, (x, y) in enumerate(zip(a, b))
                    ))
        frontier = admit(cands)
    return live


def reference_tilable(target, bricks, lat) -> bool:
    """Some minimal brick divides the target."""
    return any(_divides(lat, m, tuple(target))
               for m in reference_minimal(bricks, lat))


# ---------------------------------------------------------------------------
# corner identity


def box_corners(offset, sides, coeff, acc: dict) -> None:
    """Add coeff * x^offset * prod_j (x_j^sides_j - 1) to acc, a map from
    exponent vectors to coefficients."""
    d = len(sides)
    for pick in product((0, 1), repeat=d):
        exp = tuple(o + s * p for o, s, p in zip(offset, sides, pick))
        sign = -1 if (d - sum(pick)) % 2 else 1
        acc[exp] = acc.get(exp, 0) + sign * coeff


def corner_identity_holds(target, protos, placements) -> bool:
    """Exact check of a signed tiling: the difference operator
    prod_j (1 - shift_j) sends a box to its signed corners and is
    injective on finitely supported functions, so the placements tile
    the target exactly when their corner sums equal the target's.

    target and protos are tuples of ints; placements are
    (proto_index, offset_tuple, coeff) triples.
    """
    d = len(target)
    acc: dict[tuple, int] = {}
    for proto, offset, coeff in placements:
        if not 0 <= proto < len(protos) or len(offset) != d:
            return False
        box_corners(offset, protos[proto], coeff, acc)
    box_corners((0,) * d, target, -1, acc)
    return not any(acc.values())


def parse_int_brick(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split("x"))


def witness_json_holds(text: str, target, protos) -> int | None:
    """Placement count of a JSON witness for target by protos (tuples of
    ints), or None when it is malformed, names other bricks, or fails
    the corner identity."""
    try:
        doc = json.loads(text)
        if (parse_int_brick(doc["target"]) != tuple(target)
                or [parse_int_brick(t) for t in doc["protos"]]
                != [tuple(p) for p in protos]):
            return None
        placements = [
            (int(p["proto"]), tuple(int(v) for v in p["offset"]),
             int(p["coeff"]))
            for p in doc["placements"]
        ]
    except (ValueError, KeyError, TypeError):
        return None
    if not corner_identity_holds(tuple(target), [tuple(p) for p in protos],
                                 placements):
        return None
    return len(placements)


# ---------------------------------------------------------------------------
# certificate output


def certificate_ok(n: int, stdout: str, checkpoint_text: str) -> bool:
    """The printed levels and polynomial, and the checkpoint file, agree
    with the paper: level 0 has n cubes, level 1 the 2^n - 1 nonempty
    words, level 2 the free lattice, every level d the value p_n(d)."""
    fields = dict(line.split(" ", 1) for line in stdout.splitlines()
                  if " " in line)
    try:
        levels = [int(v) for v in fields["levels"].split()]
    except (KeyError, ValueError):
        return False
    if len(levels) < 3 or levels[0] != n or levels[1] != 2**n - 1:
        return False
    if levels[2] != free_lattice_size(n):
        return False
    if any(v != paper_rank(n, d) for d, v in enumerate(levels)):
        return False
    if not poly_text_is_paper(fields.get("polynomial", ""), n):
        return False
    try:
        docs = [json.loads(line) for line in checkpoint_text.splitlines()]
    except ValueError:
        return False
    summaries = [doc for doc in docs if doc.get("complete")]
    level_docs = [doc for doc in docs if not doc.get("complete")]
    if len(summaries) != 1 or docs[-1] is not summaries[0]:
        return False
    if [doc.get("dimension") for doc in level_docs] != list(range(len(levels))):
        return False
    return ([len(doc.get("bricks", ())) for doc in level_docs] == levels
            and summaries[0].get("levels") == levels)
