"""Symbolic minimal bricks of every dimension at once, and what they count.

Over the phrase lattice on n letters, a brick with infinitely many
coordinates, almost all equal to the pure sum of its alphabet (its
envelope), is stored as a finite prefix plus that envelope.  Combining
and divisibility restricted to any level d treat the tail as one extra
coordinate, so the engine closure applies unchanged.  The certificate
construction starts from the n letter cubes and repeatedly: extends
each brick by its envelope into the next coordinate, closes under the
binary combine in that coordinate, and keeps the divisibility-minimal
elements.  The construction stops at the first level whose minimal
bricks all leave the new coordinate enveloped; the top true dimension
reached is always n - 1 (a violation raises FactViolation, since the
counting below would be unsound).

A run stays packed from its first level to its last.  One codec codes
every side as its truth table over letters 1..n, and a level holds each
brick as side codes: prefix padded with the envelope, then the envelope.
A level is either read from brick text (the n cubes, or a checkpoint's
level), each distinct side text parsed and encoded once, or grown: each
envelope is copied into the new coordinate and the engine's closure runs
on the codec's rows.  Balance, trimming, order, true dimension,
checkpoint text and archetypes all read facts found once per distinct
side code, and each code is decoded once, for Certificate.levels.

Grouping the non-envelope sidelengths of a minimal brick gives its
archetype [e; a1^r1, ..., aK^rK].  Every coordinate arrangement of an
archetype is again minimal, and every minimal brick arises uniquely
this way, so the number of minimal bricks at level d is a sum of
multinomials: d! / (r1! ... rK! (d - tau)!) over the archetypes with
true dimension tau <= d.  Read as a function of d this is a polynomial
with rational coefficients over (n-1)!, the rank polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import json
import math
import os

from . import dedekind
from .dedekind import (
    Phrase,
    PhraseParseError,
    parse_phrase,
    phrase_key,
    render_phrase,
)
from .engine import (
    Brick,
    GuardExceeded,
    _BrickCodec,
    _close,
    cix,
    ext_dir,  # unused; perfbench's tracer test needs it until re-pinned
)

__all__ = [
    "SymBrick",
    "symbrick",
    "Archetype",
    "Certificate",
    "FactViolation",
    "CheckpointError",
    "is_balanced",
    "true_dim",
    "rep_at_level",
    "symbrick_from_rep",
    "render_symbrick",
    "next_minimal_level",
    "certificate",
    "archetype_of",
    "render_archetype",
    "placement_count",
    "lattice_maxrank",
    "rank_polynomial",
    "render_polynomial",
    "check_fact_F4",
]


class FactViolation(RuntimeError):
    """A structural fact the counting relies on failed to hold."""


class CheckpointError(ValueError):
    """A checkpoint file that cannot be resumed: another n, levels out
    of order, or a bad line before its last."""


def _pure_sum(letters) -> Phrase:
    ls = sorted(set(letters))
    if not ls:
        raise ValueError("empty alphabet")
    return Phrase(tuple((l,) for l in ls))


@dataclass(frozen=True)
class SymBrick:
    """Envelope-tailed brick: finite prefix, then the envelope forever.

    Canonical form strips trailing envelope entries from the prefix, so
    equality compares bricks of different nominal levels correctly.
    """

    prefix: tuple[Phrase, ...]
    envelope: Phrase

    def __post_init__(self):
        if not dedekind.is_pure_sum(self.envelope):
            raise ValueError("envelope must be a pure sum")
        if self.prefix and self.prefix[-1] == self.envelope:
            raise ValueError("prefix not normalized: trailing envelope entry")

    def __str__(self) -> str:
        return render_symbrick(self, max(len(self.prefix), 1))


def symbrick(sides, envelope: Phrase | None = None) -> SymBrick:
    """Normalize: default envelope is the pure sum of the joint alphabet."""
    sides = tuple(sides)
    if envelope is None:
        letters = set()
        for s in sides:
            letters |= dedekind.phrase_alphabet(s)
        envelope = _pure_sum(letters)
    while sides and sides[-1] == envelope:
        sides = sides[:-1]
    return SymBrick(sides, envelope)


def is_balanced(b: SymBrick) -> bool:
    """Every prefix side uses the full alphabet of the brick."""
    alpha = dedekind.phrase_alphabet(b.envelope)
    return all(dedekind.phrase_alphabet(s) == alpha for s in b.prefix)


def true_dim(b: SymBrick) -> int:
    """Number of non-envelope sidelengths."""
    return sum(1 for s in b.prefix if s != b.envelope)


def rep_at_level(b: SymBrick, d: int) -> Brick:
    """b as a (d+1)-coordinate engine brick: prefix padded with envelope
    to d entries, then the envelope standing for the whole tail."""
    if len(b.prefix) > d:
        raise ValueError(f"prefix of length {len(b.prefix)} exceeds level {d}")
    pad = b.prefix + (b.envelope,) * (d - len(b.prefix))
    return Brick(pad + (b.envelope,))


def symbrick_from_rep(rep: Brick) -> SymBrick:
    """Inverse of rep_at_level; the last coordinate is the envelope."""
    env = rep.sides[-1]
    return symbrick(rep.sides[:-1], env)


def render_symbrick(b: SymBrick, d: int, n: int | None = None) -> str:
    """Brick text at level d: the padded prefix, envelope tail implied."""
    dd = max(d, 1)
    pad = b.prefix + (b.envelope,) * (dd - len(b.prefix))
    return "x".join("(" + render_phrase(s, n) + ")" for s in pad)


# ---------------------------------------------------------------------------
# the level construction, on side codes


class _Run:
    """The side codes of one certificate run: truth tables over letters
    1..n under one codec whose caches serve every level, and the facts
    of each distinct code, found once: its phrase, its alphabet, its
    text, and its rank in phrase_key order among the codes met so far."""

    def __init__(self, n: int):
        self.n = n
        # letters 1..n fix the side codec; widened sets each level's width
        self.codec = _BrickCodec(
            [Brick(tuple(_pure_sum([l]) for l in range(1, n + 1)))])
        self.phrase: dict[int, Phrase] = {}
        self.alphabet: dict[int, frozenset[int]] = {}
        self.text: dict[int, str] = {}
        self.rank: dict[int, int] = {}

    def learn(self, codes) -> None:
        new = set(codes).difference(self.phrase)
        if not new:
            return
        for c in new:
            p = self.phrase[c] = self.codec.decode_side(c)
            self.alphabet[c] = dedekind.phrase_alphabet(p)
            self.text[c] = "(" + render_phrase(p, self.n) + ")"
        keys = {c: phrase_key(p) for c, p in self.phrase.items()}
        self.rank = {c: r for r, c in enumerate(sorted(keys, key=keys.get))}

    def read(self, d: int, texts, where: str) -> "_Level":
        """Level d from the texts of its bricks, each distinct side text
        parsed and encoded once and trailing envelope sides trimmed.  A
        brick that is not symbolic, has a bad phrase or a letter beyond
        n, has more sides than level d allows, or repeats one before it
        raises CheckpointError naming where."""
        n, encode = self.n, self.codec.encode_side
        side: dict[str, tuple[int, frozenset[int]]] = {}
        envelope: dict[frozenset[int], int] = {}
        bricks = []
        for text in texts:
            bad = f"{where}: level {d} brick {text!r}"
            if not (text.startswith("(") and text.endswith(")")):
                raise CheckpointError(f"{bad} is not symbolic")
            codes, letters = [], frozenset()
            for part in text[1:-1].split(")x("):
                if part not in side:
                    try:
                        p = parse_phrase(part)
                    except PhraseParseError as e:
                        raise CheckpointError(f"{bad}: {e}") from None
                    alpha = dedekind.phrase_alphabet(p)
                    if max(alpha) > n:
                        raise CheckpointError(
                            f"{bad} uses a letter beyond {n}")
                    side[part] = encode(p), alpha
                code, alpha = side[part]
                codes.append(code)
                letters |= alpha
            if letters not in envelope:
                envelope[letters] = encode(_pure_sum(letters))
            env = envelope[letters]
            while codes and codes[-1] == env:
                codes.pop()
            if len(codes) > d:
                raise CheckpointError(
                    f"{bad} has more sides than its level allows")
            bricks.append(codes + [env] * (d + 1 - len(codes)))
        if len(set(map(tuple, bricks))) < len(bricks):
            raise CheckpointError(f"{where}: level {d} repeats a brick")
        return self.level(d, bricks, where)

    def level(self, d: int, bricks, where: str | None = None) -> "_Level":
        """Level d from the side codes of its distinct bricks, put in
        certificate order: by prefix length, then prefix and envelope in
        phrase_key order.  A brick with a prefix side whose alphabet is
        not its envelope's raises FactViolation, or CheckpointError
        naming where for a level that was read."""
        self.learn({c for s in bricks for c in s})
        alphabet, rank = self.alphabet, self.rank
        keyed, top = [], 0
        for s in bricks:
            env, k = s[d], d
            while k and s[k - 1] == env:
                k -= 1
            if any(alphabet[c] != alphabet[env] for c in s[:k]):
                bad = f"level {d} brick {self.render(s, d)!r} is not balanced"
                raise (FactViolation(bad) if where is None
                       else CheckpointError(f"{where}: {bad}"))
            top = max(top, sum(c != env for c in s[:k]))
            keyed.append(((k, tuple(map(rank.get, s[:k])), rank[env]), s))
        keyed.sort()  # the keys of distinct bricks differ
        return _Level(self, d, top, [s for _, s in keyed],
                      [key[0] for key, _ in keyed])

    def render(self, s, d: int) -> str:
        """render_symbrick of the brick with side codes s at level d."""
        return "x".join(map(self.text.get, s[:max(d, 1)]))


@dataclass
class _Level:
    """One level of a run in certificate order: side i < d of a brick is
    prefix side i padded with the envelope, side d the envelope.  cut
    holds each brick's prefix length, trailing envelope trimmed."""

    run: _Run
    d: int
    max_true_dim: int
    sides: list[list[int]]
    cut: list[int]

    def symbricks(self) -> tuple[SymBrick, ...]:
        phrase, d = self.run.phrase, self.d
        return tuple(SymBrick(tuple(map(phrase.get, s[:k])), phrase[s[d]])
                     for s, k in zip(self.sides, self.cut))

    def texts(self) -> list[str]:
        """render_symbrick of each brick at level d."""
        return [self.run.render(s, self.d) for s in self.sides]

    def archetypes(self) -> tuple["Archetype", ...]:
        """The distinct archetypes of the level, in order of true
        dimension, envelope, then parts, each by phrase_key."""
        d, rank, phrase = self.d, self.run.rank, self.run.phrase
        # each brick's envelope and its sorted prefix sides that differ from it
        kinds = {(s[d], tuple(sorted(c for c in s[:k] if c != s[d])))
                 for s, k in zip(self.sides, self.cut)}
        seen = []
        for env, others in kinds:
            counts = {}
            for c in others:
                counts[c] = counts.get(c, 0) + 1
            parts = tuple(sorted((rank[c], c, r) for c, r in counts.items()))
            seen.append((len(others), rank[env], env, parts))
        return tuple(Archetype(phrase[env],
                               tuple((phrase[c], r) for _, c, r in parts))
                     for _, _, env, parts in sorted(seen))


def next_minimal_level(prev: _Level) -> _Level:
    """Minimal bricks at level d = prev.d + 1 from those at level d - 1,
    both packed: copy each brick's envelope into coordinate d, close the
    codec's rows under the binary combine in coordinate d, keep the
    minimal elements.  The inputs go in in the order prev holds them."""
    run, d = prev.run, prev.d + 1
    wide = run.codec.widened(d + 1)
    rows = _close(d, [wide.row(s + s[-1:]) for s in prev.sides], wide,
                  None, None)
    return run.level(d, list(map(wide.sides, rows)))


@dataclass(frozen=True)
class Certificate:
    """All levels of the construction for one alphabet size."""

    n: int
    levels: tuple[tuple[SymBrick, ...], ...]  # index = dimension
    max_true_dim: int
    archetypes: tuple["Archetype", ...]


def _cubes(n: int) -> tuple[SymBrick, ...]:
    """Level 0: the n letter cubes, in certificate order."""
    return tuple(SymBrick((), _pure_sum([i])) for i in range(1, n + 1))


def certificate(n: int, allow_big: bool = False, checkpoint: str | None = None,
                progress=None) -> Certificate:
    """Run the construction for alphabet size n.

    Guard: n <= 4 by default; n = 5 must be let in with allow_big.  On
    a 2-core machine n = 4 takes about 0.08 s, and n = 5 reaches level 3
    (40,517 bricks) in about 21 s at 57 MB peak RSS and level 4 (120,614
    bricks) in about 5 minutes at 137 MB; level 5 (273,540 bricks) has
    not been run to the end.  When checkpoint names a file, each finished
    level is appended to it as one JSON document per line and a partial
    file is picked up where it left off.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 4 and not allow_big:
        raise GuardExceeded(
            f"certificate n={n} exceeds the default guard (n <= 4); "
            "pass allow_big (and a checkpoint path) to force"
        )

    run, read, complete = _Run(n), [], False
    if checkpoint and os.path.exists(checkpoint):
        read, complete = _load_levels(checkpoint, run)
        if progress is not None and read:
            progress(f"resumed {len(read)} levels from {checkpoint}")
    fresh = not read
    if fresh:
        read = [run.read(0, [render_symbrick(b, 0, n) for b in _cubes(n)],
                         "the letter cubes")]
    # fresh or resumed, the run goes on from its last level, packed
    levels, level = [l.symbricks() for l in read], read[-1]
    # a well-formed but wrong resumed level would grow wrong levels
    fail = FactViolation if fresh else CheckpointError
    archetypes = _check_counts(levels, level, fail)
    if fresh:
        _write_level(checkpoint, level)

    # levels nest upward: the last one holds the top true dimension
    while level.max_true_dim == level.d:
        if level.d >= n:
            raise FactViolation(
                f"construction for n={n} still growing at level {level.d + 1}"
            )
        level = next_minimal_level(level)
        if progress is not None:
            progress(f"level {level.d}: {len(level.sides)} minimal bricks")
        levels.append(level.symbricks())
        # a wrong resumed level shows here, before its growth is appended
        archetypes = _check_counts(levels, level, fail)
        _write_level(checkpoint, level)

    if level.max_true_dim != n - 1:
        raise FactViolation(f"top true dimension {level.max_true_dim} for "
                            f"n={n}, counting needs {n - 1}")
    cert = Certificate(n, tuple(levels), level.max_true_dim, archetypes)
    if checkpoint and not complete:
        _write_summary(checkpoint, cert)
    return cert


def _check_counts(levels, level: _Level, fail) -> tuple["Archetype", ...]:
    """The archetypes of level, the last of levels, after checking the
    counting identity or raising fail: the size of each level d is the
    sum of placement_count(a, d) over those archetypes."""
    archetypes = level.archetypes()
    for d, bricks in enumerate(levels):
        want = sum(placement_count(a, d) for a in archetypes)
        if len(bricks) != want:
            raise fail(f"level {d} holds {len(bricks)} bricks, "
                       f"its archetypes count {want}")
    return archetypes


def _write_level(path: str | None, level: _Level) -> None:
    if not path:
        return
    doc = {
        "n": level.run.n,
        "dimension": level.d,
        "max_true_dim": level.max_true_dim,
        "bricks": level.texts(),
    }
    _append(path, doc)


def _write_summary(path: str, cert: Certificate) -> None:
    doc = {
        "n": cert.n,
        "complete": True,
        "max_true_dim": cert.max_true_dim,
        "levels": [len(l) for l in cert.levels],
        "archetypes": [render_archetype(a, cert.n) for a in cert.archetypes],
    }
    _append(path, doc)


def _append(path: str, doc: dict) -> None:
    try:
        with open(path, "a") as fh:
            fh.write(json.dumps(doc) + "\n")
    except OSError as e:
        raise CheckpointError(f"cannot write checkpoint {path}: {e}") from None


def _load_levels(path: str, run: _Run) -> tuple[list[_Level], bool]:
    """The levels stored in a checkpoint, read into run, and whether it
    ends with the summary.  A last line that does not parse, or lacks its
    newline, was cut mid-write: once every level is read, the file is
    truncated after the last complete line, so the next append starts on
    a fresh line.  A file that cannot be resumed raises CheckpointError
    and is left as it is."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().splitlines(keepends=True)
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None
    docs = []
    cut = None
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except (ValueError, RecursionError):
            doc = None
        if not isinstance(doc, dict) and i < len(lines) - 1:
            raise CheckpointError(f"checkpoint {path} has a bad line {i + 1}")
        if not isinstance(doc, dict) or not line.endswith(b"\n"):
            cut = i
            break
        docs.append(doc)

    n, levels = run.n, []
    for doc in docs:
        if doc.get("complete"):
            continue
        if doc.get("n") != n:
            raise CheckpointError(
                f"checkpoint {path} is for n={doc.get('n')}, wanted {n}"
            )
        d = len(levels)
        if doc.get("dimension") != d:
            raise CheckpointError(f"checkpoint {path} has levels out of order")
        texts = doc.get("bricks")
        if not (isinstance(texts, list) and texts
                and all(isinstance(t, str) for t in texts)):
            raise CheckpointError(
                f"checkpoint {path}: level {d} has no list of brick texts")
        levels.append(run.read(d, texts, f"checkpoint {path}"))
    if levels and levels[0].symbricks() != _cubes(n):
        raise CheckpointError(
            f"checkpoint {path}: level 0 is not the {n} letter cubes")
    if cut is not None:
        try:
            with open(path, "r+b") as fh:
                fh.truncate(sum(map(len, lines[:cut])))
        except OSError as e:
            raise CheckpointError(f"cannot truncate checkpoint {path}: {e}") from None
    return levels, bool(docs and docs[-1].get("complete"))


# ---------------------------------------------------------------------------
# archetypes and counting


@dataclass(frozen=True)
class Archetype:
    """Envelope plus the grouped non-envelope sidelengths [e; a1^r1,...]."""

    envelope: Phrase
    parts: tuple[tuple[Phrase, int], ...]  # ordered by phrase_key, counts >= 1

    @property
    def tau(self) -> int:
        return sum(r for _, r in self.parts)


def archetype_of(b: SymBrick) -> Archetype:
    """Group the non-envelope sides of b; arrangement-invariant."""
    if not is_balanced(b):
        raise ValueError(f"not a balanced brick: {b}")
    counts: dict[Phrase, int] = {}
    for s in b.prefix:
        if s != b.envelope:
            counts[s] = counts.get(s, 0) + 1
    parts = tuple(sorted(counts.items(), key=lambda kv: phrase_key(kv[0])))
    return Archetype(b.envelope, parts)


def render_archetype(a: Archetype, n: int | None = None) -> str:
    inner = ", ".join(
        f"({render_phrase(p, n)})^{r}" for p, r in a.parts
    )
    return f"[{render_phrase(a.envelope, n)}; {inner}]"


def placement_count(a: Archetype, d: int) -> int:
    """Arrangements of the archetype over d coordinates: the multinomial
    d! / (r1! ... rK! (d - tau)!), zero when d < tau."""
    if d < 0:
        raise ValueError(f"need d >= 0, got {d}")
    t = a.tau
    if d < t:
        return 0
    out = math.factorial(d) // math.factorial(d - t)
    for _, r in a.parts:
        out //= math.factorial(r)
    return out


def lattice_maxrank(cert: Certificate, d: int) -> int:
    """Minimal bricks at level d of cert, counted through archetypes.
    Extends the geometric table to every d >= 0, including d = 0 (the n
    cubes) and d = 1 (all 2**n - 1 sub-alphabet words)."""
    return sum(placement_count(a, d) for a in cert.archetypes)


def rank_polynomial(cert: Certificate) -> tuple[Fraction, ...]:
    """Coefficients c0..c(n-1) with lattice_maxrank(cert, d) = sum ci d**i
    for all d >= n - 1; denominators divide (n-1)!."""
    coeffs = [Fraction(0)] * cert.n
    for a in cert.archetypes:
        t, q = a.tau, placement_count(a, a.tau)
        # q * C(d, t) expanded: q / t! * d (d-1) ... (d-t+1)
        poly = [Fraction(q, math.factorial(t))]
        for i in range(t):
            # multiply by (d - i)
            poly = [Fraction(0)] + poly
            for j in range(len(poly) - 1):
                poly[j] -= i * poly[j + 1]
        for i, c in enumerate(poly):
            coeffs[i] += c
    return tuple(coeffs)


def render_polynomial(coeffs) -> str:
    """Exact text like 3 + 1/2*(d + 7*d^2): integer constant, then the
    higher terms over the common factorial denominator.  Coefficients
    that do not fit that form raise FactViolation."""
    n = len(coeffs)
    const = coeffs[0]
    if const.denominator != 1:
        raise FactViolation(f"constant term {const} is not an integer")
    if n == 1:
        return str(const)
    denom = math.factorial(n - 1)
    terms = []
    for i in range(1, n):
        c = coeffs[i] * denom
        if c.denominator != 1:
            raise FactViolation(f"coefficient {coeffs[i]} of d^{i} has a "
                                f"denominator beyond {denom}")
        c = c.numerator
        if c == 0:
            continue
        var = "d" if i == 1 else f"d^{i}"
        if c == 1:
            terms.append(var)
        elif c == -1:
            terms.append(f"-{var}")
        else:
            terms.append(f"{c}*{var}")
    if not terms:
        return str(const)
    body = " + ".join(terms)
    # denom is 1 only for n = 2, whose one term needs no parentheses
    text = (f"{const} + {body}" if denom == 1
            else f"{const} + 1/{denom}*({body})")
    return text.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# structural checks


def check_fact_F4(cert: Certificate) -> bool:
    """The nested brick (..((w1 cix_1 w2) cix_2 w3) ..) cix_(n-1) wn is
    minimal with true dimension n - 1: one of cert's last level."""
    cubes = _cubes(cert.n)
    cur = cubes[0]
    for lvl, cube in enumerate(cubes[1:], 1):
        a = rep_at_level(cur, lvl)
        cur = symbrick_from_rep(cix(lvl, a, rep_at_level(cube, lvl)))
    if true_dim(cur) != cert.n - 1:
        return False
    return cur in cert.levels[-1]
