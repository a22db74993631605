"""Command-line surface: every capability behind one subcommand each.

stdout carries the result (stable text, or JSON/CSV on request); progress
and diagnostics go to stderr.  Exit codes: 0 success or positive decision,
1 negative decision, 2 parse error, unreadable input or unusable
checkpoint, 3 refused by a size guard, 4 internal consistency failure.
"""

import argparse
import functools
import json
import sys

from .archetypes import (
    CheckpointError,
    FactViolation,
    certificate,
    rank_polynomial,
    render_archetype,
    render_polynomial,
)
from .dedekind import (
    PhraseParseError,
    dual,
    enumerate_lattice,
    lattice_count,
    parse_phrase,
    phrase_alphabet,
    phrase_key,
    render_phrase,
)
from .engine import (
    NAT_LATTICE,
    BrickParseError,
    DimensionMismatch,
    GuardExceeded,
    decide,
    is_tilable,
    lattice_of,
    minimal_set,
    parse_brick,
    render_brick,
)
from .maxrank import geometric_maxrank, maxrank_table, table_to_csv, table_to_json
from .numlat import ParseError
from .witness import tile_witness, witness_to_json

__all__ = ["main"]


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _at_least(lo: int):
    """argparse type: an int no smaller than lo; anything else exits 2."""

    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid int value"
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _read_bricks(inline, path):
    """Proto-set from inline args or a file (JSON list or one per line)."""
    texts = list(inline or [])
    if path:
        try:
            with open(path) as fh:
                body = fh.read()
            if body.lstrip().startswith("["):
                texts.extend(str(t) for t in json.loads(body))
            else:
                texts.extend(
                    line.strip() for line in body.splitlines() if line.strip()
                )
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
            raise BrickParseError(f"cannot read {path}: {e}") from None
    if not texts:
        raise BrickParseError("no bricks given (arguments or --input)")
    return [parse_brick(t) for t in texts]


def cmd_minimal_set(args) -> int:
    protos = _read_bricks(args.bricks, args.input)
    M = minimal_set(protos)
    if args.format == "json":
        doc = {
            "minimal": [render_brick(b) for b in M.bricks],
            "rank": len(M.bricks),
        }
        print(json.dumps(doc, indent=2))
    else:
        for b in M.bricks:
            print(render_brick(b))
        print(f"rank {len(M.bricks)}")
    return 0


def cmd_tilable(args) -> int:
    target = parse_brick(args.target)
    protos = _read_bricks(args.bricks, args.input)
    if args.witness and any(lattice_of(b) is not NAT_LATTICE
                            for b in [target] + protos):
        raise BrickParseError("--witness needs numeric bricks")
    if not args.witness:
        ok = decide(target, protos)
    else:
        ok = is_tilable(target, minimal_set(protos))
        if ok:
            sys.stdout.write(witness_to_json(tile_witness(protos, target)))
            return 0
    if args.format == "json":
        print(json.dumps({"tilable": ok}))
    else:
        print("yes" if ok else "no")
    return 0 if ok else 1


def _table_text(rows, d_max) -> str:
    header = ["n"] + [f"d={d}" for d in range(2, d_max + 1)]
    body = [[str(n + 1)] + [str(v) for v in row] for n, row in enumerate(rows)]
    widths = [
        max(len(line[j]) for line in [header] + body)
        for j in range(len(header))
    ]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths))
        for line in [header] + body
    ]
    return "\n".join(lines)


def cmd_maxrank(args) -> int:
    if args.n is None or args.d is None:
        raise BrickParseError("maxrank needs N and D")
    if args.table:
        if args.d < 2:
            raise BrickParseError("maxrank --table needs D >= 2")
        rows = maxrank_table(args.n, args.d, allow_big=args.allow_big,
                             progress=_progress)
        if args.format == "csv":
            sys.stdout.write(table_to_csv(rows, args.d))
        elif args.format == "json":
            sys.stdout.write(table_to_json(rows, args.d))
        else:
            print(_table_text(rows, args.d))
        return 0
    value = geometric_maxrank(args.n, args.d, allow_big=args.allow_big,
                              progress=_progress)
    if args.format == "json":
        print(json.dumps({"n": args.n, "d": args.d, "maxrank": value}))
    elif args.format == "csv":
        print("n,d,maxrank")
        print(f"{args.n},{args.d},{value}")
    else:
        print(value)
    return 0


def cmd_dedekind(args) -> int:
    n = args.n
    if args.dual is not None:
        a = parse_phrase(args.dual)
        if max(phrase_alphabet(a), default=0) > n:
            raise PhraseParseError(f"{args.dual!r} uses a letter beyond {n}")
        out = render_phrase(dual(a), n)
        if args.format == "json":
            print(json.dumps({"phrase": render_phrase(a, n), "dual": out}))
        else:
            print(out)
        return 0
    if args.enumerate:
        phrases = sorted(enumerate_lattice(n), key=phrase_key)
        if args.format == "json":
            doc = {
                "n": n,
                "count": len(phrases),
                "phrases": [render_phrase(a, n) for a in phrases],
            }
            print(json.dumps(doc, indent=2))
        else:
            for a in phrases:
                print(render_phrase(a, n))
        return 0
    count = lattice_count(n)
    if args.format == "json":
        print(json.dumps({"n": n, "count": count}))
    else:
        print(count)
    return 0


def cmd_certificate(args) -> int:
    path = args.checkpoint or f"certificate_n{args.n}.jsonl"
    cert = certificate(args.n, allow_big=args.allow_big, checkpoint=path,
                       progress=_progress)
    coeffs = rank_polynomial(cert)
    doc = {
        "n": cert.n,
        "max_true_dim": cert.max_true_dim,
        "levels": [len(level) for level in cert.levels],
        "members": len(cert.levels[-1]),
        "archetypes": [render_archetype(a, cert.n) for a in cert.archetypes],
        "polynomial": render_polynomial(coeffs),
        "checkpoint": path,
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"n {cert.n}")
        print(f"max true dimension {cert.max_true_dim}")
        print("levels " + " ".join(str(len(level)) for level in cert.levels))
        print(f"members {len(cert.levels[-1])}")
        print(f"archetypes {len(cert.archetypes)}")
        print(f"polynomial {doc['polynomial']}")
        print(f"checkpoint {path}")
    return 0


def cmd_poly(args) -> int:
    coeffs = rank_polynomial(certificate(args.n, allow_big=args.allow_big))
    text = render_polynomial(coeffs)
    values = []
    for d in range(0, args.d_max + 1):
        v = sum(c * d**i for i, c in enumerate(coeffs))
        values.append(int(v) if v.denominator == 1 else v)
    if args.format == "json":
        doc = {
            "n": args.n,
            "polynomial": text,
            "coefficients": [str(c) for c in coeffs],
            "values": {str(d): str(v) for d, v in enumerate(values)},
        }
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        print("d," + ",".join(str(d) for d in range(0, args.d_max + 1)))
        print(f"p_{args.n}," + ",".join(str(v) for v in values))
    else:
        print(text)
        print(" ".join(str(v) for v in values))
    return 0


def _add_format(p, choices=("text", "json")) -> None:
    p.add_argument("--format", choices=choices, default="text",
                   help="output format (default text)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brickrank",
        description="Signed brick tilings: minimal sets, ranks, witnesses, "
                    "worst-case tables, and the symbolic certificate.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("minimal-set",
                       help="minimal tilable bricks and rank of a proto-set")
    p.add_argument("bricks", nargs="*", help="bricks like 25x3 or (w)x(x+y)")
    p.add_argument("--input", help="file with a JSON list or one brick per line")
    _add_format(p)
    p.set_defaults(main=cmd_minimal_set)

    p = sub.add_parser("tilable", help="decide signed tilability of a target")
    p.add_argument("target", help="target brick")
    p.add_argument("bricks", nargs="*", help="proto-set bricks")
    p.add_argument("--input", help="file with a JSON list or one brick per line")
    p.add_argument("--witness", action="store_true",
                   help="emit an explicit tiling as JSON")
    _add_format(p)
    p.set_defaults(main=cmd_tilable)

    p = sub.add_parser("maxrank",
                       help="worst-case rank over proto-sets of n bricks")
    p.add_argument("n", nargs="?", type=_at_least(1), help="proto-set size")
    p.add_argument("d", nargs="?", type=_at_least(1), help="dimension")
    p.add_argument("--table", action="store_true",
                   help="full table n=1..N, d=2..D")
    p.add_argument("--allow-big", action="store_true",
                   help="override the size guard")
    _add_format(p, ("text", "csv", "json"))
    p.set_defaults(main=cmd_maxrank)

    p = sub.add_parser("dedekind",
                       help="free distributive lattice: count, list, dualize")
    p.add_argument("n", type=_at_least(1), help="alphabet size")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--count", action="store_true",
                   help="lattice size (default)")
    g.add_argument("--enumerate", action="store_true",
                   help="list every phrase in canonical order")
    g.add_argument("--dual", metavar="PHRASE",
                   help="dualize one phrase (swap sums and products)")
    _add_format(p)
    p.set_defaults(main=cmd_dedekind)

    p = sub.add_parser("certificate",
                       help="level-by-level symbolic construction with "
                            "checkpointing")
    p.add_argument("n", type=_at_least(1), help="alphabet size")
    p.add_argument("--output", "--resume", dest="checkpoint", metavar="PATH",
                   help="checkpoint file, resumed if it exists and written "
                        "otherwise (default certificate_n<N>.jsonl)")
    p.add_argument("--allow-big", action="store_true")
    _add_format(p)
    p.set_defaults(main=cmd_certificate)

    p = sub.add_parser("poly",
                       help="exact rank polynomial and its value table")
    p.add_argument("n", type=_at_least(1), help="alphabet size")
    p.add_argument("--d-max", type=_at_least(0), default=11,
                   help="evaluate for d = 0..d-max (default 11)")
    p.add_argument("--allow-big", action="store_true")
    _add_format(p, ("text", "csv", "json"))
    p.set_defaults(main=cmd_poly)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.main(args)
    except (ParseError, PhraseParseError, BrickParseError,
            DimensionMismatch, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GuardExceeded as e:
        print(f"guard: {e}", file=sys.stderr)
        return 3
    except FactViolation as e:
        print(f"consistency failure: {e}", file=sys.stderr)
        return 4
    except RuntimeError as e:  # a constructed witness failed its check
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
