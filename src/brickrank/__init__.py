"""Signed tilings of boxes by bricks: exact decision procedures, explicit
witnesses, worst-case rank tables, and the symbolic certificate behind the
rank polynomials."""

from .archetypes import (
    Archetype,
    Certificate,
    CheckpointError,
    FactViolation,
    SymBrick,
    archetype_of,
    certificate,
    check_fact_F4,
    lattice_maxrank,
    placement_count,
    rank_polynomial,
    render_archetype,
    render_polynomial,
    symbrick,
)
from .dedekind import (
    Phrase,
    PhraseParseError,
    dual,
    enumerate_lattice,
    eval_hom,
    join,
    leq,
    meet,
    parse_phrase,
    phrase,
    render_phrase,
)
from .engine import (
    Brick,
    BrickParseError,
    DimensionMismatch,
    GuardExceeded,
    brick,
    brick_divides,
    comb,
    cix,
    ext_all,
    decide,
    ext_dir,
    is_tilable,
    minimal_elements,
    minimal_set,
    parse_brick,
    rank,
    render_brick,
)
from .maxrank import (
    geometric_maxrank,
    maxrank_table,
    worst_protoset,
    worst_sidelengths,
)
from .numlat import (
    ONE,
    FactoredNat,
    ParseError,
    divides_nat,
    gcd_nat,
    lcm_nat,
    nat,
    nat_from_factors,
    parse_nat,
    render_nat,
)
from .witness import (
    Placement,
    TilingWitness,
    combine_witness,
    parallel_pack,
    tile_witness,
    verify_witness,
    witness_from_json,
    witness_to_json,
)

__version__ = "0.1.0"
