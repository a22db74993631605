import json

import pytest

from brickrank.cli import main
from brickrank.dedekind import lattice_tables
from brickrank.engine import GuardExceeded, minimal_elements, minimal_set
from brickrank.maxrank import (
    geometric_maxrank,
    maxrank_table,
    worst_protoset,
    worst_sidelengths,
)
from brickrank.numlat import divides_nat, parse_nat

# the three rank-maximizing sidelengths for n = 3, in factored form
WORST_N3 = [
    "2^1*3^1*5^2*7^2*11^3*13^3",
    "2^2*3^3*5^1*7^3*11^1*13^2",
    "2^3*3^2*5^3*7^1*11^2*13^1",
]


def test_worst_sidelengths_n1_n2():
    assert worst_sidelengths(1) == [parse_nat("2^1")]
    assert [int(s) for s in worst_sidelengths(2)] == [2 * 9, 4 * 3]


def test_worst_sidelengths_n3_frozen():
    assert worst_sidelengths(3) == [parse_nat(s) for s in WORST_N3]


def test_worst_sidelengths_pairwise_incomparable():
    for n in (2, 3, 4):
        sides = worst_sidelengths(n)
        for i, a in enumerate(sides):
            for j, b in enumerate(sides):
                if i != j:
                    assert not divides_nat(a, b)


def test_worst_sidelengths_exponents_are_permutations():
    for n in (2, 3, 4):
        for m, s in enumerate(worst_sidelengths(n), start=1):
            exps = [e for _, e in s.factors]
            assert sorted(set(exps)) == list(range(1, n + 1))
            assert len(exps) == len(worst_sidelengths(n)[0].factors)


def test_worst_protoset_is_cubes():
    for b in worst_protoset(3, 4):
        assert b.dim == 4
        assert len(set(b.sides)) == 1


def test_geometric_maxrank_small_values():
    assert geometric_maxrank(1, 2) == 1
    assert geometric_maxrank(1, 5) == 1
    assert geometric_maxrank(2, 1) == 1
    assert geometric_maxrank(2, 2) == 4
    assert geometric_maxrank(2, 3) == 5
    assert geometric_maxrank(3, 2) == 18


def test_geometric_maxrank_result_is_antichain():
    M = minimal_set(worst_protoset(3, 3))
    assert minimal_elements(M) == M
    assert len(M) == 36


def test_guards():
    with pytest.raises(GuardExceeded):
        geometric_maxrank(5, 3)
    # the default guard's n = 5 corner meets the lattice table
    assert geometric_maxrank(5, 2) == 7579 == len(lattice_tables(5))
    with pytest.raises(GuardExceeded):
        geometric_maxrank(4, 9)
    with pytest.raises(GuardExceeded):
        worst_sidelengths(6)
    with pytest.raises(ValueError):
        geometric_maxrank(0, 2)
    with pytest.raises(ValueError):
        geometric_maxrank(2, 0)
    # the override lifts the sidelength guard without computing anything big
    assert len(worst_sidelengths(6, allow_big=True)) == 6


def test_worst_cases_need_a_letter_and_a_dimension():
    with pytest.raises(ValueError, match="need n >= 1"):
        worst_sidelengths(0)
    with pytest.raises(ValueError, match="need d >= 1"):
        worst_protoset(2, 0)


def test_maxrank_table_values():
    assert maxrank_table(2, 5) == [[1, 1, 1, 1], [4, 5, 6, 7]]
    with pytest.raises(ValueError):
        maxrank_table(2, 1)
    with pytest.raises(ValueError):
        maxrank_table(0, 3)


def _table(capsys, fmt):
    assert main(["maxrank", "2", "4", "--table", "--format", fmt]) == 0
    return capsys.readouterr().out


def test_table_to_csv_frozen(capsys):
    assert _table(capsys, "csv") == "n,d=2,d=3,d=4\n1,1,1,1\n2,4,5,6\n"


def test_table_to_json_round_trip(capsys):
    doc = json.loads(_table(capsys, "json"))
    assert doc["columns"] == [2, 3, 4]
    assert doc["rows"] == [
        {"n": 1, "values": [1, 1, 1]},
        {"n": 2, "values": [4, 5, 6]},
    ]
