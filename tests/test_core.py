import random
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from queens_lab.core import (
    QueensConfig,
    Square,
    is_classical,
    is_toroidal,
    parse,
    serialize,
)
from queens_lab.errors import InvalidConfigError

from helpers import (
    naive_classical_valid,
    naive_toroidal_valid,
    reference_config_check,
    reference_violations,
)

configs = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(n)))
).map(lambda p: QueensConfig(n=len(p), p=tuple(p)))


def cfg(p):
    return QueensConfig(n=len(p), p=tuple(p))


def test_toroidal_valid_example():
    assert is_toroidal(cfg([0, 2, 4, 1, 3]))


def test_toroidal_single_queen():
    assert is_toroidal(cfg([0]))


def test_toroidal_identity_permutation_violations():
    # p[y] = y puts all queens on one wrap-around difference class.
    assert not is_toroidal(cfg([0, 1, 2, 3]))


def test_classical_standard_four_queens():
    assert is_classical(cfg([1, 3, 0, 2]))


def test_classical_adjacent_diagonal():
    assert not is_classical(cfg([0, 1]))


def test_toroidal_solution_is_classical_solution():
    assert is_classical(cfg([0, 2, 4, 1, 3]))


def test_classical_negative_diagonal_index():
    # Classical difference indices are plain integers, so they can go
    # negative: the only repeated diagonal here is x - y = -1.
    assert not is_classical(cfg([0, 3, 1, 2]))


def test_squares_accessor():
    config = cfg([1, 0])
    assert config.squares() == (Square(1, 0), Square(0, 1))


@pytest.mark.parametrize(
    "n,p,fragment",
    [
        (3, [0, 0, 1], "permutation"),
        (3, [0, 1], "length"),
        (3, [0, 1, 3], "out of range"),
        (0, [], "'n'"),
    ],
)
def test_structural_errors(n, p, fragment):
    with pytest.raises(InvalidConfigError, match=fragment):
        QueensConfig(n=n, p=tuple(p))


class Column(IntEnum):
    ONE = 1


class Row(tuple):
    pass


def _outcome(check):
    try:
        p = check()
    except InvalidConfigError as exc:
        return "error", str(exc)
    return "ok", type(p), p, tuple(map(type, p))


@pytest.mark.parametrize(
    "n,p",
    [
        (3, (2, 0, 1)),
        (3, (0, True, 2)),
        (2, (False, 1)),
        (3, (0, Column.ONE, 2)),
        (3, (0.0, 1, 2)),
        (3, (0, -1, 2)),
        (3, (0, 1, 3)),
        (3, (0, 0, 1)),
        (3, (0, 1)),
        (3, [2, 0, 1]),
        (3, [0, 0, 1]),
        (3, Row((1, 0, 2))),
        (0, ()),
        (-2, ()),
        (3.0, (0, 1, 2)),
        (2.5, (0, 1)),
        (True, (0,)),
        ("3", (0, 1, 2)),
    ],
)
def test_construction_matches_field_checks(n, p):
    built = _outcome(lambda: QueensConfig(n=n, p=p).p)
    assert built == _outcome(lambda: reference_config_check(n, p))
    # The oracle builds positionally: the same checks and the same config.
    assert _outcome(lambda: QueensConfig(n, p).p) == built
    if built[0] == "ok":
        assert QueensConfig(n, p) == QueensConfig(n=n, p=p)


def test_serialize_schema():
    assert serialize(cfg([0, 2, 4, 1, 3])) == '{"n":5,"p":[0,2,4,1,3]}'


def test_parse_examples():
    assert parse('{"n":1,"p":[0]}') == cfg([0])
    with pytest.raises(InvalidConfigError, match="'p'"):
        parse('{"n":3,"p":[0,0,1]}')


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("{", "malformed JSON"),
        ("[1,2]", "object"),
        ('{"p":[0]}', "'n'"),
        ('{"n":1}', "'p'"),
        ('{"n":"1","p":[0]}', "'n'"),
        ('{"n":1,"p":0}', "'p'"),
    ],
)
def test_parse_errors_name_the_field(text, fragment):
    with pytest.raises(InvalidConfigError, match=fragment):
        parse(text)


@given(configs)
def test_roundtrip(config):
    assert parse(serialize(config)) == config


@given(configs)
def test_toroidal_implies_classical(config):
    if is_toroidal(config):
        assert is_classical(config)


def test_toroidal_implies_classical_exhaustive_small():
    from itertools import permutations

    for n in range(1, 7):
        for p in permutations(range(n)):
            config = cfg(list(p))
            if is_toroidal(config):
                assert is_classical(config)


def test_agrees_with_pairwise_checker_on_random_permutations():
    rng = random.Random(20250808)
    for n in range(5, 13):
        for _ in range(125):
            p = list(range(n))
            rng.shuffle(p)
            config = cfg(p)
            assert is_classical(config) == naive_classical_valid(p)
            assert is_toroidal(config) == naive_toroidal_valid(p)


def _literal_toroidal(p):
    n = len(p)
    return (
        len({(x + y) % n for y, x in enumerate(p)}) == n
        and len({(x - y) % n for y, x in enumerate(p)}) == n
    )


def _pre_check_boards():
    """Boards for the integer pre-check of is_toroidal: all of n <= 8,
    seeded random ones for n = 9 .. 101, the classical solutions at
    n = 8 (integer-distinct diagonals that may collide as residues), and
    toroidal solutions from the construction."""
    from itertools import permutations

    from queens_lab.construction import BaseParams, build_base_config
    from queens_lab.counting import enumerate_solutions
    from queens_lab.flips import FlipSet, apply_flips, enumerate_flips

    for n in range(1, 9):
        yield from permutations(range(n))
    rng = random.Random(16)
    for n in range(9, 102):
        for _ in range(200):
            yield tuple(rng.sample(range(n), n))
    classical = enumerate_solutions(8, "classical")
    assert len(classical) == 92
    yield from (config.p for config in classical)
    for k in range(1, 5):
        yield build_base_config(k).p
    base = build_base_config(2)
    single = enumerate_flips(BaseParams(2))
    assert len(single) == 68
    yield from (apply_flips(base, FlipSet((flip,))).p for flip in single)


def test_toroidal_pre_check_matches_the_residue_definition():
    handed_on = accepted = 0
    for p in _pre_check_boards():
        verdict = _literal_toroidal(p)
        assert is_toroidal(cfg(p)) == verdict, p
        # Boards whose integer diagonals are distinct pass the pre-check
        # and are decided by their residues.
        handed_on += naive_classical_valid(p) and not verdict
        accepted += verdict
    assert handed_on >= 92 and accepted >= 4 + 68


@pytest.mark.parametrize("predicate,toroidal", [(is_classical, False), (is_toroidal, True)])
def test_predicates_match_counter_reference_exhaustive(predicate, toroidal):
    from itertools import permutations

    for n in range(1, 7):
        for p in permutations(range(n)):
            assert predicate(cfg(p)) == (reference_violations(p, toroidal) == ()), p


def test_torus_validation_keeps_no_quadratic_cache():
    # is_toroidal also checks base boards of n = 65 537 squares, where
    # an n x n table would hold 4.3e9 entries.  A fresh interpreter, so
    # that every per-n cache is built inside the measurement.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import queens_lab

    script = (
        "import tracemalloc\n"
        "from queens_lab.construction import build_base_config\n"
        "from queens_lab.core import is_toroidal\n"
        "config = build_base_config(8)\n"
        "tracemalloc.start()\n"
        "assert is_toroidal(config)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(queens_lab.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(done.stdout) < 16 * 2**20
