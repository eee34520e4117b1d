import random
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from queens_lab.core import (
    QueensConfig,
    Square,
    ValidityReport,
    Violation,
    is_classical,
    is_toroidal,
    parse,
    serialize,
    validate_classical,
    validate_toroidal,
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
    report = validate_toroidal(cfg([0, 2, 4, 1, 3]))
    assert report.is_valid
    assert report.violations == ()


def test_toroidal_single_queen():
    assert validate_toroidal(cfg([0])).is_valid


def test_toroidal_identity_permutation_violations():
    # p[y] = y puts all queens on one wrap-around difference class.
    report = validate_toroidal(cfg([0, 1, 2, 3]))
    assert not report.is_valid
    assert Violation("minus-diagonal", 0, 4) in report.violations
    assert Violation("plus-diagonal", 0, 2) in report.violations
    assert Violation("plus-diagonal", 2, 2) in report.violations
    assert len(report.violations) == 3


def test_classical_standard_four_queens():
    assert validate_classical(cfg([1, 3, 0, 2])).is_valid


def test_classical_adjacent_diagonal():
    report = validate_classical(cfg([0, 1]))
    assert not report.is_valid
    assert report.violations == (Violation("minus-diagonal", 0, 2),)


def test_toroidal_solution_is_classical_solution():
    assert validate_classical(cfg([0, 2, 4, 1, 3])).is_valid


def test_classical_negative_diagonal_index():
    # Classical difference indices are plain integers, so they can go negative.
    report = validate_classical(cfg([1, 0, 3, 2]))
    assert Violation("minus-diagonal", -1, 2) in report.violations
    assert Violation("plus-diagonal", 1, 2) in report.violations


def test_squares_accessor():
    config = cfg([1, 0])
    assert config.squares() == (Square(1, 0), Square(0, 1))
    assert config.occupied(Square(1, 0))
    assert not config.occupied(Square(0, 0))


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
    if validate_toroidal(config).is_valid:
        assert validate_classical(config).is_valid


def test_toroidal_implies_classical_exhaustive_small():
    from itertools import permutations

    for n in range(1, 7):
        for p in permutations(range(n)):
            config = cfg(list(p))
            if validate_toroidal(config).is_valid:
                assert validate_classical(config).is_valid


def test_agrees_with_pairwise_checker_on_random_permutations():
    rng = random.Random(20250808)
    for n in range(5, 13):
        for _ in range(125):
            p = list(range(n))
            rng.shuffle(p)
            config = cfg(p)
            assert validate_classical(config).is_valid == naive_classical_valid(p)
            assert validate_toroidal(config).is_valid == naive_toroidal_valid(p)


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


@pytest.mark.parametrize(
    "validator,toroidal", [(validate_classical, False), (validate_toroidal, True)]
)
def test_reports_match_counter_reference_exhaustive(validator, toroidal):
    import pickle
    from itertools import permutations

    predicate = is_toroidal if toroidal else is_classical

    for n in range(1, 7):
        for p in permutations(range(n)):
            report = validator(cfg(p))
            expected = reference_violations(p, toroidal)
            assert report.is_valid == (expected == ())
            assert predicate(cfg(p)) == (expected == ())
            assert report.violations == expected
            assert report.violations == expected  # second read: same tally
            # Each report below is fresh, so its first read is its own
            # tally: a rejected report behaves as the constructed one.
            direct = ValidityReport(expected == (), tuple(Violation(*v) for v in expected))
            assert isinstance(validator(cfg(p)), ValidityReport)
            assert validator(cfg(p)) == direct
            assert direct == validator(cfg(p))
            assert hash(validator(cfg(p))) == hash(direct)
            assert repr(validator(cfg(p))) == repr(direct)
            restored = pickle.loads(pickle.dumps(validator(cfg(p))))
            assert type(restored) is ValidityReport
            assert repr(restored) == repr(direct)


def test_lazy_report_equality_hash_and_repr():
    report = validate_classical(cfg([0, 1]))
    direct = ValidityReport(is_valid=False, violations=(Violation("minus-diagonal", 0, 2),))
    assert report == direct
    assert hash(report) == hash(direct)
    assert repr(report) == repr(direct)
    assert repr(direct) == (
        "ValidityReport(is_valid=False, "
        "violations=(Violation(kind='minus-diagonal', index=0, multiplicity=2),))"
    )


def test_valid_report_equals_constructed_one():
    expected = ValidityReport(is_valid=True, violations=())
    assert validate_toroidal(cfg([0, 2, 4, 1, 3])) == expected
    assert validate_classical(cfg([1, 3, 0, 2])) == expected
    assert validate_classical(cfg([0, 1])) != expected


def test_torus_validation_keeps_no_quadratic_cache():
    # The validators also check base boards of n = 65 537 squares, where
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
        "from queens_lab.core import validate_toroidal\n"
        "config = build_base_config(8)\n"
        "tracemalloc.start()\n"
        "assert validate_toroidal(config).is_valid\n"
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


def test_report_is_immutable_and_pickles():
    import pickle

    for report in (
        validate_toroidal(cfg([0, 1, 2, 3])),
        validate_classical(cfg([0, 1])),
        ValidityReport(False, (Violation("minus-diagonal", 0, 2),)),
    ):
        before = repr(report)
        for name in ("is_valid", "violations", "_pending", "_violations", "other"):
            with pytest.raises(AttributeError):
                setattr(report, name, True)
            with pytest.raises(AttributeError):
                delattr(report, name)
        assert report.is_valid is False
        assert repr(report) == before
        assert pickle.loads(pickle.dumps(report)) == report
