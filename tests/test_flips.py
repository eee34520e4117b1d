import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from queens_lab import cli, construction, errors, flips
from queens_lab.construction import BaseParams, build_base_config
from queens_lab.core import QueensConfig, Square, is_toroidal
from queens_lab.errors import (
    FlipError,
    GreedyExhaustionError,
    InvalidConfigError,
    QueensLabError,
    ReconstructionError,
    SizeLimitError,
)
from queens_lab.flips import (
    Flip,
    FlipSet,
    apply_flips,
    enumerate_flips,
    flip_for_square,
    greedy_disjoint_flips,
    lower_bound_log_count,
    reconstruct_flips,
)

from helpers import reference_flips, reference_greedy_scan

P1 = BaseParams(1)
P2 = BaseParams(2)
P3 = BaseParams(3)


def test_companion_pair_examples():
    assert flips._rows(P1, 0, 1) == (0, 1, 4, 2)
    assert flips._rows(P1, 1, 0) == (1, 0, 2, 4)
    assert flips._rows(P2, 0, 1) == (0, 1, 11, 7)


def test_companion_pair_is_involution():
    for y1 in range(P2.n):
        for y2 in range(y1 + 1, P2.n):
            _, _, y3, y4 = flips._rows(P2, y1, y2)
            assert {y3, y4}.isdisjoint({y1, y2})
            assert set(flips._rows(P2, y3, y4)[2:]) == {y1, y2}


def test_flip_for_square_example():
    flip = flip_for_square(P1, Square(0, 1))
    assert set(flip.removed) == {Square(0, 0), Square(2, 1), Square(4, 2), Square(3, 4)}
    assert set(flip.added) == {Square(0, 1), Square(2, 0), Square(4, 4), Square(3, 2)}
    assert flip.canonical_id == Square(0, 1)


def test_flip_for_square_occupied():
    with pytest.raises(FlipError, match="occupied"):
        flip_for_square(P1, Square(0, 0))
    with pytest.raises(FlipError, match="outside"):
        flip_for_square(P1, Square(5, 0))


@pytest.mark.parametrize("square", [(1.5, 2), (True, 2), (0, 1.0)])
def test_flip_for_square_refuses_non_int_coordinates(square):
    with pytest.raises(FlipError, match="integer coordinates"):
        flip_for_square(P1, square)


@pytest.mark.parametrize("params,expected", [(P1, 5), (P2, 68), (P3, 1040)])
def test_flip_count_formula(params, expected):
    assert len(enumerate_flips(params)) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_enumeration_matches_row_pair_reference(k):
    params = BaseParams(k)
    assert enumerate_flips(params) == reference_flips(params)


@pytest.mark.parametrize("params", [P1, P2])
def test_added_squares_partition_unoccupied(params):
    base = build_base_config(params.k)
    occupied = set(base.squares())
    added = [s for f in enumerate_flips(params) for s in f.added]
    assert len(added) == params.n * (params.n - 1)
    assert len(set(added)) == len(added)
    assert not (set(added) & occupied)


@pytest.mark.parametrize("params", [P1, P2])
def test_every_unoccupied_square_gets_its_flip(params):
    for x in range(params.n):
        for y in range(params.n):
            if (params.m * y) % params.n == x:
                continue
            assert Square(x, y) in flip_for_square(params, Square(x, y)).added


@pytest.mark.parametrize("params", [P1, P2])
def test_single_flip_boards_are_valid(params):
    base = build_base_config(params.k)
    for flip in enumerate_flips(params):
        modified = apply_flips(base, FlipSet(flips=(flip,)))
        assert is_toroidal(modified)


def test_flips_disjoint():
    all_flips = enumerate_flips(P1)
    assert not all_flips[0].rows.isdisjoint(all_flips[0].rows)
    # Each k=1 flip uses 4 of the 5 queens, so any two must overlap.
    for f in all_flips:
        for g in all_flips:
            if f is not g:
                assert not f.rows.isdisjoint(g.rows)
    pair = greedy_disjoint_flips(P2, 2)
    assert pair.flips[0].rows.isdisjoint(pair.flips[1].rows)


@pytest.mark.parametrize("params", [P1, P2])
def test_intersection_bound(params):
    all_flips = enumerate_flips(params)
    bound = 4 * (params.n - 1)
    for f in all_flips:
        hits = sum(1 for g in all_flips if g is not f and not f.rows.isdisjoint(g.rows))
        assert hits <= bound


def test_greedy_counts():
    assert len(greedy_disjoint_flips(P1, 1)) == 1
    assert len(greedy_disjoint_flips(P2, P2.n // 16)) == 1
    chosen = greedy_disjoint_flips(P3, 4)
    assert len(chosen) == 4
    assert is_toroidal(apply_flips(build_base_config(3), chosen))


def test_greedy_deterministic_without_seed():
    first = greedy_disjoint_flips(P1, 1)
    assert first.canonical_ids() == (Square(0, 1),)
    assert greedy_disjoint_flips(P3, 4) == greedy_disjoint_flips(P3, 4)


def test_greedy_seeded_reproducible():
    a = greedy_disjoint_flips(P3, 4, seed=11)
    b = greedy_disjoint_flips(P3, 4, seed=11)
    assert a == b
    seen = {greedy_disjoint_flips(P3, 4, seed=s).canonical_ids() for s in range(20)}
    assert len(seen) > 1


def test_greedy_exhaustion():
    # The unseeded scan reaches 14 of the n // 4 = 16 flips of k = 3.
    with pytest.raises(GreedyExhaustionError) as info:
        greedy_disjoint_flips(P3, 15)
    assert info.value.achieved == 14
    assert info.value.requested == 15


@pytest.mark.parametrize("seed", [None, 0])
def test_more_flips_than_a_quarter_of_the_queens_are_refused_at_once(monkeypatch, seed):
    # Disjoint flips remove 4t distinct queens of the n, so t <= n // 4.
    assert len(greedy_disjoint_flips(P1, P1.n // 4, seed=seed)) == 1
    with pytest.raises(GreedyExhaustionError):
        greedy_disjoint_flips(P3, P3.n // 4, seed=seed)

    def refuse(*args, **kwargs):
        raise AssertionError("a square was scanned")

    monkeypatch.setattr(flips, "_free_flips", refuse)
    monkeypatch.setattr(flips, "_flip", refuse)
    for params in (P1, P3, BaseParams(8)):
        with pytest.raises(FlipError, match="more than the") as info:
            greedy_disjoint_flips(params, params.n // 4 + 1, seed=seed)
        assert type(info.value) is FlipError


@pytest.mark.parametrize("t", [2.5, True])
@pytest.mark.parametrize("seed", [None, 0])
def test_greedy_refuses_a_non_int_count(monkeypatch, t, seed):
    # 2.5 would never equal the count kept, and True would stand for 1.
    def refuse(*args, **kwargs):
        raise AssertionError("a flip was drawn or scanned")

    monkeypatch.setattr(flips, "_free_flips", refuse)
    monkeypatch.setattr(flips, "_sampled_disjoint", refuse)
    with pytest.raises(FlipError, match="t must be an integer") as info:
        greedy_disjoint_flips(P2, t, seed=seed)
    assert type(info.value) is FlipError


def test_flipset_rejects_overlap():
    all_flips = enumerate_flips(P1)
    with pytest.raises(FlipError):
        FlipSet(flips=(all_flips[0], all_flips[1]))


def test_apply_empty_is_identity():
    base = build_base_config(1)
    assert apply_flips(base, FlipSet(flips=())) == base


def test_apply_example():
    base = build_base_config(1)
    flip = flip_for_square(P1, Square(0, 1))
    modified = apply_flips(base, FlipSet(flips=(flip,)))
    assert modified.p == (2, 0, 3, 1, 4)


@pytest.mark.parametrize(
    "removed, added",
    [
        (None, ((0, 1), (2, 0), (3, 4), (4, 2))),  # two added columns swapped
        (None, ((0, 1), (2, 0), (3, 2), (4, 5))),  # an added row off the board
        (None, ((0, 7), (2, 0), (3, 2), (4, 4))),  # the canonical id off the board
        (((0, 0), (2, 1), (1, 2), (3, 4)), None),  # a removed square not a base queen
    ],
)
def test_apply_refuses_hand_made_flips(removed, added):
    real = flip_for_square(P1, Square(0, 1))
    fake = Flip(
        removed=real.removed if removed is None else tuple(Square(*s) for s in removed),
        added=real.added if added is None else tuple(Square(*s) for s in added),
    )
    assert fake != real
    with pytest.raises(FlipError) as info:
        apply_flips(build_base_config(1), FlipSet(flips=(fake,)))
    assert type(info.value) is FlipError


def test_apply_requires_base_configuration():
    other = QueensConfig(n=5, p=(0, 3, 1, 4, 2))  # multiplier-3 board, not the base
    assert is_toroidal(other)
    with pytest.raises(FlipError):
        apply_flips(other, FlipSet(flips=()))
    with pytest.raises(QueensLabError):
        apply_flips(QueensConfig(n=4, p=(1, 3, 0, 2)), FlipSet(flips=()))


def test_base_check_builds_no_base_board(monkeypatch):
    base = build_base_config(2)
    flip_set = FlipSet(flips=(flip_for_square(P2, Square(0, 1)),))

    def no_build(k):
        raise AssertionError("build_base_config called")

    # Both lookups: through construction, and a name bound in flips.
    monkeypatch.setattr("queens_lab.construction.build_base_config", no_build)
    monkeypatch.setattr(flips, "build_base_config", no_build, raising=False)
    modified = apply_flips(base, flip_set)
    assert reconstruct_flips(base, modified) == flip_set
    other = QueensConfig(n=5, p=(0, 3, 1, 4, 2))
    with pytest.raises(FlipError, match="only over the base configuration"):
        reconstruct_flips(other, other)


def test_single_flip_boards_distinct_from_base_and_each_other():
    base = build_base_config(2)
    boards = [
        apply_flips(base, FlipSet(flips=(f,))).p for f in enumerate_flips(P2)
    ]
    assert len(set(boards)) == len(boards) == 68
    assert base.p not in boards


def test_reconstruct_identity_on_base():
    base = build_base_config(1)
    assert reconstruct_flips(base, base) == FlipSet(flips=())


@pytest.mark.parametrize("params", [P1, P2])
def test_reconstruct_roundtrip_single_flips(params):
    base = build_base_config(params.k)
    for flip in enumerate_flips(params):
        chosen = FlipSet(flips=(flip,))
        assert reconstruct_flips(base, apply_flips(base, chosen)) == chosen


def test_reconstruct_roundtrip_seeded_sets():
    base = build_base_config(3)
    for seed in range(10):
        chosen = greedy_disjoint_flips(P3, 4, seed=seed)
        rebuilt = reconstruct_flips(base, apply_flips(base, chosen))
        assert rebuilt.canonical_ids() == chosen.canonical_ids()


def test_reconstruct_rejects_unreachable_board():
    base = build_base_config(1)
    p = list(base.p)
    p[0], p[3] = p[3], p[0]  # plain transposition, not a flip
    with pytest.raises(ReconstructionError):
        reconstruct_flips(base, QueensConfig(n=5, p=tuple(p)))


def _disjoint_sets(all_flips, start=0, used=frozenset()):
    """Every pairwise-disjoint subset of ``all_flips[start:]`` free of the
    rows ``used``, each in list order, the empty set included."""
    yield ()
    for i in range(start, len(all_flips)):
        flip = all_flips[i]
        if not (used & flip.rows):
            for rest in _disjoint_sets(all_flips, i + 1, used | flip.rows):
                yield (flip, *rest)


def test_reconstruct_roundtrip_every_disjoint_set_at_k2():
    base = build_base_config(2)
    sets = list(_disjoint_sets(enumerate_flips(P2)))
    assert len(sets) == 1548
    for chosen in sets:
        flip_set = FlipSet(flips=chosen)
        assert reconstruct_flips(base, apply_flips(base, flip_set)) == flip_set


@pytest.mark.parametrize(
    "p, queen, message",
    [
        # Rows 0 and 1 of the base swapped: the flip of (2, 0) needs row 2.
        ((2, 0, 4, 1, 3), (2, 0), "its flip needs row 2 displaced, but row 2 is unchanged"),
        # Rows 0 and 2 of the flip board (2, 0, 3, 1, 4) swapped.
        ((3, 0, 2, 1, 4), (3, 0), "its flip places column 0 in row 4, found 4"),
    ],
)
def test_reconstruct_refusal_messages(p, queen, message):
    with pytest.raises(ReconstructionError) as info:
        reconstruct_flips(build_base_config(1), QueensConfig(n=5, p=p))
    assert type(info.value) is ReconstructionError
    assert info.value.queen == Square(*queen)
    assert info.value.message == message
    assert str(info.value) == f"queen at {queen}: {message}"


def test_lower_bound_log_values():
    assert lower_bound_log_count(17) == pytest.approx(math.log(68))
    expected = (
        math.log(1040) + math.log(1040 - 256) + math.log(1040 - 512) + math.log(1040 - 768)
        - math.lgamma(5)
    )
    assert lower_bound_log_count(65) == pytest.approx(expected)


def test_lower_bound_log_small_boards():
    assert lower_bound_log_count(5) == 0.0
    with pytest.raises(FlipError):
        lower_bound_log_count(0)


@pytest.mark.parametrize("n", [17.0, True])
def test_lower_bound_log_refuses_a_non_int_board_size(n):
    with pytest.raises(FlipError, match="n must be an integer") as info:
        lower_bound_log_count(n)
    assert type(info.value) is FlipError


@pytest.mark.parametrize("n", [1, 4, 6, 15, 16, 18, 21, 33, 48, 64, 66])
def test_lower_bound_log_refuses_boards_without_flips(n):
    # No base board exists off n = 4^k + 1, so there is nothing to count.
    with pytest.raises(InvalidConfigError, match=f"board size {n} is not"):
        lower_bound_log_count(n)


@pytest.mark.parametrize("n", [17, 65, 257, 1025])
def test_lower_bound_log_finite_positive(n):
    value = lower_bound_log_count(n)
    assert math.isfinite(value) and value > 0


def test_lower_bound_log_is_capped_like_the_boards():
    assert lower_bound_log_count(4**8 + 1) > 0
    with pytest.raises(SizeLimitError, match="k = 9 exceeds cap 8"):
        lower_bound_log_count(4**9 + 1)


def test_lower_bound_log_honours_the_env_cap(monkeypatch):
    monkeypatch.setenv("QUEENS_LAB_CAP", "65")
    assert lower_bound_log_count(65) > 0
    with pytest.raises(SizeLimitError):
        lower_bound_log_count(257)


def test_canonical_ids_sorted_in_flipset():
    rng = random.Random(3)
    flips = enumerate_flips(P3)
    rng.shuffle(flips)
    chosen = []
    used = set()
    for f in flips:
        if len(chosen) == 3:
            break
        if not (used & f.rows):
            chosen.append(f)
            used |= f.rows
    flip_set = FlipSet(flips=tuple(chosen))
    assert list(flip_set.canonical_ids()) == sorted(flip_set.canonical_ids())


def test_enumerate_flips_inverts_m_plus_one_once(monkeypatch):
    # BaseParams takes the one inverse; enumerate_flips reads it and
    # computes none.
    calls = []

    def counted(*args):
        calls.append(args)
        return pow(*args)

    for module in (construction, flips):
        monkeypatch.setattr(module, "pow", counted, raising=False)
    params = BaseParams(2)
    assert [args for args in calls if args[1] == -1] == [(P2.m + 1, -1, P2.n)]
    calls.clear()
    assert len(enumerate_flips(params)) == 17 * 16 // 4
    assert calls == []


@pytest.mark.parametrize("params", [P1, P2, P3])
def test_unseeded_selection_matches_enumerate_then_scan(params):
    all_flips = reference_flips(params)
    most = len(reference_greedy_scan(all_flips, len(all_flips)))
    for t in range(most + 2):
        expected = reference_greedy_scan(all_flips, t)
        if t <= most:
            assert greedy_disjoint_flips(params, t).flips == tuple(expected)
        elif t <= params.n // 4:
            with pytest.raises(GreedyExhaustionError) as info:
                greedy_disjoint_flips(params, t)
            assert (info.value.requested, info.value.achieved) == (t, most)
        else:
            with pytest.raises(FlipError, match="more than the"):
                greedy_disjoint_flips(params, t)


@pytest.mark.parametrize("t", [1, 2, 4, 8])
def test_seeded_picks_are_disjoint_and_round_trip(t):
    base = build_base_config(3)
    for seed in range(10):
        chosen = greedy_disjoint_flips(P3, t, seed=seed)
        rows = [s.y for f in chosen for s in f.removed]
        assert len(chosen) == t and len(rows) == len(set(rows)) == 4 * t
        board = apply_flips(base, chosen)
        assert is_toroidal(board)
        assert reconstruct_flips(base, board) == chosen


def test_seeded_single_pick_is_uniform():
    # 6 800 seeds over the 68 flips of k = 2: 100 hits expected per flip.
    # The chi-square statistic has 67 degrees of freedom (mean 67, sd
    # 11.6); 110 is about 3.7 sd above the mean.
    hits = Counter(greedy_disjoint_flips(P2, 1, seed=s).flips[0] for s in range(6800))
    assert set(hits) == set(enumerate_flips(P2))
    expected = 6800 / 68
    assert sum((h - expected) ** 2 / expected for h in hits.values()) < 110


def test_seeded_exhaustion_reports_greedy_count():
    with pytest.raises(GreedyExhaustionError) as info:
        greedy_disjoint_flips(P2, 4, seed=0)
    assert (info.value.requested, info.value.achieved) == (4, 3)


def test_seeded_selection_at_k8_never_enumerates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_flips called")

    monkeypatch.setattr(flips, "enumerate_flips", refuse)
    params = BaseParams(8)
    chosen = greedy_disjoint_flips(params, params.n // 16, seed=1)
    assert len(chosen) == 4096
    base = build_base_config(8)
    board = apply_flips(base, chosen)
    assert is_toroidal(board)
    assert reconstruct_flips(base, board) == chosen


def test_enumeration_is_bounded_before_any_pair(monkeypatch):
    pairs = []
    build = flips._flip

    def counted(params, rows):
        pairs.append(rows)
        return build(params, rows)

    monkeypatch.setattr(flips, "_flip", counted)
    monkeypatch.setitem(errors.CAPS, "edges", 68)
    assert len(enumerate_flips(P2)) == 68
    pairs.clear()
    monkeypatch.setitem(errors.CAPS, "edges", 67)
    with pytest.raises(SizeLimitError, match="68 flips"):
        enumerate_flips(P2)
    assert pairs == []


def test_seeded_fallback_ignores_the_enumeration_cap(monkeypatch):
    # Both selections scan only the flips still free, so neither is bound
    # by the cap on enumerating every flip at once.
    monkeypatch.setitem(errors.CAPS, "edges", 67)
    assert len(greedy_disjoint_flips(P2, 2, seed=0)) == 2
    assert len(greedy_disjoint_flips(P2, 4)) == 4
    # Seed 0 samples 3 of the n // 4 = 4 flips, then falls back.
    with pytest.raises(GreedyExhaustionError) as info:
        greedy_disjoint_flips(P2, 4, seed=0)
    assert (info.value.requested, info.value.achieved) == (4, 3)


def test_seeded_exhaustion_above_the_enumeration_cap_reports_greedy_count(monkeypatch):
    # k = 6 has 4 195 328 flips, over the "edges" cap, so the fallback
    # must not enumerate them; n // 4 = 1 024 disjoint flips would need
    # all but one row used, which the seeded greedy pass does not reach.
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_flips called")

    monkeypatch.setattr(flips, "enumerate_flips", refuse)
    params = BaseParams(6)
    with pytest.raises(GreedyExhaustionError) as info:
        greedy_disjoint_flips(params, params.n // 4, seed=0)
    assert (info.value.requested, info.value.achieved) == (1024, 978)
    assert len(greedy_disjoint_flips(params, 978, seed=0)) == 978


@pytest.mark.parametrize("cap, code", [(68, 0), (67, 1)])
def test_flips_cli_over_the_cap_is_size_limit_error(monkeypatch, capsys, cap, code):
    monkeypatch.setitem(errors.CAPS, "edges", cap)
    assert cli.main(["flips", "--k", "2", "--list"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["count"] == 68
    else:
        assert out == ""
        assert json.loads(err)["code"] == "size-limit"


def test_flips_cli_count_at_k8_never_enumerates(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerate_flips called")

    monkeypatch.setattr(flips, "enumerate_flips", refuse)
    assert cli.main(["flips", "--k", "8", "--count"]) == 0
    assert json.loads(capsys.readouterr().out) == {"k": 8, "n": 65537, "count": 65537 * 16384}


def test_picks_and_enumeration_match_the_pinned_file():
    """``data/greedy_flips.json`` pins which flips are picked, not only that
    a pick repeats: the canonical ids of greedy_disjoint_flips for k = 1..5,
    t in {1, n // 16, n // 4} and seed in {None, 0, 1, 2} (the count
    achieved where the pass exhausts), and the added squares of every flip
    that enumerate_flips lists for k <= 3, flattened to x0, y0, .., x3, y3."""
    pinned = json.loads((Path(__file__).parent / "data" / "greedy_flips.json").read_text("utf-8"))
    for case in pinned["greedy"]:
        params = BaseParams(case["k"])
        if "ids" in case:
            ids = greedy_disjoint_flips(params, case["t"], seed=case["seed"]).canonical_ids()
            assert [list(s) for s in ids] == case["ids"], case
        else:
            with pytest.raises(GreedyExhaustionError) as info:
                greedy_disjoint_flips(params, case["t"], seed=case["seed"])
            assert info.value.achieved == case["achieved"], case
    for k, added in pinned["enumerate_flips"].items():
        flat = [[c for s in f.added for c in s] for f in enumerate_flips(BaseParams(int(k)))]
        assert flat == added, k


def test_flips_list_matches_the_pinned_file(capsys):
    pinned = (Path(__file__).parent / "data" / "flips_k2_list.json").read_text("utf-8")
    assert cli.main(["flips", "--k", "2", "--list"]) == 0
    assert capsys.readouterr().out == pinned


def test_flips_are_built_only_where_returned(monkeypatch):
    # The kernels pass row quadruples; a Flip is built, balance-checked,
    # once per flip that a public function returns, and never for a
    # selection that exhausts.
    built = []
    build = flips._flip

    def counted(params, rows):
        built.append(rows)
        return build(params, rows)

    monkeypatch.setattr(flips, "_flip", counted)
    for params in (P1, P2, P3):
        built.clear()
        assert len(enumerate_flips(params)) == len(built) == params.n * (params.n - 1) // 4
    for params, t, seed in ((P3, 4, None), (P3, 14, None), (P3, 4, 0), (P2, 3, 0)):
        built.clear()
        assert len(greedy_disjoint_flips(params, t, seed=seed)) == len(built) == t
    params = BaseParams(6)
    built.clear()
    with pytest.raises(GreedyExhaustionError):
        greedy_disjoint_flips(params, params.n // 4, seed=0)
    assert built == []
