"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All assertions are exact unless a tolerance is stated inline.
"""

import json
import math
import random
import time
from pathlib import Path

from queens_lab import cli
from queens_lab.bounds import (
    attack_profiles,
    classical_alpha,
    concentric_lower_bound,
    concentric_sum,
    diagonal_exposure,
    diagonal_exposure_matrix,
)
from queens_lab.construction import BaseParams, build_base_config
from queens_lab.core import is_toroidal
from queens_lab.counting import (
    count_classical,
    count_toroidal,
    enumerate_solutions,
    oracle_count,
)
from queens_lab.flips import (
    FlipSet,
    apply_flips,
    enumerate_flips,
    greedy_disjoint_flips,
    reconstruct_flips,
)
from queens_lab.hypergraph import (
    build_steiner_aux_hg,
    build_sudoku_hg,
    build_torus_queens_hg,
    build_transversal_hg,
    count_perfect_matchings,
    cyclic_latin_square,
    stats,
)
from queens_lab.quadrature import enclose
from queens_lab.verify import PANELS

from helpers import (
    EXPOSURE_5,
    independent_sts_count,
    independent_sudoku_count,
    independent_transversal_count,
)


def report(num: int, ok: bool, description: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_exact_classical_counting():
    start = time.perf_counter()
    matches = [
        count_classical(n).count == oracle_count(n, "classical").count
        for n in range(1, 10)
    ]
    elapsed = time.perf_counter() - start
    ok = all(matches) and count_classical(8).count == 92 and elapsed < 10.0
    report(1, ok, f"classical counts equal oracle for n=1..9, Q(8)=92, {elapsed:.1f}s < 10s")


def test_criterion_2_exact_toroidal_counting():
    matches = [
        count_toroidal(n).count == oracle_count(n, "toroidal").count
        for n in range(1, 10)
    ]
    spot = count_toroidal(5).count == 10 and count_toroidal(7).count == 28
    polya = all(
        (count_toroidal(n).count == 0) == (n % 2 == 0 or n % 3 == 0)
        for n in range(1, 13)
    )
    ok = all(matches) and spot and polya
    report(2, ok, "toroidal counts equal oracle n=1..9; T(5)=10, T(7)=28; zero iff 2|n or 3|n up to 12")


def test_criterion_3_construction_validity():
    start = time.perf_counter()
    valid = [is_toroidal(build_base_config(k)) for k in range(1, 5)]
    elapsed = time.perf_counter() - start
    ok = all(valid) and elapsed < 1.0
    report(3, ok, f"base configuration valid for k=1..4 (n up to 257), {elapsed:.2f}s < 1s")


def test_criterion_4_flip_algebra():
    start = time.perf_counter()
    counts_ok = all(
        len(enumerate_flips(BaseParams(k))) == expected
        for k, expected in ((1, 5), (2, 68), (3, 1040))
    )

    singles_ok = True
    for k in (1, 2):
        base = build_base_config(k)
        for flip in enumerate_flips(BaseParams(k)):
            if not is_toroidal(apply_flips(base, FlipSet(flips=(flip,)))):
                singles_ok = False
    base3 = build_base_config(3)
    flips3 = enumerate_flips(BaseParams(3))
    for flip in random.Random(0).sample(flips3, 500):
        if not is_toroidal(apply_flips(base3, FlipSet(flips=(flip,)))):
            singles_ok = False

    roundtrip_ok = True
    params3 = BaseParams(3)
    for seed in range(100):
        chosen = greedy_disjoint_flips(params3, 4, seed=seed)
        rebuilt = reconstruct_flips(base3, apply_flips(base3, chosen))
        if set(rebuilt.canonical_ids()) != set(chosen.canonical_ids()):
            roundtrip_ok = False

    intersection_ok = True
    for k in (1, 2):
        params = BaseParams(k)
        all_flips = enumerate_flips(params)
        bound = 4 * (params.n - 1)
        for f in all_flips:
            hits = sum(1 for g in all_flips if g is not f and not f.rows.isdisjoint(g.rows))
            if hits > bound:
                intersection_ok = False

    elapsed = time.perf_counter() - start
    ok = counts_ok and singles_ok and roundtrip_ok and intersection_ok and elapsed < 30.0
    report(
        4,
        ok,
        "flip counts 5/68/1040; single flips valid (exhaustive k<=2, 500 samples k=3); "
        f"100 seeded round trips at k=3; intersection bound; {elapsed:.1f}s < 30s",
    )


def test_criterion_5_cross_formulation_equality():
    ok = all(
        count_perfect_matchings(build_torus_queens_hg(n)) == count_toroidal(n).count
        for n in (1, 3, 5, 7)
    )
    report(5, ok, "perfect matchings of the torus hypergraph equal T(n) for n in {1,3,5,7}")


def test_criterion_6_hypergraph_constructors():
    start = time.perf_counter()
    torus = stats(build_torus_queens_hg(5))
    trans = stats(build_transversal_hg(cyclic_latin_square(3)))
    sudoku = stats(build_sudoku_hg(2))
    steiner = stats(build_steiner_aux_hg(7, 3, 2))
    stats_ok = (
        (torus.num_vertices, torus.num_edges, torus.d, torus.k, torus.max_codegree)
        == (20, 25, 4, 5, 1)
        and (trans.num_vertices, trans.num_edges, trans.d, trans.k, trans.max_codegree)
        == (9, 9, 3, 3, 1)
        and (sudoku.num_vertices, sudoku.num_edges, sudoku.d, sudoku.k) == (64, 64, 4, 4)
        and sudoku.max_codegree <= 2
        and (steiner.num_vertices, steiner.num_edges, steiner.d, steiner.k) == (21, 35, 3, 5)
    )
    trans_pm = count_perfect_matchings(build_transversal_hg(cyclic_latin_square(3)))
    steiner_pm = count_perfect_matchings(build_steiner_aux_hg(7, 3, 2))
    sudoku_pm = count_perfect_matchings(build_sudoku_hg(2))
    counts_ok = (
        trans_pm == independent_transversal_count(cyclic_latin_square(3)) == 3
        and steiner_pm == independent_sts_count(7) == 30
        and sudoku_pm == independent_sudoku_count(2) == 288
    )
    elapsed = time.perf_counter() - start
    ok = stats_ok and counts_ok and elapsed < 300.0
    report(
        6,
        ok,
        "constructor stats match claims; matchings: transversal-3 = 3, "
        f"Steiner(7,3,2) = 30, Sudoku b=2 = 288, all vs independent oracles; {elapsed:.1f}s < 5min",
    )


def test_criterion_7_exposure_identities():
    matrix_ok = diagonal_exposure_matrix(5) == EXPOSURE_5
    counts = {4: 2, 5: 10, 6: 4, 7: 40, 8: 92}
    identity_ok = True
    inequality_ok = True
    for n, expected_count in counts.items():
        solutions = enumerate_solutions(n, "classical")
        if len(solutions) != expected_count:
            identity_ok = False
        floor = concentric_lower_bound(n)
        for config in solutions:
            profiles = attack_profiles(config)
            if any(p.by_three + p.by_two + p.by_one != n - 1 for p in profiles):
                identity_ok = False
            lhs = concentric_sum(config)
            rhs = sum(diagonal_exposure(n, y, x) for x, y in config.squares())
            if lhs != rhs:
                identity_ok = False
            if lhs < floor:
                inequality_ok = False
    ok = matrix_ok and identity_ok and inequality_ok
    report(
        7,
        ok,
        "exposure matrix n=5 entrywise; pair identity and ring inequality over "
        "all 2+10+4+40+92 solutions at n=4..8",
    )


def test_criterion_8_numeric_constants():
    alpha_closed = classical_alpha("closed_form")
    alpha_quad = classical_alpha("quadrature")
    alpha_ok = abs(alpha_closed - alpha_quad) <= 1e-9 and 1.587 < alpha_closed < 1.588

    # Certified ends at verify's panel count: the matching-bound integral
    # sits above log k - (d-1), and the log gap stays below 2/sqrt(n).
    grid_ok = all(
        enclose(lambda x: math.log1p((k - 1) * x ** (d - 1)), PANELS).lower >= math.log(k) - (d - 1)
        for k in (5, 17, 100)
        for d in (2, 3, 4)
    )

    gap_ok = True
    for n in (16, 64, 256, 1024):
        with_one = enclose(lambda x: math.log1p((n - 1) * x), PANELS).upper
        without = math.log(n - 1) - 1.0
        if with_one - without > 2.0 / math.sqrt(n):
            gap_ok = False

    ok = alpha_ok and grid_ok and gap_ok
    report(
        8,
        ok,
        "alpha closed form vs quadrature within 1e-9 in (1.587, 1.588); "
        "enclosed integral grid >= log k - (d-1); enclosed log gap <= 2/sqrt(n)",
    )


def test_criterion_9_full_verify_determinism(capsys):
    def run() -> str:
        code = cli.main(["verify", "--level", "full"])
        out = capsys.readouterr().out
        assert code == 0
        return out

    pinned = (Path(__file__).parent / "data" / "verify_full.json").read_text(encoding="utf-8")
    first = run()
    second = run()
    payload = json.loads(first)
    ok = payload["passed"] and pinned == first == second
    with capsys.disabled():
        report(
            9,
            ok,
            "verify --level full byte-identical to the pinned report, across repeats",
        )
