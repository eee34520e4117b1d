"""Self-verification suite: every cross-module invariant, one place.

``quick`` keeps board sizes at n <= 7 and flip parameters at k <= 2;
``full`` raises them to n <= 9 / k <= 3 and adds the order-4 Sudoku
matching count.  The report contains only exact values and booleans
(no timings), so repeated runs are byte-identical regardless of the
worker count.
"""

from __future__ import annotations

import math
import random

from . import bounds, core, counting, flips, hypergraph
from .construction import BaseParams, build_base_config, check_units
from .errors import InvalidConfigError

LEVELS = ("quick", "full")


def _check(name: str, passed: bool, expected, actual) -> dict:
    return {"name": name, "passed": bool(passed), "expected": expected, "actual": actual}


def _counting_checks(n_max: int, polya_max: int, threads: int) -> list[dict]:
    checks = []
    fast_c = {n: counting.count_classical(n, threads=threads).count for n in range(1, polya_max + 1)}
    fast_t = {n: counting.count_toroidal(n, threads=threads).count for n in range(1, polya_max + 1)}
    oracle_c = {n: counting.oracle_count(n, "classical").count for n in range(1, n_max + 1)}
    oracle_t = {n: counting.oracle_count(n, "toroidal").count for n in range(1, n_max + 1)}
    checks.append(
        _check(
            "count-classical-matches-oracle",
            all(fast_c[n] == oracle_c[n] for n in oracle_c),
            [[n, oracle_c[n]] for n in sorted(oracle_c)],
            [[n, fast_c[n]] for n in sorted(oracle_c)],
        )
    )
    checks.append(
        _check(
            "count-toroidal-matches-oracle",
            all(fast_t[n] == oracle_t[n] for n in oracle_t),
            [[n, oracle_t[n]] for n in sorted(oracle_t)],
            [[n, fast_t[n]] for n in sorted(oracle_t)],
        )
    )
    checks.append(
        _check(
            "toroidal-count-at-most-classical",
            all(fast_t[n] <= fast_c[n] for n in fast_c),
            "T(n) <= Q(n)",
            [[n, fast_t[n], fast_c[n]] for n in sorted(fast_c)],
        )
    )
    zero_pattern = {n: math.gcd(n, 6) > 1 for n in fast_t}
    checks.append(
        _check(
            "toroidal-zero-iff-shares-factor-with-six",
            all((fast_t[n] == 0) == zero_pattern[n] for n in fast_t),
            [[n, zero_pattern[n]] for n in sorted(fast_t)],
            [[n, fast_t[n] == 0] for n in sorted(fast_t)],
        )
    )
    return checks


def _construction_checks(k_max: int) -> list[dict]:
    checks = []
    validity = {}
    additivity = {}
    for k in range(1, k_max + 1):
        config = build_base_config(k)
        validity[k] = core.validate_toroidal(config).is_valid
        n = config.n
        additivity[k] = all(
            config.p[(y1 + y2) % n] == (config.p[y1] + config.p[y2]) % n
            for y1 in range(n)
            for y2 in range(n)
        )
    checks.append(
        _check(
            "base-config-toroidal-valid",
            all(validity.values()),
            [[k, True] for k in sorted(validity)],
            [[k, validity[k]] for k in sorted(validity)],
        )
    )
    checks.append(
        _check(
            "base-config-multiplier-additivity",
            all(additivity.values()),
            [[k, True] for k in sorted(additivity)],
            [[k, additivity[k]] for k in sorted(additivity)],
        )
    )
    units = {k: check_units(BaseParams.from_k(k)) for k in range(1, 7)}
    checks.append(
        _check(
            "shifted-multipliers-are-units",
            all(units.values()),
            [[k, True] for k in sorted(units)],
            [[k, units[k]] for k in sorted(units)],
        )
    )
    return checks


def _flip_checks(k_max: int, full: bool) -> list[dict]:
    checks = []
    counts = {}
    for k in range(1, k_max + 1):
        params = BaseParams.from_k(k)
        counts[k] = [len(flips.enumerate_flips(params)), params.n * (params.n - 1) // 4]
    checks.append(
        _check(
            "flip-count-formula",
            all(got == want for got, want in counts.values()),
            [[k, v[1]] for k, v in sorted(counts.items())],
            [[k, v[0]] for k, v in sorted(counts.items())],
        )
    )

    single_valid = {}
    cover_exact = {}
    intersect_ok = {}
    for k in (1, 2):
        params = BaseParams.from_k(k)
        base = build_base_config(k)
        all_flips = flips.enumerate_flips(params)
        single_valid[k] = all(
            core.validate_toroidal(
                flips.apply_flips(base, flips.FlipSet(flips=(f,)))
            ).is_valid
            for f in all_flips
        )
        added = [s for f in all_flips for s in f.added]
        occupied = set(base.squares())
        cover_exact[k] = (
            len(added) == len(set(added)) == params.n * (params.n - 1)
            and not (set(added) & occupied)
        )
        bound = 4 * (params.n - 1)
        intersect_ok[k] = all(
            sum(1 for g in all_flips if g is not f and not flips.flips_disjoint(f, g))
            <= bound
            for f in all_flips
        )
    if full:
        params3 = BaseParams.from_k(3)
        base3 = build_base_config(3)
        rng = random.Random(0)
        sample = rng.sample(flips.enumerate_flips(params3), 100)
        single_valid[3] = all(
            core.validate_toroidal(
                flips.apply_flips(base3, flips.FlipSet(flips=(f,)))
            ).is_valid
            for f in sample
        )
    checks.append(
        _check(
            "single-flip-boards-valid",
            all(single_valid.values()),
            [[k, True] for k in sorted(single_valid)],
            [[k, single_valid[k]] for k in sorted(single_valid)],
        )
    )
    checks.append(
        _check(
            "flip-added-squares-partition-empty-squares",
            all(cover_exact.values()),
            [[k, True] for k in sorted(cover_exact)],
            [[k, cover_exact[k]] for k in sorted(cover_exact)],
        )
    )
    checks.append(
        _check(
            "flip-intersection-bound",
            all(intersect_ok.values()),
            "each flip meets at most 4(n-1) others",
            [[k, intersect_ok[k]] for k in sorted(intersect_ok)],
        )
    )

    params2 = BaseParams.from_k(2)
    base2 = build_base_config(2)
    boards = [
        flips.apply_flips(base2, flips.FlipSet(flips=(f,))).p
        for f in flips.enumerate_flips(params2)
    ]
    distinct = len(set(boards)) == len(boards) and base2.p not in boards
    checks.append(
        _check("single-flip-boards-distinct", distinct, 68, len(set(boards)))
    )

    k_round = k_max if k_max >= 2 else 2
    params_r = BaseParams.from_k(k_round)
    base_r = build_base_config(k_round)
    t = params_r.n // 16
    round_trip = True
    for seed in range(10):
        chosen = flips.greedy_disjoint_flips(params_r, t, seed=seed)
        rebuilt = flips.reconstruct_flips(base_r, flips.apply_flips(base_r, chosen))
        if rebuilt.canonical_ids() != chosen.canonical_ids():
            round_trip = False
            break
    checks.append(
        _check(
            "flip-roundtrip-reconstruction",
            round_trip,
            f"reconstruct(apply(fs)) == fs for 10 seeded sets at k={k_round}, t={t}",
            round_trip,
        )
    )

    sizes = [17, 65] if not full else [17, 65, 257]
    lb = {n: flips.lower_bound_log_count(n) for n in sizes}
    checks.append(
        _check(
            "greedy-lower-bound-log-positive",
            all(v > 0 and math.isfinite(v) for v in lb.values()),
            "finite and positive",
            [[n, lb[n]] for n in sorted(lb)],
        )
    )
    return checks


def _hypergraph_checks(full: bool, threads: int) -> list[dict]:
    checks = []
    pm_sizes = range(1, 9) if full else range(1, 6)
    pm = {}
    for n in pm_sizes:
        hg = hypergraph.build_torus_queens_hg(n)
        pm[n] = [
            hypergraph.count_perfect_matchings(hg, threads=threads),
            counting.count_toroidal(n, threads=threads).count,
        ]
    checks.append(
        _check(
            "torus-hypergraph-matchings-equal-toroidal-count",
            all(a == b for a, b in pm.values()),
            [[n, v[1]] for n, v in sorted(pm.items())],
            [[n, v[0]] for n, v in sorted(pm.items())],
        )
    )

    claims = []
    torus5 = hypergraph.stats(hypergraph.build_torus_queens_hg(5))
    claims.append(["torus-5", [20, 25, 4, 5, 1],
                   [torus5.num_vertices, torus5.num_edges, torus5.d, torus5.k, torus5.max_codegree]])
    trans3 = hypergraph.stats(
        hypergraph.build_transversal_hg(hypergraph.cyclic_latin_square(3))
    )
    claims.append(["transversal-3", [9, 9, 3, 3, 1],
                   [trans3.num_vertices, trans3.num_edges, trans3.d, trans3.k, trans3.max_codegree]])
    steiner = hypergraph.stats(hypergraph.build_steiner_aux_hg(7, 3, 2))
    claims.append(["steiner-7-3-2", [21, 35, 3, 5, 1],
                   [steiner.num_vertices, steiner.num_edges, steiner.d, steiner.k, steiner.max_codegree]])
    flip1 = hypergraph.stats(hypergraph.build_flip_hg(1))
    claims.append(["flip-1", [5, 5, 4, 4, 3],
                   [flip1.num_vertices, flip1.num_edges, flip1.d, flip1.k, flip1.max_codegree]])
    flip2 = hypergraph.stats(hypergraph.build_flip_hg(2))
    claims.append(["flip-2-regularity", [17, 68, 4, 16],
                   [flip2.num_vertices, flip2.num_edges, flip2.d, flip2.k]])
    if full:
        sudoku = hypergraph.stats(hypergraph.build_sudoku_hg(2))
        claims.append(["sudoku-2", [64, 64, 4, 4, 2],
                       [sudoku.num_vertices, sudoku.num_edges, sudoku.d, sudoku.k, sudoku.max_codegree]])
    checks.append(
        _check(
            "constructor-stats-match-claims",
            all(want == got for _, want, got in claims),
            [[name, want] for name, want, _ in claims],
            [[name, got] for name, _, got in claims],
        )
    )

    double = []
    builders = [
        ("torus-5", hypergraph.build_torus_queens_hg(5)),
        ("transversal-3", hypergraph.build_transversal_hg(hypergraph.cyclic_latin_square(3))),
        ("steiner-7-3-2", hypergraph.build_steiner_aux_hg(7, 3, 2)),
        ("flip-2", hypergraph.build_flip_hg(2)),
    ]
    if full:
        builders.append(("sudoku-2", hypergraph.build_sudoku_hg(2)))
    for name, hg in builders:
        s = hypergraph.stats(hg)
        double.append([name, s.num_vertices * (s.k or 0) == (s.d or 0) * s.num_edges])
    checks.append(
        _check(
            "regular-constructor-double-counting",
            all(ok for _, ok in double),
            "n * k == d * |E|",
            double,
        )
    )

    pm_known = [
        ["transversal-cyclic-3", 3,
         hypergraph.count_perfect_matchings(
             hypergraph.build_transversal_hg(hypergraph.cyclic_latin_square(3)))],
        ["transversal-cyclic-2", 0,
         hypergraph.count_perfect_matchings(
             hypergraph.build_transversal_hg(hypergraph.cyclic_latin_square(2)))],
        ["steiner-7-3-2", 30,
         hypergraph.count_perfect_matchings(hypergraph.build_steiner_aux_hg(7, 3, 2))],
        ["steiner-6-3-2", 0,
         hypergraph.count_perfect_matchings(hypergraph.build_steiner_aux_hg(6, 3, 2))],
        ["flip-1", 0,
         hypergraph.count_perfect_matchings(hypergraph.build_flip_hg(1))],
    ]
    if full:
        pm_known.append(
            ["sudoku-2", 288,
             hypergraph.count_perfect_matchings(hypergraph.build_sudoku_hg(2), threads=threads)]
        )
    checks.append(
        _check(
            "known-matching-counts",
            all(want == got for _, want, got in pm_known),
            [[name, want] for name, want, _ in pm_known],
            [[name, got] for name, _, got in pm_known],
        )
    )

    hg5 = hypergraph.build_torus_queens_hg(5)
    reference = hypergraph.count_perfect_matchings(hg5)
    invariant = True
    for seed in range(10):
        mapping = list(range(hg5.num_vertices))
        random.Random(seed).shuffle(mapping)
        if hypergraph.count_perfect_matchings(hypergraph.relabel_vertices(hg5, mapping)) != reference:
            invariant = False
            break
    checks.append(
        _check("matching-count-relabeling-invariant", invariant, reference, invariant)
    )
    return checks


def _bounds_checks(full: bool) -> list[dict]:
    checks = []
    expected_matrix = [
        [4, 4, 4, 4, 4],
        [4, 6, 6, 6, 4],
        [4, 6, 8, 6, 4],
        [4, 6, 6, 6, 4],
        [4, 4, 4, 4, 4],
    ]
    actual_matrix = bounds.diagonal_exposure_matrix(5)
    checks.append(
        _check(
            "diagonal-exposure-matrix-5",
            actual_matrix == expected_matrix,
            expected_matrix,
            actual_matrix,
        )
    )

    hi = 8 if full else 7
    lemmas = [bounds.check_lemmas(n) for n in range(4, hi + 1)]
    per_n = [[r["n"], r["solutions"]] for r in lemmas]
    checks.append(
        _check(
            "profile-counts-sum-to-n-minus-1",
            all(r["profile_sums_ok"] for r in lemmas),
            "by3+by2+by1 == n-1",
            per_n,
        )
    )
    checks.append(
        _check(
            "diagonal-pair-identity",
            all(r["identity_ok"] for r in lemmas),
            "sum(2*by3 + by2) == sum of diagonal exposure over queens",
            per_n,
        )
    )
    checks.append(
        _check(
            "concentric-ring-inequality",
            all(r["inequality_ok"] for r in lemmas),
            "sum(2*by3 + by2) >= 1.25 n^2 - 6n",
            per_n,
        )
    )

    alpha_cf = bounds.classical_alpha("closed_form")
    alpha_q = bounds.classical_alpha("quadrature")
    checks.append(
        _check(
            "alpha-closed-form-vs-quadrature",
            abs(alpha_cf - alpha_q) <= 1e-9 and 1.587 < alpha_cf < 1.588,
            "agree to 1e-9 within (1.587, 1.588)",
            [alpha_cf, alpha_q],
        )
    )

    grid = []
    grid_ok = True
    for k in (5, 17, 100):
        for d in (2, 3, 4):
            value = bounds.hypergraph_integral_check(k, d, 0.0).value
            want = math.log(k) - (d - 1)
            grid.append([k, d, value, want])
            if abs(value - want) > 1e-6:
                grid_ok = False
    checks.append(
        _check("matching-bound-integral-closed-form", grid_ok, "quadrature == log k - (d-1) within 1e-6", grid)
    )

    gaps = []
    gaps_ok = True
    for n in (16, 64, 256, 1024):
        with_one = bounds.log_poly_integral(0.0, 0.0, n - 1.0, with_one=True).value
        without = bounds.log_poly_integral(0.0, 0.0, n - 1.0, with_one=False).value
        gap = abs(with_one - without)
        limit = 2.0 / math.sqrt(n)
        gaps.append([n, gap, limit])
        if gap > limit:
            gaps_ok = False
    checks.append(
        _check("log-gap-within-two-over-sqrt-n", gaps_ok, "gap <= 2 n^(-1/2)", gaps)
    )
    return checks


def _serialization_checks() -> list[dict]:
    configs = [build_base_config(1), build_base_config(2)]
    configs.extend(counting.enumerate_solutions(5, "toroidal"))
    ok = all(core.parse(core.serialize(c)) == c for c in configs)
    return [_check("config-serialization-roundtrip", ok, True, ok)]


def run_verification_suite(level: str = "quick", threads: int = 1) -> dict:
    """Run every invariant check; returns a deterministic JSON-able report."""
    if level not in LEVELS:
        raise InvalidConfigError(f"level must be one of {LEVELS}, got {level!r}")
    full = level == "full"
    n_max = 9 if full else 7
    k_max = 3 if full else 2
    polya_max = 12 if full else 7

    checks: list[dict] = []
    checks.extend(_counting_checks(n_max, polya_max, threads))
    checks.extend(_construction_checks(k_max))
    checks.extend(_flip_checks(k_max, full))
    checks.extend(_hypergraph_checks(full, threads))
    checks.extend(_bounds_checks(full))
    checks.extend(_serialization_checks())
    return {
        "level": level,
        "passed": all(c["passed"] for c in checks),
        "num_checks": len(checks),
        "failed": [c["name"] for c in checks if not c["passed"]],
        "checks": checks,
    }
