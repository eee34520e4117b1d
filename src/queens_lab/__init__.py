"""Toroidal and classical n-queens laboratory.

Explicit base configurations on boards of size 4^k + 1, the flip algebra
that rewires them locally, exact solution counters with an independent
permutation oracle, hypergraph reductions with exact perfect-matching
counts, and numeric cross-checks of the entropy-style count bounds.
"""

from .bounds import (
    RowProfile,
    attack_profiles,
    classical_alpha,
    classical_bound_log,
    concentric_lower_bound,
    concentric_sum,
    diagonal_exposure,
    diagonal_exposure_matrix,
    hypergraph_integral_check,
    log_poly_integral,
    torus_bound_log,
)
from .construction import BaseParams, build_base_config, check_units, mod_inverse
from .core import (
    QueensConfig,
    Square,
    ValidityReport,
    Violation,
    parse,
    serialize,
    validate_classical,
    validate_toroidal,
)
from .counting import (
    CountResult,
    count_classical,
    count_toroidal,
    enumerate_solutions,
    oracle_count,
    oracle_counts,
)
from .errors import QueensLabError
from .flips import (
    Flip,
    FlipSet,
    apply_flips,
    companion_pair,
    enumerate_flips,
    flip_for_square,
    flips_disjoint,
    greedy_disjoint_flips,
    lower_bound_log_count,
    reconstruct_flips,
)
from .hypergraph import (
    BoundReport,
    Hypergraph,
    HypergraphStats,
    build_flip_hg,
    build_steiner_aux_hg,
    build_sudoku_hg,
    build_torus_queens_hg,
    build_transversal_hg,
    count_perfect_matchings,
    cyclic_latin_square,
    entropy_bound_log,
    relabel_vertices,
    stats,
)
from .quadrature import QuadratureResult, adaptive_simpson, integrate
from .verify import run_verification_suite

__version__ = "0.1.0"

__all__ = [
    "BaseParams",
    "BoundReport",
    "CountResult",
    "Flip",
    "FlipSet",
    "Hypergraph",
    "HypergraphStats",
    "QuadratureResult",
    "QueensConfig",
    "QueensLabError",
    "RowProfile",
    "Square",
    "ValidityReport",
    "Violation",
    "adaptive_simpson",
    "apply_flips",
    "attack_profiles",
    "build_base_config",
    "build_flip_hg",
    "build_steiner_aux_hg",
    "build_sudoku_hg",
    "build_torus_queens_hg",
    "build_transversal_hg",
    "check_units",
    "classical_alpha",
    "classical_bound_log",
    "companion_pair",
    "concentric_lower_bound",
    "concentric_sum",
    "count_classical",
    "count_perfect_matchings",
    "count_toroidal",
    "cyclic_latin_square",
    "diagonal_exposure",
    "diagonal_exposure_matrix",
    "enumerate_flips",
    "enumerate_solutions",
    "entropy_bound_log",
    "flip_for_square",
    "flips_disjoint",
    "greedy_disjoint_flips",
    "hypergraph_integral_check",
    "integrate",
    "log_poly_integral",
    "lower_bound_log_count",
    "mod_inverse",
    "oracle_count",
    "oracle_counts",
    "parse",
    "relabel_vertices",
    "reconstruct_flips",
    "run_verification_suite",
    "serialize",
    "stats",
    "torus_bound_log",
    "validate_classical",
    "validate_toroidal",
]
