"""Toroidal and classical n-queens laboratory.

Explicit base configurations on boards of size 4^k + 1, the flip algebra
that rewires them locally, exact solution counters with an independent
permutation oracle, hypergraph reductions with exact perfect-matching
counts, and numeric cross-checks of the entropy-style count bounds.

Importing the package loads none of its modules.  Each public name, and
each module in ``_EXPORTS``, is imported on first access (PEP 562), so a
process pays only for the modules it uses.
"""

from importlib import import_module

# Home module -> the public names it exports.
_EXPORTS = {
    "bounds": (
        "RowProfile",
        "attack_profiles",
        "classical_alpha",
        "classical_alpha_enclosure",
        "classical_bound_log",
        "concentric_lower_bound",
        "concentric_sum",
        "diagonal_exposure",
        "diagonal_exposure_matrix",
        "torus_bound_log",
    ),
    "construction": ("BaseParams", "build_base_config", "check_units"),
    "core": (
        "QueensConfig",
        "Square",
        "is_classical",
        "is_toroidal",
        "parse",
        "serialize",
    ),
    "counting": (
        "CountResult",
        "count_classical",
        "count_toroidal",
        "enumerate_solutions",
        "oracle_count",
        "oracle_counts",
    ),
    "errors": ("QueensLabError",),
    "flips": (
        "Flip",
        "FlipSet",
        "apply_flips",
        "enumerate_flips",
        "flip_for_square",
        "greedy_disjoint_flips",
        "lower_bound_log_count",
        "reconstruct_flips",
    ),
    "hypergraph": (
        "Hypergraph",
        "HypergraphStats",
        "build_flip_hg",
        "build_steiner_aux_hg",
        "build_sudoku_hg",
        "build_torus_queens_hg",
        "build_transversal_hg",
        "count_perfect_matchings",
        "cyclic_latin_square",
        "entropy_bound_log",
        "relabel_vertices",
        "stats",
    ),
    "quadrature": ("Enclosure", "enclose"),
    "verify": ("run_verification_suite",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
