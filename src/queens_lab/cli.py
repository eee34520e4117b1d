"""Command-line interface.

Subcommands: construct, flips, generate, count, hg, bounds, verify.
Payloads are JSON on stdout (CSV for matrices and profiles on request);
all randomness sits behind an explicit --seed and no wall-clock data is
emitted, so identical argv always produces byte-identical output.  Exit
codes: 0 ok, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Any

from .errors import QueensLabError

if TYPE_CHECKING:
    from . import core, hypergraph

PROG = "queens-lab"
# counting.MODES and verify.LEVELS, repeated here so that building the
# parser imports neither module; a test pins them equal.
MODES = ("classical", "toroidal")
LEVELS = ("quick", "full")
# hg --family: the hypergraph builder and the --params keys it takes, in
# its argument order.  Names, not functions, so that building the parser
# imports no command module.  In place of "latin", --params may give
# "order", which goes through cyclic_latin_square.
_FAMILIES = {
    "torus": ("build_torus_queens_hg", ("n",)),
    "transversal": ("build_transversal_hg", ("latin",)),
    "sudoku": ("build_sudoku_hg", ("b",)),
    "steiner": ("build_steiner_aux_hg", ("n", "q", "r")),
    "flip": ("build_flip_hg", ("k",)),
}


def _read_input(args) -> str:
    """The --in text (stdin for None or "-"); unreadable input is a usage error."""
    path = args.infile
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        args.parser.error(f"argument --in: can't read {path or '-'!r}: {exc}")


def _config_payload(config: core.QueensConfig) -> dict:
    return {"n": config.n, "p": list(config.p)}


def _flip_payload(flip) -> dict:
    return {
        "removed": [[s.x, s.y] for s in flip.removed],
        "added": [[s.x, s.y] for s in flip.added],
        "canonical_id": [flip.canonical_id.x, flip.canonical_id.y],
    }


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Toroidal n-queens constructions, flip algebra, exact "
        "counters, hypergraph matchings, and bound cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        # A runner gets its own subparser, so the usage errors it raises
        # print that subcommand's usage line, as argparse's own do.
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run, parser=p)
        return p

    p = command("construct", _run_construct, "emit the base configuration for n = 4^k + 1")
    p.add_argument("--k", type=int, required=True)

    p = command("flips", _run_flips, "enumerate the flips of the base configuration")
    p.add_argument("--k", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true", help="emit every flip")
    group.add_argument("--count", action="store_true", help="emit the count only (default)")

    p = command("generate", _run_generate, "apply t disjoint flips to the base configuration")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)

    p = command("count", _run_count, "exact solution counts")
    p.add_argument("--n", type=_positive, required=True)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--oracle", action="store_true", help="use the permutation-filter oracle")
    p.add_argument("--threads", type=_positive, default=1)

    p = command("hg", _run_hg, "hypergraph constructors, stats, matchings, bound")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", choices=_FAMILIES)
    source.add_argument("--in", dest="infile", help="read a hypergraph JSON instead")
    p.add_argument("--params", default=None, help="JSON parameters for the family")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--count-pm", action="store_true")
    p.add_argument("--bound", action="store_true")
    p.add_argument("--threads", type=_positive, default=1)

    p = command("bounds", _run_bounds, "bound constants, exposure matrix, row profiles")
    view = p.add_mutually_exclusive_group(required=True)
    view.add_argument("--alpha", action="store_true")
    view.add_argument("--torus-log", type=int, metavar="N")
    view.add_argument("--classical-log", type=int, metavar="N")
    view.add_argument("--dmatrix", type=int, metavar="N")
    view.add_argument("--profile", action="store_true")
    view.add_argument("--check-lemmas", action="store_true")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = command("verify", _run_verify, "run the invariant suite")
    p.add_argument("--level", choices=LEVELS, default="quick")

    for p in sub.choices.values():
        p.add_argument("--out", default=None)
    return parser


def _run_construct(args) -> Any:
    from .construction import build_base_config

    return _config_payload(build_base_config(args.k))


def _run_flips(args) -> Any:
    from .construction import BaseParams

    params = BaseParams(args.k)
    n = params.n
    payload = {"k": args.k, "n": n, "count": n * (n - 1) // 4}
    if args.list:
        from .flips import enumerate_flips

        payload["flips"] = [_flip_payload(f) for f in enumerate_flips(params)]
    return payload


def _run_generate(args) -> Any:
    from .construction import BaseParams, build_base_config
    from .flips import apply_flips, greedy_disjoint_flips

    params = BaseParams(args.k)
    flip_set = greedy_disjoint_flips(params, args.t, seed=args.seed)
    config = apply_flips(build_base_config(args.k), flip_set)
    return {
        "config": _config_payload(config),
        "flips": [[s.x, s.y] for s in flip_set.canonical_ids()],
    }


def _run_count(args) -> Any:
    from . import counting

    if args.oracle:
        result = counting.oracle_count(args.n, args.mode, threads=args.threads)
    elif args.mode == "classical":
        result = counting.count_classical(args.n, threads=args.threads)
    else:
        result = counting.count_toroidal(args.n, threads=args.threads)
    return {
        "n": result.n,
        "mode": result.mode,
        "oracle": bool(args.oracle),
        "count": result.count,
        "nodes_visited": result.nodes_visited,
    }


def _family_args(family: str, raw: Any) -> list:
    """The builder arguments that a parsed --params gives ``family``, in
    the builder's order; a TypeError names what is malformed."""
    keys = _FAMILIES[family][1]
    if keys == ("latin",) and isinstance(raw, dict) and "latin" not in raw:
        keys = ("order",)
    if not isinstance(raw, dict) or raw.keys() != set(keys):
        raise TypeError(f"expected an object with exactly the keys: {', '.join(keys)}")
    for key in keys:
        value = raw[key]
        if key == "latin":
            # The builder checks the entries; true and false stay usage
            # errors here, as they are for every other key.
            if not isinstance(value, list) or not all(
                isinstance(row, list) and not any(isinstance(v, bool) for v in row)
                for row in value
            ):
                raise TypeError("latin must be an array of integer arrays")
        elif type(value) is not int:  # not bool, whose values pass as 1 and 0
            raise TypeError(f"{key} must be an integer, got {json.dumps(value)}")
    return [raw[key] for key in keys]


def _hg_from_args(args) -> tuple[hypergraph.Hypergraph, str, dict]:
    from . import hypergraph

    parser = args.parser
    if args.infile is not None:
        if args.params is not None:
            parser.error("argument --params: not allowed with argument --in")
        return hypergraph.from_json(_read_input(args)), "custom", {}
    try:
        raw = json.loads(args.params) if args.params else {}
    except json.JSONDecodeError as exc:
        parser.error(f"--params is not valid JSON: {exc}")
    try:
        values = _family_args(args.family, raw)
    except TypeError as exc:
        parser.error(f"--params missing or malformed for family {args.family}: {exc}")
    if "order" in raw:  # an order stands for the cyclic Latin square of that order
        values = [hypergraph.cyclic_latin_square(*values)]
    return getattr(hypergraph, _FAMILIES[args.family][0])(*values), args.family, raw


def _run_hg(args) -> Any:
    from dataclasses import asdict

    from . import hypergraph

    hg, family, raw = _hg_from_args(args)
    if not (args.stats or args.count_pm or args.bound):
        return json.loads(hypergraph.to_json(hg))
    payload: dict[str, Any] = {"family": family, "params": raw}
    hg_stats = hypergraph.stats(hg) if args.stats or args.bound else None
    if args.stats:
        payload["stats"] = asdict(hg_stats)
    if args.count_pm:
        payload["perfect_matchings"] = hypergraph.count_perfect_matchings(
            hg, threads=args.threads
        )
    if args.bound:
        log_bound = hypergraph.entropy_bound_log(hg_stats)
        payload["bound"] = {
            "log_bound": log_bound,
            "formula": "regular-hypergraph-matching-bound",
            "num_vertices": hg_stats.num_vertices,
            "k": hg_stats.k,
            "d": hg_stats.d,
        }
        # The ratio of logs flips sign with log_bound, so it needs log_bound > 0.
        if args.count_pm and payload["perfect_matchings"] > 0 and log_bound > 0:
            payload["log_count_over_log_bound"] = (
                math.log(payload["perfect_matchings"]) / log_bound
            )
    return payload


def _run_bounds(args) -> Any:
    parser = args.parser
    if args.check_lemmas and args.n is None:
        parser.error("--check-lemmas requires --n")
    if args.n is not None and not args.check_lemmas:
        parser.error("argument --n: not allowed without argument --check-lemmas")
    if args.infile is not None and not args.profile:
        parser.error("argument --in: not allowed without argument --profile")
    if args.format == "csv" and args.dmatrix is None and not args.profile:
        raise QueensLabError("csv format supported only for --dmatrix and --profile")
    from . import bounds

    if args.alpha:
        closed = bounds.classical_alpha("closed_form")
        quad = bounds.classical_alpha("quadrature")
        return {"closed_form": closed, "quadrature": quad, "difference": abs(closed - quad)}
    if args.torus_log is not None:
        return {"n": args.torus_log, "log_bound": bounds.torus_bound_log(args.torus_log)}
    if args.classical_log is not None:
        return {
            "n": args.classical_log,
            "log_bound": bounds.classical_bound_log(args.classical_log),
            "alpha": bounds.classical_alpha("closed_form"),
        }
    if args.dmatrix is not None:
        return {"n": args.dmatrix, "matrix": bounds.diagonal_exposure_matrix(args.dmatrix)}
    if args.profile:
        from . import core

        config = core.parse(_read_input(args))
        profiles = bounds.attack_profiles(config)
        return {
            "n": config.n,
            "profiles": [
                {"row": p.row, "by_three": p.by_three, "by_two": p.by_two, "by_one": p.by_one}
                for p in profiles
            ],
            "concentric_sum": bounds.concentric_sum(config),
        }
    return bounds.check_lemmas(args.n)


def _run_verify(args) -> Any:
    from . import verify

    return verify.run_verification_suite(args.level)


def _render(payload: Any, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if "matrix" in payload:
        return "\n".join(",".join(str(v) for v in row) for row in payload["matrix"]) + "\n"
    lines = ["row,by_three,by_two,by_one"]
    lines.extend(
        f"{p['row']},{p['by_three']},{p['by_two']},{p['by_one']}" for p in payload["profiles"]
    )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    """Run one command; a payload whose "passed" is false exits 1, as a
    domain error does."""
    args, extra = _build_parser().parse_known_args(sys.argv[1:] if argv is None else argv)
    if extra:  # parse_args would refuse these under the top-level usage line
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        payload = args.run(args)
    except QueensLabError as exc:
        sys.stderr.write(json.dumps({"status": "error", "code": exc.code, "message": str(exc)}) + "\n")
        return 1
    text = _render(payload, getattr(args, "format", "json"))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            args.parser.error(f"argument --out: can't write {args.out!r}: {exc}")
    else:
        sys.stdout.write(text)
    return 1 if isinstance(payload, dict) and payload.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
