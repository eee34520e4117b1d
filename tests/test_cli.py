import json
import math
import multiprocessing
import re
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from queens_lab import cli, core, counting, errors, hypergraph, verify

from helpers import recording_pool


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def test_construct(capsys):
    payload = run_json(capsys, ["construct", "--k", "1"])
    assert payload == {"n": 5, "p": [0, 2, 4, 1, 3]}


def test_construct_output_parses_as_config(capsys):
    code, out, _ = run(capsys, ["construct", "--k", "2"])
    assert code == 0
    config = core.parse(out)
    assert config.n == 17


def test_count_classical(capsys):
    payload = run_json(capsys, ["count", "--n", "8", "--mode", "classical"])
    assert payload["count"] == 92
    assert payload["nodes_visited"] > 0
    assert "elapsed" not in payload


def test_count_oracle(capsys):
    payload = run_json(capsys, ["count", "--n", "5", "--mode", "toroidal", "--oracle"])
    assert payload["count"] == 10
    assert payload["oracle"] is True


def test_count_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "--n", "0", "--mode", "classical"])
    assert info.value.code == 2


def test_count_domain_error(capsys):
    code, out, err = run(capsys, ["count", "--n", "30", "--mode", "classical"])
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["status"] == "error"
    assert error["code"] == "size-limit"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "8", "--mode", "classical"],
        ["hg", "--family", "torus", "--params", '{"n": 5}', "--count-pm"],
    ],
)
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(capsys, argv, threads):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--threads", threads])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_verify_takes_no_threads(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--level", "quick", "--threads", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--k", "100000"],
        ["flips", "--count", "--k", "100000"],
        ["generate", "--t", "1", "--k", "100000"],
        ["hg", "--family", "flip", "--params", '{"k": 100000}', "--stats"],
    ],
)
def test_oversized_k_is_size_limit_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["code"] == "size-limit"
    assert "k = 100000" in error["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["hg", "--family", "torus", "--params", '{"n": 4}', "--stats"],
        ["hg", "--family", "transversal", "--params", '{"order": 4}', "--stats"],
        ["hg", "--family", "sudoku", "--params", '{"b": 2}', "--stats"],
    ],
)
def test_hg_over_edge_cap_is_size_limit_error(capsys, monkeypatch, argv):
    monkeypatch.setitem(errors.CAPS, "edges", 15)
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["code"] == "size-limit"


def test_hg_in_over_edge_cap_is_size_limit_error(capsys, monkeypatch, tmp_path):
    path = tmp_path / "hg.json"
    path.write_text('{"n": 16, "edges": []}')
    monkeypatch.setitem(errors.CAPS, "edges", 15)
    code, out, err = run(capsys, ["hg", "--in", str(path), "--stats"])
    assert (code, out) == (1, "")
    assert json.loads(err)["code"] == "size-limit"


def test_hg_in_boolean_vertex_ids_are_refused(capsys, tmp_path):
    path = tmp_path / "hg.json"
    path.write_text('{"n":2,"edges":[[false,true]]}')
    code, out, err = run(capsys, ["hg", "--in", str(path), "--count-pm"])
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == 'field "edges": must be an array of integer arrays'


def test_parser_choices_match_their_modules():
    # cli repeats these so that building the parser imports neither module.
    assert cli.MODES == counting.MODES
    assert cli.LEVELS == verify.LEVELS


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_flips_count_and_list(capsys):
    payload = run_json(capsys, ["flips", "--k", "1", "--count"])
    assert payload == {"k": 1, "n": 5, "count": 5}
    listed = run_json(capsys, ["flips", "--k", "1", "--list"])
    assert len(listed["flips"]) == 5
    first = listed["flips"][0]
    assert set(first) == {"removed", "added", "canonical_id"}
    assert first["canonical_id"] == [0, 1]


def test_generate_valid_and_deterministic(capsys):
    code1, out1, _ = run(capsys, ["generate", "--k", "3", "--t", "4", "--seed", "9"])
    code2, out2, _ = run(capsys, ["generate", "--k", "3", "--t", "4", "--seed", "9"])
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    config = core.QueensConfig(n=payload["config"]["n"], p=tuple(payload["config"]["p"]))
    assert core.is_toroidal(config)
    assert len(payload["flips"]) == 4


def test_generate_exhaustion_is_domain_error(capsys):
    # k = 3: the unseeded scan reaches 14 flips; n // 4 = 16.
    code, _, err = run(capsys, ["generate", "--k", "3", "--t", "15"])
    assert code == 1
    assert json.loads(err)["code"] == "greedy-exhausted"
    code, _, err = run(capsys, ["generate", "--k", "3", "--t", "17"])
    assert code == 1
    assert json.loads(err)["code"] == "flip-error"


def test_hg_count_pm_alone_computes_no_stats(capsys, monkeypatch):
    def refuse(hg):
        raise AssertionError("stats computed but never printed")

    monkeypatch.setattr(hypergraph, "stats", refuse)
    argv = ["hg", "--family", "torus", "--params", '{"n":5}', "--count-pm"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == json.dumps(
        {"family": "torus", "params": {"n": 5}, "perfect_matchings": 10}, indent=2
    ) + "\n"


def test_hg_stats_and_bound(capsys):
    payload = run_json(
        capsys,
        ["hg", "--family", "torus", "--params", '{"n":5}', "--stats", "--count-pm", "--bound"],
    )
    assert payload["stats"]["num_vertices"] == 20
    assert payload["stats"]["k"] == 5
    assert payload["perfect_matchings"] == 10
    assert payload["bound"]["d"] == 4
    # log_bound is negative here, so the ratio of logs is left out.
    assert payload["bound"]["log_bound"] < 0
    assert "log_count_over_log_bound" not in payload


def test_hg_bound_ratio_above_log_bound_zero(capsys):
    argv = ["hg", "--family", "transversal", "--params", '{"order":9}', "--count-pm", "--bound"]
    payload = run_json(capsys, argv)
    assert payload["perfect_matchings"] == 2025
    assert payload["bound"]["log_bound"] > 0
    assert payload["log_count_over_log_bound"] == math.log(2025) / payload["bound"]["log_bound"]


def test_hg_bound_omits_ratio_below_log_bound_zero(capsys, tmp_path):
    # Two disjoint 4-cycles: 2-regular on 8 vertices with 4 perfect
    # matchings, where the bound's log is negative.
    path = tmp_path / "cycles.json"
    cycles = [[0, 1], [1, 2], [2, 3], [0, 3], [4, 5], [5, 6], [6, 7], [4, 7]]
    path.write_text(json.dumps({"n": 8, "edges": cycles}))
    payload = run_json(capsys, ["hg", "--in", str(path), "--count-pm", "--bound"])
    assert payload["perfect_matchings"] == 4
    assert payload["bound"]["log_bound"] < 0
    assert "log_count_over_log_bound" not in payload


@pytest.mark.parametrize(
    "name,argv",
    [
        (
            "hg_sudoku_b2_bound",
            ["--family", "sudoku", "--params", '{"b":2}', "--stats", "--count-pm", "--bound"],
        ),
        (
            "hg_transversal_9_bound",
            ["--family", "transversal", "--params", '{"order":9}', "--count-pm", "--bound"],
        ),
        ("hg_flip_k2", ["--family", "flip", "--params", '{"k":2}']),
        (
            "hg_flip_k3_bound",
            ["--family", "flip", "--params", '{"k":3}', "--stats", "--count-pm", "--bound"],
        ),
    ],
)
def test_hg_bound_matches_pinned_output(capsys, name, argv):
    pinned = (Path(__file__).parent / "data" / f"{name}.json").read_text(encoding="utf-8")
    code, out, _ = run(capsys, ["hg", *argv])
    assert code == 0
    assert out == pinned


def test_hg_emits_exchange_format(capsys, tmp_path):
    payload = run_json(capsys, ["hg", "--family", "transversal", "--params", '{"order":3}'])
    assert payload["n"] == 9
    assert len(payload["edges"]) == 9
    path = tmp_path / "hg.json"
    path.write_text(json.dumps(payload))
    stats = run_json(capsys, ["hg", "--in", str(path), "--stats", "--count-pm"])
    assert stats["family"] == "custom"
    assert stats["perfect_matchings"] == 3


def test_hg_requires_family_or_input():
    with pytest.raises(SystemExit) as info:
        cli.main(["hg", "--stats"])
    assert info.value.code == 2


def test_hg_params_usage_errors():
    with pytest.raises(SystemExit) as info:
        cli.main(["hg", "--family", "torus", "--params", "{}", "--stats"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["hg", "--family", "torus", "--params", "not-json", "--stats"])
    assert info.value.code == 2


# A well-formed --params per family; the cases below spoil one value or
# the whole object.
WELL_FORMED = {
    "torus": {"n": 5},
    "transversal": {"order": 3},
    "sudoku": {"b": 2},
    "steiner": {"n": 7, "q": 3, "r": 2},
    "flip": {"k": 1},
}


@pytest.mark.parametrize(
    "family, params",
    [
        pytest.param("torus", '{"n": true}', id="torus"),
        pytest.param("transversal", '{"order": true}', id="transversal-order"),
        pytest.param("transversal", '{"latin": [[false]]}', id="transversal-latin"),
        pytest.param("sudoku", '{"b": true}', id="sudoku"),
        pytest.param("steiner", '{"n": 7, "q": 3, "r": true}', id="steiner"),
        pytest.param("flip", '{"k": true}', id="flip"),
        *(
            pytest.param(family, json.dumps({**good, key: bad}), id=f"{family}-{key}-{kind}")
            for family, good in WELL_FORMED.items()
            for key in good
            for bad, kind in ((2.0, "float"), ("2", "string"), (None, "null"))
        ),
        *(
            pytest.param("transversal", json.dumps({"latin": bad}), id=f"transversal-latin-{kind}")
            for bad, kind in ((2.0, "float"), ("01", "string"), (None, "null"), ([0], "flat"))
        ),
        pytest.param("torus", '{"n": 1e7}', id="torus-above-edge-cap"),
        pytest.param("torus", '{"n": -1.5}', id="torus-negative"),
        *(
            pytest.param(family, whole, id=f"{family}-whole-{whole}")
            for family in WELL_FORMED
            for whole in ("3", "[1]", "null")
        ),
    ],
)
def test_hg_bool_family_params_are_usage_errors(capsys, family, params):
    # JSON true parses to a bool, which Python also takes as the int 1;
    # every value that is not a plain int is refused the same way, before
    # any builder runs.
    with pytest.raises(SystemExit) as info:
        cli.main(["hg", "--family", family, "--params", params, "--count-pm"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--params missing or malformed for family {family}: " in err
    # The reason is the CLI's own, not the text of a Python exception.
    reason = err.rstrip("\n").rsplit(f"family {family}: ", 1)[1]
    assert re.fullmatch(
        r"expected an object with exactly the keys: .+|"
        r"\w+ must be an (integer, got .+|array of integer arrays)",
        reason,
    ), reason
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "source",
    [
        ["--in", "HG", "--family", "torus"],
        ["--in", "HG", "--params", "{}"],
        ["--in", "-", "--family", "torus"],
    ],
    ids=["in-with-family", "in-with-params", "stdin-with-family"],
)
def test_hg_in_excludes_family_and_params(capsys, monkeypatch, tmp_path, source):
    path = tmp_path / "hg.json"
    path.write_text('{"n": 2, "edges": [[0, 1]]}')

    class Unread:
        def read(self):
            raise AssertionError("read stdin before refusing the arguments")

    monkeypatch.setattr("sys.stdin", Unread())
    argv = ["hg", *(str(path) if arg == "HG" else arg for arg in source), "--count-pm"]
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not allowed with argument --in" in err


@pytest.mark.parametrize(
    "family, params",
    [
        ("torus", '{"n": 5, "extra": 1}'),
        ("transversal", '{"latin": [[0, 1], [1, 0]], "order": 3}'),
        ("sudoku", '{"b": 2, "n": 4}'),
        ("steiner", '{"n": 7, "q": 3, "r": 2, "k": 1}'),
        ("flip", '{"k": 2, "t": 1}'),
    ],
)
def test_hg_family_keys_it_does_not_read_are_usage_errors(capsys, family, params):
    with pytest.raises(SystemExit) as info:
        cli.main(["hg", "--family", family, "--params", params, "--count-pm"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"--params missing or malformed for family {family}" in err


@pytest.mark.parametrize("flags", [[], ["--stats"], ["--count-pm"]])
def test_hg_float_latin_square_is_invalid_hypergraph(capsys, flags):
    # 0.0 == 0, so a set comparison alone would take the float as symbol 0.
    params = '{"latin": [[0.0, 1], [1, 0]]}'
    code, out, err = run(capsys, ["hg", "--family", "transversal", "--params", params, *flags])
    assert code == 1
    assert out == ""
    assert json.loads(err)["code"] == "invalid-hypergraph"


def _usage_error(capsys, argv, *fragments) -> str:
    """Run ``argv``, which must fail with a usage error: exit 2, nothing on
    stdout, and stderr under the subcommand's own usage line.  Returns the
    usage text."""
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    command = argv[0]
    assert err.startswith(f"usage: queens-lab {command} ")
    usage, _, message = err.partition(f"\nqueens-lab {command}: error: ")
    assert message, err
    for fragment in fragments:
        assert fragment in message
    assert "Traceback" not in err
    return usage


def test_missing_in_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing.json"
    _usage_error(capsys, ["hg", "--in", str(path), "--stats"], "argument --in: ", repr(str(path)))


def test_undecodable_in_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"n": 1, "p": [0]}\xff')
    argv = ["bounds", "--profile", "--in", str(path)]
    _usage_error(capsys, argv, "argument --in: ", repr(str(path)))


def test_unwritable_out_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "config.json"
    argv = ["construct", "--k", "1", "--out", str(path)]
    _usage_error(capsys, argv, "argument --out: ", repr(str(path)))
    assert not path.parent.exists()


# Per subcommand: usage errors that argparse raises, then ones its runner
# raises.  Every route prints the same usage line, the subcommand's.
USAGE_ROUTES = {
    "hg": [
        (["--family", "torus", "--threads", "0"], "argument --threads: "),
        (["--family", "torus", "--bogus"], "unrecognized arguments: --bogus"),
        (["--family", "torus", "--params", "3"], "--params missing or malformed "),
        (["--family", "torus", "--params", "{"], "--params is not valid JSON: "),
        (["--in", "-", "--params", "{}"], "argument --params: not allowed with argument --in"),
    ],
    "bounds": [
        (["--check-lemmas", "--n", "x"], "argument --n: invalid int value"),
        (["--alpha", "--dmatrix", "5"], "argument --dmatrix: not allowed with argument --alpha"),
        (["--check-lemmas"], "--check-lemmas requires --n"),
        (["--alpha", "--n", "5"], "argument --n: not allowed without argument --check-lemmas"),
        (["--profile", "--n", "5"], "argument --n: not allowed without argument --check-lemmas"),
        (["--dmatrix", "5", "--in", "-"], "argument --in: not allowed without argument --profile"),
    ],
    "verify": [
        (["--level", "slow"], "argument --level: invalid choice"),
        (["--threads", "2"], "unrecognized arguments: --threads 2"),
    ],
}


@pytest.mark.parametrize("command", USAGE_ROUTES)
def test_every_usage_error_prints_the_subcommand_usage(capsys, monkeypatch, command):
    class Unread:
        def read(self):
            raise AssertionError("read stdin before refusing the arguments")

    monkeypatch.setattr("sys.stdin", Unread())
    usages = {
        _usage_error(capsys, [command, *args], fragment)
        for args, fragment in USAGE_ROUTES[command]
    }
    assert len(usages) == 1


def test_bounds_alpha(capsys):
    payload = run_json(capsys, ["bounds", "--alpha"])
    assert 1.587 < payload["closed_form"] < 1.588
    assert payload["difference"] <= 1e-9


def test_bounds_alpha_matches_pinned_output(capsys):
    pinned = (Path(__file__).parent / "data" / "bounds_alpha.json").read_text(encoding="utf-8")
    code, out, _ = run(capsys, ["bounds", "--alpha"])
    assert code == 0
    assert out == pinned


def test_bounds_requires_one_action():
    with pytest.raises(SystemExit) as info:
        cli.main(["bounds"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["bounds", "--alpha", "--dmatrix", "5"])
    assert info.value.code == 2


def test_bounds_log_values(capsys):
    import math

    torus = run_json(capsys, ["bounds", "--torus-log", "21"])
    assert torus["log_bound"] == pytest.approx(21 * (math.log(21) - 3.0))
    classical = run_json(capsys, ["bounds", "--classical-log", "8"])
    assert classical["log_bound"] == pytest.approx(8 * (math.log(8) - classical["alpha"]))


@pytest.mark.parametrize("view", ["--torus-log", "--classical-log"])
@pytest.mark.parametrize("n", [10**306, 10**400], ids=["1e306", "1e400"])
def test_bounds_log_without_a_finite_value_is_json_error(capsys, view, n):
    code, out, err = run(capsys, ["bounds", view, str(n)])
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["code"] == "invalid-config"
    assert error["message"].startswith(f"n = {n} is too large")


def test_bounds_dmatrix_csv(capsys):
    code, out, _ = run(capsys, ["bounds", "--dmatrix", "5", "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["4", "4", "4", "4", "4"]
    assert rows[2][2] == "8"


def test_bounds_dmatrix_out_of_range_is_json_error(capsys, monkeypatch):
    monkeypatch.setitem(errors.CAPS, "dmatrix", 6)
    assert len(run_json(capsys, ["bounds", "--dmatrix", "6"])["matrix"]) == 6
    for argv, code in (
        (["bounds", "--dmatrix", "7"], "size-limit"),
        (["bounds", "--dmatrix", "0"], "invalid-config"),
        (["bounds", "--dmatrix", "-2"], "invalid-config"),
        (["bounds", "--dmatrix", "7", "--format", "csv"], "size-limit"),
    ):
        exit_code, out, err = run(capsys, argv)
        assert (exit_code, out) == (1, "")
        assert json.loads(err)["code"] == code


def test_bounds_profile_from_file(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"n":4,"p":[1,3,0,2]}')
    payload = run_json(capsys, ["bounds", "--profile", "--in", str(path)])
    assert payload["concentric_sum"] == 12
    assert payload["profiles"][0] == {"row": 0, "by_three": 1, "by_two": 0, "by_one": 2}
    code, out, _ = run(capsys, ["bounds", "--profile", "--in", str(path), "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "row,by_three,by_two,by_one"


def test_bounds_check_lemmas(capsys):
    payload = run_json(capsys, ["bounds", "--check-lemmas", "--n", "5"])
    assert payload["passed"] is True
    assert payload["solutions"] == 10


def test_csv_rejected_elsewhere(capsys, monkeypatch):
    from queens_lab import bounds

    def unreachable(*args, **kwargs):
        raise AssertionError("the command ran before its --format was refused")

    monkeypatch.setattr(bounds, "classical_alpha", unreachable)
    code, out, err = run(capsys, ["bounds", "--alpha", "--format", "csv"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "status": "error",
        "code": "error",
        "message": "csv format supported only for --dmatrix and --profile",
    }


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "config.json"
    code, out, _ = run(capsys, ["construct", "--k", "1", "--out", str(path)])
    assert code == 0
    assert out == ""
    assert core.parse(path.read_text()).n == 5


def test_verify_quick_passes(capsys):
    payload = run_json(capsys, ["verify", "--level", "quick"])
    assert payload["passed"] is True
    assert payload["failed"] == []
    assert payload["num_checks"] > 20


def test_verify_quick_repeat_is_byte_identical(capsys):
    _, out1, _ = run(capsys, ["verify", "--level", "quick"])
    _, out2, _ = run(capsys, ["verify", "--level", "quick"])
    assert out1 == out2


def test_verify_quick_matches_pinned_report(capsys):
    pinned = (Path(__file__).parent / "data" / "verify_quick.json").read_text(encoding="utf-8")
    code, out, _ = run(capsys, ["verify", "--level", "quick"])
    assert code == 0
    assert out == pinned


@pytest.mark.parametrize("mode", ["classical", "toroidal"])
def test_pooled_oracle_stdout_matches_serial(capsys, monkeypatch, mode):
    sizes = []

    class Pool(ProcessPoolExecutor):  # real worker processes, sizes recorded
        def __init__(self, max_workers=None):
            sizes.append(max_workers)
            super().__init__(max_workers)

    argv = ["count", "--n", "8", "--mode", mode, "--oracle"]
    _, serial, _ = run(capsys, argv)
    monkeypatch.setattr(counting, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(counting, "usable_cpus", lambda: 2)
    code, pooled, _ = run(capsys, argv + ["--threads", "2"])
    assert code == 0 and sizes == [2]
    assert pooled == serial
    assert json.loads(pooled)["count"] == {"classical": 92, "toroidal": 0}[mode]


def test_full_verify_pools_only_its_n9_oracle_pass(monkeypatch):
    sizes, events = [], []
    oracle_pass, count_classical = counting._oracle_pass, counting.count_classical

    class Pool(recording_pool(sizes)):
        def __init__(self, max_workers=None):
            events.append("pool")
            super().__init__(max_workers)

    def recorded_pass(n, modes, threads):
        events.append(("oracle", n, threads))
        return oracle_pass(n, modes, threads)

    def recorded_count(n, threads=1):
        events.append(("count", n))
        return count_classical(n, threads)

    monkeypatch.setattr(counting, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(counting, "_oracle_pass", recorded_pass)
    monkeypatch.setattr(counting, "count_classical", recorded_count)
    for module in (counting, verify):
        monkeypatch.setattr(module, "usable_cpus", lambda: 3)
    report = verify.run_verification_suite("full")
    assert sizes == [3]
    passes = [event[1:] for event in events if event[0] == "oracle"]
    assert passes == [(9, 3)] + [(n, 1) for n in range(1, 9)]
    # The n = 9 pool opens before the first fast count and n <= 8 pass.
    pool = events.index("pool")
    assert pool < events.index(("count", 1)) and pool < events.index(("oracle", 1, 1))
    pinned = (Path(__file__).parent / "data" / "verify_full.json").read_text(encoding="utf-8")
    assert json.dumps(report, indent=2) + "\n" == pinned


def test_full_verify_failure_leaves_no_worker(monkeypatch):
    sizes = []

    class Pool(ProcessPoolExecutor):  # real worker processes, sizes recorded
        def __init__(self, max_workers=None):
            sizes.append(max_workers)
            super().__init__(max_workers)

    def broken(bases, full):
        raise RuntimeError("board section failed")

    monkeypatch.setattr(counting, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(verify, "_board_checks", broken)
    for module in (counting, verify):
        monkeypatch.setattr(module, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="board section failed"):
        verify.run_verification_suite("full")
    assert sizes == [2]
    assert multiprocessing.active_children() == []


def test_verify_detects_tampered_validator(capsys, monkeypatch):
    # Negative control: a predicate that waves everything through must
    # make the oracle comparisons fail and the suite exit nonzero.
    monkeypatch.setattr("queens_lab.core.is_toroidal", lambda config: True)
    code, out, _ = run(capsys, ["verify", "--level", "quick"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert "count-toroidal-matches-oracle" in payload["failed"]


def test_verify_detects_tampered_classical_validator(capsys, monkeypatch):
    # The oracle hands each board to both predicates in one pass, so the
    # classical lookup must be live as well.
    monkeypatch.setattr("queens_lab.core.is_classical", lambda config: True)
    code, out, _ = run(capsys, ["verify", "--level", "quick"])
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert "count-classical-matches-oracle" in payload["failed"]


def test_env_cap_reaches_cli(capsys, monkeypatch):
    monkeypatch.setenv("QUEENS_LAB_CAP", "6")
    code, _, err = run(capsys, ["count", "--n", "8", "--mode", "classical"])
    assert code == 1
    assert json.loads(err)["code"] == "size-limit"


def test_check_lemmas_above_cap_is_size_limit_error(capsys):
    code, out, err = run(capsys, ["bounds", "--check-lemmas", "--n", "16"])
    assert (code, out) == (1, "")
    assert json.loads(err)["code"] == "size-limit"


def test_check_lemmas_below_one_is_invalid_config(capsys):
    code, out, err = run(capsys, ["bounds", "--check-lemmas", "--n", "0"])
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "status": "error",
        "code": "invalid-config",
        "message": "board size must be >= 1, got 0",
    }
