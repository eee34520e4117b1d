"""Start-up: a fresh interpreter imports only the modules a command runs.

Each test starts ``sys.executable`` with ``PYTHONPATH=src``, so modules
already imported by this test process do not hide what a first import
loads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
POOL_MODULES = ("concurrent.futures", "multiprocessing")
ALL_MODULES = sorted(
    p.stem for p in (SRC / "queens_lab").glob("*.py") if not p.stem.startswith("_")
)
FLIP_MODULES = ["construction", "core", "flips"]


def fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON value last."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = """
import json, sys
print(json.dumps(sorted(sys.modules)))
"""


def test_importing_cli_loads_no_command_module():
    loaded = fresh("from queens_lab import cli\n" + LOADED)
    assert [m for m in loaded if m.startswith("queens_lab")] == [
        "queens_lab",
        "queens_lab.cli",
        "queens_lab.errors",
    ]
    assert not [m for m in loaded if m.startswith(POOL_MODULES)]


# One case per command of README's "Start-up" table: the package modules a
# command loads besides queens_lab, cli and errors.
STARTUP_TABLE = [
    (["construct", "--k", "2"], ["construction", "core"]),
    (["flips", "--k", "2", "--count"], ["construction", "core"]),
    (["flips", "--k", "2", "--list"], FLIP_MODULES),
    (["generate", "--k", "2", "--t", "1"], FLIP_MODULES),
    (["count", "--n", "6", "--mode", "classical"], ["core", "counting"]),
    (["hg", "--family", "torus", "--params", '{"n":5}', "--stats"], ["hypergraph"]),
    (["hg", "--family", "flip", "--params", '{"k":1}', "--stats"], FLIP_MODULES + ["hypergraph"]),
    (["bounds", "--alpha"], ["bounds", "core", "quadrature"]),
    (["bounds", "--check-lemmas", "--n", "6"], ["bounds", "core", "counting", "quadrature"]),
    (["verify", "--level", "quick"], [m for m in ALL_MODULES if m not in ("cli", "errors")]),
]


@pytest.mark.parametrize(
    "argv, modules", STARTUP_TABLE, ids=[" ".join(argv) for argv, _ in STARTUP_TABLE]
)
def test_startup_table(argv, modules):
    loaded = fresh(
        "import contextlib, io\n"
        "from queens_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
        + LOADED
    )
    package = {m for m in loaded if m.startswith("queens_lab")}
    assert package == {"queens_lab", "queens_lab.cli", "queens_lab.errors"} | {
        f"queens_lab.{m}" for m in modules
    }


def test_single_thread_verify_starts_no_pool_module():
    loaded = fresh(
        "import contextlib, io\n"
        "from queens_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', '--level', 'quick']) == 0\n"
        + LOADED
    )
    assert "queens_lab.verify" in loaded
    assert not [m for m in loaded if m.startswith(POOL_MODULES)]


def test_bounds_alpha_loads_no_search_module():
    loaded = fresh(
        "import contextlib, io\n"
        "from queens_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['bounds', '--alpha']) == 0\n"
        + LOADED
    )
    assert "queens_lab.bounds" in loaded
    assert "queens_lab.counting" not in loaded
    assert "queens_lab.construction" not in loaded


def test_lazy_package_names_are_their_home_objects():
    result = fresh(
        """
import importlib, json
import queens_lab
names = queens_lab.__all__
count = queens_lab.counting.count_classical(8).count
homes = {}
for name in names:
    obj = getattr(queens_lab, name)
    home = obj.__module__
    homes[name] = home.startswith("queens_lab.")
    homes[name] &= getattr(importlib.import_module(home), name) is obj
try:
    queens_lab.no_such_name
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"names": names, "dir": dir(queens_lab), "count": count, "homes": homes,
                  "missing": missing}))
"""
    )
    assert len(result["names"]) == 50
    assert all(result["homes"].values())
    assert set(result["names"]) <= set(result["dir"])
    assert result["count"] == 92
    assert result["missing"] == "module 'queens_lab' has no attribute 'no_such_name'"


def test_every_module_imports_first_in_a_fresh_interpreter():
    # An import cycle shows up only for the module that is imported first.
    for module in ALL_MODULES:
        loaded = fresh(f"import queens_lab.{module}\n" + LOADED)
        assert f"queens_lab.{module}" in loaded
