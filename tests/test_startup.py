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

SRC = Path(__file__).resolve().parent.parent / "src"
POOL_MODULES = ("concurrent.futures", "multiprocessing")


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
    assert len(result["names"]) == 54
    assert all(result["homes"].values())
    assert set(result["names"]) <= set(result["dir"])
    assert result["count"] == 92
    assert result["missing"] == "module 'queens_lab' has no attribute 'no_such_name'"


def test_every_module_imports_first_in_a_fresh_interpreter():
    # An import cycle shows up only for the module that is imported first.
    files = (SRC / "queens_lab").glob("*.py")
    modules = sorted(p.stem for p in files if not p.stem.startswith("_"))
    for module in modules:
        loaded = fresh(f"import queens_lab.{module}\n" + LOADED)
        assert f"queens_lab.{module}" in loaded
