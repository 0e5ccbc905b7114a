"""The package root is its docstring and version; the modules are the API."""

import importlib
import inspect
import itertools
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import types

import krylovflow
from perfbench.workloads import tiny

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_module_is_the_package_attribute_of_its_name():
    names = [m.name for m in pkgutil.iter_modules(krylovflow.__path__)]
    assert "bilanczos" in names
    for name in names:
        module = importlib.import_module(f"krylovflow.{name}")
        assert getattr(krylovflow, name) is module, name
    import krylovflow.bilanczos as m
    assert isinstance(m, types.ModuleType)


def test_readme_overview_indexes_the_public_api():
    # README's library overview has one row per module, and its names
    # column lists in backticks exactly the functions and classes the
    # module defines without a leading underscore.
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| Module | Names | Purpose |") + 2
    rows = {}
    for line in itertools.takewhile(lambda l: l.startswith("|"),
                                    lines[start:]):
        module, names = re.match(r"\| `(\w+)` \| ([^|]*) \|", line).groups()
        rows[module] = re.findall(r"`(\w+)`", names)
    modules = {m.name for m in pkgutil.iter_modules(krylovflow.__path__)}
    assert set(rows) == modules
    for name, listed in rows.items():
        module = importlib.import_module(f"krylovflow.{name}")
        public = {key for key, obj in vars(module).items()
                  if not key.startswith("_")
                  and (inspect.isfunction(obj) or inspect.isclass(obj))
                  and obj.__module__ == module.__name__}
        assert sorted(listed) == sorted(public), name


# Run in a fresh process, where no other test has imported scipy, and no
# library of scipy's wheel is mapped yet.
FRESH_FULL_PIPELINE = """
import json, os, sys
from krylovflow import cli
assert cli.run_pipeline(json.loads(sys.argv[1]), "full", sys.argv[2],
                        quiet=True) == 0
loaded = sorted(name for name in sys.modules
                if name == "scipy" or name.startswith("scipy."))
assert not loaded, f"scipy modules were imported: {loaded}"
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        mapped = {line.split()[-1] for line in fh if "scipy.libs" in line}
    assert not mapped, f"scipy's own libraries were mapped: {sorted(mapped)}"
"""


def test_full_pipeline_loads_no_solver_and_one_blas(tmp_path):
    # The continuum stage is closed-form, the oracle's exponential, the
    # Taylor cut-off norm and the sparse assembly and products are numpy's,
    # and no package module imports scipy: only the tests' cross-checks
    # load it.  So no scipy module is loaded, nothing under scipy.libs is
    # mapped, and the one OpenBLAS in the process is numpy's.
    src = os.path.dirname(os.path.dirname(krylovflow.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_FULL_PIPELINE,
         json.dumps(tiny(0)[0]), str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
