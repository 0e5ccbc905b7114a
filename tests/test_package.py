"""The package root is its docstring and version; the modules are the API."""

import importlib
import inspect
import itertools
import pathlib
import pkgutil
import re
import types

import krylovflow

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
