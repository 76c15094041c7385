"""The package as declared: its scripts and package data exist, every
exported name resolves, and the lower layers import no higher ones."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import navex

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "navex"


def test_declared_scripts_and_package_data_exist():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    for target in config["project"].get("scripts", {}).values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), target
    setuptools = config["tool"]["setuptools"]
    (where,) = setuptools["packages"]["find"]["where"]
    for package, patterns in setuptools.get("package-data", {}).items():
        base = ROOT / where / package.replace(".", "/")
        for pattern in patterns:
            assert any(base.glob(pattern)), f"{package}: nothing matches {pattern}"


def test_every_exported_name_resolves():
    names = [m.name for m in pkgutil.iter_modules(navex.__path__, "navex.")]
    assert names
    missing = {}
    for name in names:
        module = importlib.import_module(name)
        gone = [n for n in module.__all__ if not hasattr(module, n)]
        if gone:
            missing[name] = gone
    assert not missing


def _navex_imports(module: str) -> set[str]:
    """The navex modules that `module` imports, read from its source."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            targets = [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["navex" * bool(node.level), node.module]))
            targets = [(base, a.name) for a in node.names]
        else:
            continue
        for name, member in targets:
            if name == "navex":
                found.add(member)
            elif name.startswith("navex."):
                found.add(name.split(".")[1])
    return found


def test_lower_layers_import_only_the_syntax():
    """expr and graphs stand alone; automata and evaluate build on them and
    nothing else, so the automaton layer never depends on the evaluator."""
    assert _navex_imports("expr") == set()
    assert _navex_imports("graphs") == set()
    assert _navex_imports("automata") == {"expr", "graphs"}
    assert _navex_imports("evaluate") <= {"expr", "graphs"}
    assert {"automata", "constructions", "evaluate"} <= _navex_imports("rewrite")
