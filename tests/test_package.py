"""The package as declared: its scripts and package data exist, and every
exported name resolves."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import navex

ROOT = Path(__file__).resolve().parents[1]


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
