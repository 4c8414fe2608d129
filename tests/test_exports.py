"""Every exported name resolves, so star-imports keep working."""

import importlib
import pkgutil

import pytest

import subsel

MODULES = ["subsel"] + [f"subsel.{m.name}" for m in pkgutil.iter_modules(subsel.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", [n for n in MODULES if hasattr(importlib.import_module(n), "__all__")])
def test_star_import_binds_every_exported_name(name):
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)

