"""Every name a module exports in __all__ exists, so a deletion that
leaves its export behind fails here rather than at a caller's import."""

import importlib
import pkgutil

import pytest

import abimhd

MODULES = [info.name for info in pkgutil.iter_modules(abimhd.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"abimhd.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
