"""Every public export of the package resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import gisieve

MODULES = sorted(
    f"gisieve.{info.name}" for info in pkgutil.iter_modules(gisieve.__path__)
)


@pytest.mark.parametrize("modname", MODULES)
def test_module_all_resolves(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_star_import():
    namespace: dict = {}
    exec("from gisieve import *", namespace)  # raises on a stale export
    assert "GaussianInt" in namespace
