"""Every public export of the package resolves, and so does every
function that the benchmark's tracer (perfbench/tracer.py) wraps."""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_tracer_targets_resolve():
    # the tracer binds each (module, "name" or "Class.method") at install
    # time; a renamed or deleted target would only fail a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for _, modname, attr in tracer.TARGETS:
        target = importlib.import_module(modname)
        for name in attr.split("."):
            target = getattr(target, name, None)
        if not callable(target):
            missing.append(f"{modname}.{attr}")
    assert missing == []
