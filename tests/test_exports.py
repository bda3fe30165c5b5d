"""Every public export of the package resolves, and so does every
function that the benchmark's tracer (perfbench/tracer.py) wraps; the
experiment layer reads no character tables and no private names."""

from __future__ import annotations

import ast
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
    # the tracer reads the hit ratio of the one cache of character groups
    characters = importlib.import_module("gisieve.characters")
    assert callable(characters.char_group.cache_info)


def _source_tree(module: str) -> ast.Module:
    path = Path(__file__).resolve().parents[1] / "src" / "gisieve" / f"{module}.py"
    return ast.parse(path.read_text())


def test_verify_neither_imports_nor_calls_char_group():
    # the identity suites build their groups in one pass over the moduli
    # (and the twisted suite in a table of its own call); a use of the
    # process-wide char_group would keep every group after they return
    uses = [
        node
        for node in ast.walk(_source_tree("verify"))
        if (isinstance(node, ast.alias) and node.name == "char_group")
        or (isinstance(node, ast.Name) and node.id == "char_group")
        or (isinstance(node, ast.Attribute) and node.attr == "char_group")
    ]
    assert uses == []


def test_sievelab_imports_no_characters_and_no_private_names():
    # sievelab sums its characters as congruences (gauss): an import of
    # gisieve.characters, or of a _-prefixed name of another gisieve
    # module, would bring back the dependency on a lower layer's internals
    imported = []
    for node in ast.walk(_source_tree("sievelab")):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative imports resolve inside the package
                module = "gisieve" + (f".{module}" if module else "")
            imported += [(module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, "") for alias in node.names]
    ours = [(module, name) for module, name in imported if module.split(".")[0] == "gisieve"]
    assert ours
    bad = [
        (module, name)
        for module, name in ours
        if "characters" in (module.split(".") + [name]) or name.startswith("_")
    ]
    assert bad == []


def test_unit_tables_call_neither_factor_nor_divides_points(monkeypatch):
    # the unit tables come from the rational structure of Z[i]/(c): a
    # Gaussian factorisation, or one divides_points pass per prime, on
    # their path would be the per-modulus work that they replace
    gauss = importlib.import_module("gisieve.gauss")
    calls = []
    for name in ("factor", "divides_points"):
        original = getattr(gauss, name)
        monkeypatch.setattr(
            gauss, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args)
        )
    moduli = [
        c
        for ideal in gauss.ideals_up_to_norm(400)
        for c in (ideal.gen, ideal.gen.times_i(), ideal.gen.conj())
    ]
    assert len(list(gauss.unit_tables(moduli))) == len(moduli)
    for c in moduli[::10]:
        gauss.unit_table(c)
    assert calls == []
