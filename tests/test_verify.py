"""The identity suites' pass over the moduli: one character group per
modulus, read by every selected suite and dropped before the next."""

from __future__ import annotations

import tracemalloc
from collections import Counter

import pytest

from gisieve.characters import CharGroup, char_group
from gisieve.gauss import ideals_up_to_norm
from gisieve.verify import SUITES, lemma_pass, verify_all

PER_MODULUS = ["mellin", "parseval", "lemma"]


def _builds(monkeypatch, names) -> Counter:
    """The CharGroup builds of verify_all(400, 1e-9, names), per modulus."""
    built = Counter()
    init = CharGroup.__init__

    def counting_init(self, element, units):
        built[element] += 1
        init(self, element, units)

    monkeypatch.setattr(CharGroup, "__init__", counting_init)
    verify_all(400, 1e-9, names)
    return built


def test_each_group_is_built_once_per_pass(monkeypatch):
    assert _builds(monkeypatch, PER_MODULUS) == Counter(ideal.gen for ideal in ideals_up_to_norm(400))


def test_twisted_suite_reads_the_groups_of_the_pass(monkeypatch):
    # the twisted suite is a visitor of the pass: it builds no group of its own
    built = _builds(monkeypatch, ["charsum", "lemma"])
    assert built == Counter(ideal.gen for ideal in ideals_up_to_norm(400))


def test_pass_builds_the_unit_tables_in_runs(monkeypatch):
    # the tables of the groups come from runs of unit_tables: one
    # _run_points per run of the moduli, and no table of one modulus
    from gisieve import characters, gauss, verify

    calls = Counter()
    for module, name in (
        (gauss, "_run_points"),
        (gauss, "unit_table"),
        (characters, "unit_table"),
        (verify, "unit_table"),
    ):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, _f=original, _n=name: calls.update([_n]) or _f(*args)
        )
    verify_all(400, 1e-9, PER_MODULUS)
    moduli = [ideal.gen for ideal in ideals_up_to_norm(400)]
    assert calls == Counter(_run_points=len(list(gauss._runs(moduli))))
    assert calls["_run_points"] < len(moduli)


def test_no_group_outlives_the_pass():
    verify_all(30, 1e-9, PER_MODULUS)  # first calls of the code paths
    char_group.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = verify_all(400, 1e-9, PER_MODULUS)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [r.checked for r in results] == [314, 314, 15751]
    assert char_group.cache_info().currsize == 0
    # 314 groups with their F and fhat tables take about 6 MiB
    assert held < 1 << 20


def test_pass_peak_memory_is_one_group():
    verify_all(30, 1e-9, ["mellin", "parseval"])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = verify_all(2000, 1e-9, ["mellin", "parseval"])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [r.checked for r in results] == [1573, 1573]
    # about 2 MiB; the 1,573 groups held at once take over 100 MiB
    assert peak < 8 << 20


@pytest.mark.parametrize("tol", [1e-9, 1e-15])
def test_suites_together_equal_suites_alone(tol):
    # at 1e-15 every suite fails somewhere, so the messages and their
    # order are compared too
    together = verify_all(300, tol, PER_MODULUS)
    assert together == [SUITES[name](300, tol) for name in PER_MODULUS]
    assert together == [verify_all(300, tol, [name])[0] for name in PER_MODULUS]
    assert together[::-1] == verify_all(300, tol, PER_MODULUS[::-1])
    assert together[2] == lemma_pass(300, tol)[0]
    if tol < 1e-12:
        assert all(r.failures for r in together)


@pytest.mark.parametrize("tol", [1e-9, 1e-15])
def test_twisted_suite_alone_equals_twisted_in_the_pass(tol):
    # at 1e-15 it fails at many pairs, so the messages and their order
    # are compared too
    alone = SUITES["twisted"](300, tol)
    assert alone == verify_all(300, tol, ["twisted"])[0]
    assert alone == verify_all(300, tol, ["charsum", "lemma"])[2]
    assert alone.name == "twisted" and alone.checked == 41847
    if tol < 1e-12:
        assert len(alone.failures) == 3100


def test_twisted_suite_drops_each_group_after_its_last_pair(monkeypatch):
    # the twisted visitor holds only the groups of norm <= sqrt(max_norm),
    # the only ones that can be the smaller modulus of a pair, besides the
    # group of the current modulus.  Holding every group to the end, the
    # suite held 3.6 MiB at its last pair at norm 300
    from gisieve import verify

    held = []
    checks = verify._twisted_checks

    def measured(grp1, grp2, units, f_values):
        held.append(tracemalloc.get_traced_memory()[0])
        return checks(grp1, grp2, units, f_values)

    monkeypatch.setattr(verify, "_twisted_checks", measured)
    SUITES["twisted"](60, 1e-9)  # first calls of the code paths
    held.clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = SUITES["twisted"](300, 1e-9)
    finally:
        tracemalloc.stop()
    assert result.checked == 41847 and result.failures == []
    assert held[-1] - before < 1 << 20
