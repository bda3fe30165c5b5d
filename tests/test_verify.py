"""The identity suites' pass over the moduli: one unit table and at most
one character group per modulus, read by every selected suite and
dropped before the next, and the array tallies of their checks."""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gisieve.characters import CharGroup, char_group
from gisieve.gauss import DomainError, GaussianInt, ideals_up_to_norm, prime_power_ideals_up_to_norm
from gisieve.verify import SUITES, _Tally, lemma_pass, verify_all

PER_MODULUS = ["mellin", "parseval", "lemma"]
#: the suites that read the unit tables of the pass and no group
TABLE_SUITES = ["selberg", "weil", "shift"]


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
    from gisieve import characters, expsums, gauss, verify

    calls = Counter()
    for module, name in (
        (gauss, "_run_points"),
        (gauss, "unit_table"),
        (characters, "unit_table"),
        (expsums, "unit_table"),
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
    # at 1e-15 every suite but weil fails somewhere, so the messages and
    # their order are compared too
    names = PER_MODULUS + TABLE_SUITES
    together = verify_all(300, tol, names)
    assert together == [SUITES[name](300, tol) for name in names]
    assert together == [verify_all(300, tol, [name])[0] for name in names]
    assert together[::-1] == verify_all(300, tol, names[::-1])
    assert together[2] == lemma_pass(300, tol)[0]
    if tol < 1e-12:
        # weil fails above 2 + tol, and its worst ratio is 1
        assert [r.name for r in together if not r.failures] == ["weil"]


def test_table_suites_read_the_tables_of_the_pass(monkeypatch):
    # selberg, weil and shift build no group, and no table of a modulus
    # of the pass: what they build is the tables of the quotients c/d
    # (selberg) and of the elements c g (shift) that are not the modulus
    # of the visit.  Each building its own table of every modulus, they
    # made 926, 314 and 3,225 unit_table calls; with one table per visit
    # (c, g), shift made 2,911
    from gisieve import expsums, gauss, verify

    calls = Counter()
    for module in (gauss, expsums, verify):
        original = module.unit_table
        monkeypatch.setattr(
            module, "unit_table", lambda c, _f=original: calls.update([c]) or _f(c)
        )
    for names, tables in (
        (["selberg"], 612),
        (["weil"], 0),
        (["shift"], 1339),
        (TABLE_SUITES, 612 + 1339),
    ):
        calls.clear()
        assert _builds(monkeypatch, names) == Counter()
        assert calls.total() == tables
    # a group suite beside them builds the groups of its own moduli only
    prime_powers = prime_power_ideals_up_to_norm(400)
    assert _builds(monkeypatch, ["weil", "lemma"]) == Counter(i.gen for i in prime_powers)


def _shift_visits(max_norm: float) -> list[tuple]:
    """The visits (c, g) of the shift suite, in pass order."""
    cap = 40.0 * max_norm
    return [
        (ci.gen, gi.gen)
        for ci in ideals_up_to_norm(max_norm)
        for gi in ideals_up_to_norm(math.sqrt(cap / ci.norm))
    ]


def test_shift_suite_builds_one_table_per_element(monkeypatch):
    # 2,911 visits (c, g) at norm 400 read 1,427 elements c g: each
    # element's table is built once, at its first visit
    from gisieve import verify

    built = []
    table = verify.kloosterman_table
    monkeypatch.setattr(verify, "kloosterman_table", lambda c, units: built.append(c) or table(c, units))
    result = SUITES["shift"](400, 1e-9)
    assert result.checked == 98537 and result.failures == []
    elements = [c * g for c, g in _shift_visits(400)]
    assert len(elements) == 2911
    assert built == list(dict.fromkeys(elements))
    assert len(built) == 1427


def test_shift_suite_holds_values_not_tables(monkeypatch):
    # between visits the shift visitor holds the sums of later visits of
    # the elements it has read, 37,463 values (0.3 MiB) at most at norm
    # 300; holding each element's table until its last visit would peak
    # at 2.3 MiB.  At the last visit nothing is held but the sorted ideals
    held = []
    add = _Tally.add

    def measured(self, values, fields):
        held.append(tracemalloc.get_traced_memory()[0])
        add(self, values, fields)

    monkeypatch.setattr(_Tally, "add", measured)
    SUITES["shift"](60, 1e-9)  # first calls of the code paths
    held.clear()
    tracemalloc.start()
    try:
        result = SUITES["shift"](300, 1e-9)
    finally:
        tracemalloc.stop()
    assert result.checked == 70609 and result.failures == []
    assert len(held) == len(_shift_visits(300))
    assert max(held) - held[-1] < 1 << 20


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_a_negative_or_non_finite_tolerance_is_refused(tol):
    # at -1 the weil limit 2 + tol is 1, which every ratio meets
    with pytest.raises(DomainError, match="finite tolerance >= 0"):
        verify_all(10, tol, ["weil"])
    with pytest.raises(DomainError, match="finite tolerance >= 0"):
        lemma_pass(10, tol)
    assert verify_all(10, 0.0, ["weil"])[0].passed


def test_a_nan_check_fails():
    # a NaN is not above the limit, but it is not within it either
    for batches in ([[math.nan], [1e-12]], [[1e-12], [math.nan]], [[math.nan, 1e-12]]):
        tally = _Tally("t", 1e-9, "check {} value {}")
        for batch in batches:
            tally.add(np.array(batch), lambda k: (k,))
        result = tally.result()
        assert result.checked == 2
        assert math.isnan(result.worst)
        assert result.failures == ["check 0 value nan"]
        assert not result.passed


def test_a_nan_residual_fails_its_suite(monkeypatch):
    # every Weil ratio at c = 3 is NaN: 81 checks that fail
    from gisieve import expsums

    matrix = expsums.kloosterman_matrix

    def nan_at_3(ms, ns, c, units):
        return matrix(ms, ns, c, units) * (math.nan if c == GaussianInt(3, 0) else 1.0)

    monkeypatch.setattr(expsums, "kloosterman_matrix", nan_at_3)
    (weil,) = verify_all(10, 1e-9, ["weil"])
    assert weil.checked == 9 * 81 and math.isnan(weil.worst)
    assert len(weil.failures) == 81
    assert weil.failures[0] == "(m,n,c)=(1,1,3) ratio nan"


def _fields_and_residual(message: str) -> tuple:
    """A failure message as its fields part and its residual, as a number;
    a lemma message has no residual, and is compared whole."""
    fields, sep, residual = message.rpartition(" residual ")
    return (fields, float(residual)) if sep else (message, None)


#: verify_all(60, 1e-15): failures, first and last message of each suite
#: that fails
PINNED_60 = {
    "mellin": (25, "modulus 2+3i residual 1.986e-15", "modulus 7+3i residual 2.809e-15"),
    "parseval": (28, "modulus 1+2i residual 1.332e-15", "modulus 7+3i residual 3.553e-15"),
    "twisted": (
        28,
        "moduli 2,3 exps (0,),(0,) residual 1.003e-15",
        "moduli 1+i,5+2i exps (),(26,) residual 1.005e-15",
    ),
    "lemma": (
        2,
        "modulus 3+4i exps (10,): |fhat| = 0.000000, case formula says = 0.000000",
        "modulus 4+3i exps (16,): |fhat| = 1.250000, case formula says = 1.250000",
    ),
    "selberg": (
        1588,
        "(m,n,c)=(1,3+i,3) residual 1.110e-15",
        "(m,n,c)=(3+i,3+i,7+3i) residual 7.105e-15",
    ),
    "shift": (
        672,
        "(w,c,g)=(1+4i,1,1+4i) residual 1.332e-15",
        "(w,c,g)=(2+i,7+3i,2+i) residual 2.665e-15",
    ),
}


def test_failure_messages_are_pinned():
    results = verify_all(60, 1e-15)
    assert {r.name for r in results if r.failures} == set(PINNED_60)
    for r in results:
        if r.failures:
            count, first, last = PINNED_60[r.name]
            assert len(r.failures) == count, r.name
            got = [_fields_and_residual(m) for m in (r.failures[0], r.failures[-1])]
            assert got == [_fields_and_residual(first), _fields_and_residual(last)]


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
