"""Hecke zeta values, twisted divisor sums, the Eisenstein-side sieve
quadratic form, and the geometric side of the trace identity.

mpmath supplies the zeta oracle on the p = 0 line:
zeta_F(s) = zeta(s) L(s, chi_{-4}), with the L-function evaluated
through Hurwitz zetas.  The p != 0 values are checked for internal
consistency (conjugation, cutoff stability, multiplicativity).  The
twisted divisor sum tau_{s,p} lives here, summed term by term, as the
oracle of the sieve sum's divisor-sum linear forms; so does the
one-sequence sieve sum, the oracle of the batched one row by row.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gisieve.spectral as spectral
from gisieve.archimedean import (
    QuadratureConfig,
    TestFunction,
    _panel_rule,
    plancherel_integral,
)
from gisieve.gauss import (
    DomainError,
    GaussianInt,
    GIdeal,
    divisor_count,
    exact_div,
    ideal_divisors,
    ideals_up_to_norm,
    is_coprime,
)
from gisieve.spectral import (
    CoefficientSequence,
    DEFAULT_WEIGHT_CUTOFF,
    POLE_BAND_HALF_WIDTH,
    PoleError,
    _NORM_BAND,
    _SIEVE_PHASE_BUDGET,
    _divisor_geometry,
    _grid_weights,
    _lattice_sum,
    _omega,
    _sieve_rule,
    _smoothed_zeta,
    eisenstein_sieve_sum,
    eisenstein_sieve_sums,
    hecke_zeta,
    kuznetsov_geometric,
    ZETA_EULER_CONSTANT,
    ZETA_F_32_UPPER,
)
from conftest import make_sequence

mpmath.mp.dps = 30


def dedekind_zeta_oracle(s):
    """zeta_F(s) for Q(i) via mpmath: zeta(s) * L(s, chi_{-4})."""
    s = mpmath.mpc(s)
    l_chi = 4**-s * (mpmath.zeta(s, mpmath.mpf(1) / 4) - mpmath.zeta(s, mpmath.mpf(3) / 4))
    return complex(mpmath.zeta(s) * l_chi)


small = st.integers(min_value=-6, max_value=6)
nonzero_ideals = (
    st.builds(GaussianInt, small, small)
    .filter(lambda z: not z.is_zero())
    .map(GIdeal.of)
)


# ---------------------------------------------------------------------------
# Twisted divisor sums
# ---------------------------------------------------------------------------


def tau_s_p(n, s, p):
    """Twisted divisor sum: sum over d*e = n of lambda_{4p}(d/e)(N(d)/N(e))^s,
    term by term from the ratio d/e.  The oracle for the divisor-sum linear
    forms of the Eisenstein sieve sum; for n = (1+i) and s = it it is
    (-1)^p * 2 cos(t log 2).
    """
    if n.gen.is_zero():
        raise DomainError("tau_s_p requires a nonzero ideal")
    total = 0j
    for d in ideal_divisors(n):
        ratio = complex(d.gen) / complex(exact_div(n.gen, d.gen))
        total += (ratio / abs(ratio)) ** (4 * p) * abs(ratio) ** (2 * s)
    return total


def test_tau_unit_ideal():
    one = GIdeal.of(GaussianInt(1, 0))
    assert tau_s_p(one, 0.3 + 0.2j, 4) == pytest.approx(1.0)


def test_tau_ramified_prime():
    # divisors of (1+i) pair into (a, b) = ((1), (1+i)) and ((1+i), (1)):
    # tau_{it,p} = (-1)^p (2^{it} + 2^{-it}) = (-1)^p 2 cos(t log 2)
    n = GIdeal.of(GaussianInt(1, 1))
    for t, p in ((0.7, 0), (1.3, 1), (-2.1, 3)):
        want = (-1.0) ** p * 2.0 * math.cos(t * math.log(2.0))
        assert tau_s_p(n, 1j * t, p) == pytest.approx(want, abs=1e-12)


@given(nonzero_ideals, st.floats(-4, 4), st.integers(-4, 4))
def test_tau_bounded_by_divisor_count(n, t, p):
    assert abs(tau_s_p(n, 1j * t, p)) <= divisor_count(n) + 1e-9


@given(nonzero_ideals, nonzero_ideals)
def test_tau_multiplicative(m, n):
    if not is_coprime(m.gen, n.gen):
        return
    s, p = 0.4j, 2
    lhs = tau_s_p(m * n, s, p)
    rhs = tau_s_p(m, s, p) * tau_s_p(n, s, p)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(nonzero_ideals, st.floats(-3, 3), st.integers(-3, 3))
def test_tau_conjugation(n, t, p):
    lhs = tau_s_p(n, 1j * t, p).conjugate()
    rhs = tau_s_p(n, -1j * t, -p)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_tau_rejects_zero_ideal():
    with pytest.raises(DomainError):
        tau_s_p(GIdeal.of(GaussianInt(0, 0)), 0.0j, 0)


# ---------------------------------------------------------------------------
# Lattice sums by norm bands
# ---------------------------------------------------------------------------


def _row_lattice_partial(s, p, cutoff, cesaro_order):
    """The lattice sum one row a of the quarter {a >= 1, b >= 0} at a time,
    point by point: the reference for the summation by norm bands."""
    x = float(cutoff)
    top = math.isqrt(int(x))
    s = complex(s)
    total = 0.0 + 0.0j
    for a in range(1, top + 1):
        bmax = math.isqrt(int(x) - a * a)
        b = np.arange(0.0, bmax + 1.0)
        norms = a * a + b * b
        terms = np.exp(-s * np.log(norms) + 4j * p * np.arctan2(b, float(a)))
        if cesaro_order:
            terms = terms * (1.0 - norms / x) ** cesaro_order
        total += complex(terms.sum())
    return total


@pytest.mark.parametrize(
    "cutoff",
    [4, _NORM_BAND - 1, _NORM_BAND, _NORM_BAND + 1, 7777, 65537, 2e5],
)
def test_lattice_sum_matches_row_oracle(cutoff):
    # cutoffs on either side of a band edge; s on the 1-line, right and left of it
    s = np.array([1.0 + 0.6j, 1.0 - 2.2j, 1.5 + 0.3j, 0.7 + 1.0j])
    for p in (0, 1, -1, 2, 4, 8):
        for order in (0, 3):
            got = _lattice_sum(s, p, cutoff, order)
            for si, value in zip(s, got):
                want = _row_lattice_partial(si, p, cutoff, order)
                assert abs(value - want) <= 1e-13 * abs(want), (p, order, si)


def test_lattice_sum_all_nodes_equal_one_node_calls():
    nodes, _ = _panel_rule(-2.0, 2.0, 6, 16)
    s = 1.0 + 2j * nodes
    assert len(s) == 96
    got = _lattice_sum(s, 4, 2e4, 3)
    for si, value in zip(s, got):
        assert value == _lattice_sum(np.array([si]), 4, 2e4, 3)[0]


def test_lattice_sum_memory_bounded():
    # bands and exp blocks bound every temporary array; one table over
    # the cutoff's norms would take 96 * 16 bytes per norm
    nodes, _ = _panel_rule(-2.0, 2.0, 6, 16)
    tracemalloc.start()
    try:
        _lattice_sum(1.0 + 2j * nodes, 2, 1e6, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# Hecke zeta
# ---------------------------------------------------------------------------


def test_zeta_at_two_against_mpmath():
    got, tail = hecke_zeta(2.0 + 0.0j, 0)
    want = dedekind_zeta_oracle(2)
    assert abs(got - want) < 1e-8
    assert abs(got - want) <= tail + 1e-12
    # the classical closed form: zeta_F(2) = (pi^2 / 6) * Catalan
    assert got.real == pytest.approx(math.pi**2 / 6.0 * float(mpmath.catalan), abs=1e-8)


@pytest.mark.parametrize("sigma", [1.5, 2.5, 4.0])
def test_zeta_direct_mode_tail_honest(sigma):
    rough = hecke_zeta(complex(sigma, 1.0), 0, cutoff=5e4)
    fine = hecke_zeta(complex(sigma, 1.0), 0, cutoff=8e5)
    assert abs(rough.value - fine.value) <= rough.tail_estimate
    assert fine.tail_estimate < rough.tail_estimate


@pytest.mark.parametrize("t", [0.25, 1.0, 3.0, -2.0])
def test_zeta_smoothed_on_critical_line_edge(t):
    # the weight line s = 1 + 2it, where the direct series no longer
    # converges absolutely; documented accuracy target is 1e-2
    s = complex(1.0, 2.0 * t)
    got = hecke_zeta(s, 0, cutoff=2e5, smoothed=True)
    want = dedekind_zeta_oracle(s)
    assert abs(got.value - want) / abs(want) < 1e-3


def test_zeta_smoothed_tail_tracks_error():
    s = complex(1.0, 1.6)
    got = hecke_zeta(s, 0, cutoff=2e5, smoothed=True)
    want = dedekind_zeta_oracle(s)
    assert abs(got.value - want) <= 10.0 * got.tail_estimate + 1e-9


def test_zeta_pole_guard():
    with pytest.raises(PoleError):
        hecke_zeta(1.0 + 0.0j, 0)
    # no pole off the p = 0 sheet
    value, _ = hecke_zeta(1.0 + 0.0j, 2, cutoff=2e5, smoothed=True)
    assert np.isfinite(value.real) and np.isfinite(value.imag)


@given(st.floats(1.2, 3.0), st.floats(-2.0, 2.0), st.integers(-3, 3))
def test_zeta_conjugation_symmetry(sigma, t, p):
    s = complex(sigma, t)
    a = hecke_zeta(s, -p, cutoff=2e4).value
    b = hecke_zeta(s.conjugate(), p, cutoff=2e4).value.conjugate()
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("p", [1, 4])
def test_zeta_nonzero_p_cutoff_stable(p):
    s = 1.0 + 1.0j
    rough = hecke_zeta(s, p, cutoff=1e5, smoothed=True).value
    fine = hecke_zeta(s, p, cutoff=4e5, smoothed=True).value
    assert abs(rough - fine) < 2e-3 * max(1.0, abs(fine))


def test_zeta_euler_constant_against_mpmath():
    # constant term of the Laurent expansion at the pole, computed
    # independently as zeta_F(1 + d) - (pi/4)/d for small d
    with mpmath.workdps(40):
        d = mpmath.mpf("1e-12")
        s = 1 + d
        l_chi = 4**-s * (mpmath.zeta(s, mpmath.mpf(1) / 4) - mpmath.zeta(s, mpmath.mpf(3) / 4))
        limit = mpmath.zeta(s) * l_chi - (mpmath.pi / 4) / d
    assert ZETA_EULER_CONSTANT == pytest.approx(float(limit), abs=1e-10)


def test_zeta_smoothed_at_beta_pole_collisions():
    # at real s = 2, 3, 4 the contour-shift term collides with a pole of
    # the Cesaro weight's Mellin transform; the merged residue must be
    # used (the naive Beta factor is infinite there)
    got2 = hecke_zeta(2.0 + 0.0j, 0, cutoff=1e5, smoothed=True)
    assert abs(got2.value - dedekind_zeta_oracle(2)) < 1e-8
    for s in (3.0, 4.0):
        got = hecke_zeta(complex(s), 0, cutoff=1e5, smoothed=True)
        err = abs(got.value - dedekind_zeta_oracle(s))
        assert err < 2e-4
        assert err <= 3.0 * got.tail_estimate + 1e-9


def test_zeta_smoothed_accurate_through_collision():
    # approaching s = 2 must not reintroduce the cancelling divergences:
    # the error against the oracle stays uniformly small even though the
    # two subtracted pole terms individually blow up like 1/(s - 2)
    for ds in (0.0, 1e-7, -1e-7, 1e-9, -1e-9, 1e-12):
        got = hecke_zeta(2.0 + ds, 0, cutoff=1e5, smoothed=True).value
        assert abs(got - dedekind_zeta_oracle(2.0 + ds)) < 1e-8


# ---------------------------------------------------------------------------
# Eisenstein weight
# ---------------------------------------------------------------------------


def _weight(t, p, cutoff=DEFAULT_WEIGHT_CUTOFF):
    """omega(t, p) at one node, with the scalar 1 / |z| ** 2 (Python's
    x ** 2 and NumPy's square differ in the last bit for some doubles)."""
    return 1.0 / abs(complex(_smoothed_zeta(np.array([1.0 + 2j * t]), 2 * p, cutoff)[0])) ** 2


def test_weight_pole_band_excluded():
    # omega(t, 0) -> 0 toward the pole at t = 0, which is why the sieve sum
    # skips the band |t| < POLE_BAND_HALF_WIDTH at p = 0; p != 0 has no band
    assert _weight(0.5 * POLE_BAND_HALF_WIDTH, 0) < _weight(POLE_BAND_HALF_WIDTH, 0)
    assert _weight(0.0, 1) > 0.0


def test_weight_positive_and_symmetric():
    for t, p in ((0.3, 0), (1.0, 1), (2.5, -2)):
        w = _weight(t, p)
        assert w > 0.0
        assert _weight(-t, -p) == pytest.approx(w, rel=1e-12)


def test_weight_vanishes_toward_pole():
    # on p = 0 the zeta pole at t = 0 sends omega to zero
    w_near = _weight(0.06, 0)
    w_far = _weight(1.0, 0)
    assert w_near < 0.15 * w_far


@pytest.mark.parametrize("t,p", [(0.3, 0), (-1.7, 2)])
def test_weight_is_smoothed_zeta(t, p):
    # the weight reads only the value at the cutoff, not the tail estimate
    z = hecke_zeta(1.0 + 2j * t, 2 * p, cutoff=2e4, smoothed=True).value
    assert _weight(t, p, 2e4) == 1.0 / abs(z) ** 2


def test_weight_rejects_tiny_cutoff():
    with pytest.raises(DomainError, match="cutoff"):
        _omega(np.array([1.0]), 1, 3.0)
    with pytest.raises(DomainError, match="cutoff"):
        eisenstein_sieve_sum(make_sequence({_ideal(1, 1): 1.0}), 2.0, 1.0, weight_cutoff=3.0)


@pytest.mark.parametrize("cutoff", [math.nan, math.inf])
def test_zeta_and_weight_reject_a_non_finite_cutoff(cutoff):
    for smoothed in (False, True):
        with pytest.raises(DomainError, match="cutoff must be finite"):
            hecke_zeta(2.0, 0, cutoff=cutoff, smoothed=smoothed)
    with pytest.raises(DomainError, match="cutoff must be finite"):
        _omega(np.array([1.0]), 1, cutoff)
    ideals = ideals_up_to_norm(10)
    with pytest.raises(DomainError, match="cutoff must be finite"):
        eisenstein_sieve_sums(ideals, np.ones((1, len(ideals))), 2.0, 1.0, weight_cutoff=cutoff)


@pytest.mark.parametrize(
    "lo,hi,p",
    [
        (POLE_BAND_HALF_WIDTH, 1.0, 0),
        (-1.0, -POLE_BAND_HALF_WIDTH, 0),
        (-1.0, 1.0, -2),
        (-1.0, 1.0, 2),
    ],
)
def test_grid_weights_equal_one_node_weights(lo, hi, p):
    _, _, nodes, _ = _sieve_rule(lo, hi, 4)
    grid = _grid_weights(lo, hi, 4, p, 2e4)
    one = np.array([_weight(t, p, 2e4) for t in nodes])
    assert np.max(np.abs(grid - one) / one) <= 1e-13


@pytest.mark.parametrize(
    "lo,hi,n_panels",
    [(POLE_BAND_HALF_WIDTH, 1.0, 3), (0.3, 2.2, 4), (-1.0, 1.0, 3), (-2.0, 2.0, 7)],
)
def test_sieve_rule_is_exactly_mirrored(lo, hi, n_panels):
    # nodes m_k + h x_j with one h: the rule on [-hi, -lo] is the rule on
    # [lo, hi] read backwards, its nodes the exact negatives
    mids, offsets, nodes, wts = _sieve_rule(lo, hi, n_panels)
    m_mids, m_offsets, m_nodes, m_wts = _sieve_rule(-hi, -lo, n_panels)
    assert nodes.tolist() == np.add.outer(mids, offsets).ravel().tolist()
    assert m_nodes.tolist() == (-nodes[::-1]).tolist()
    assert m_wts.tolist() == wts[::-1].tolist() == wts.tolist()
    assert m_offsets.tolist() == offsets.tolist() == (-offsets[::-1]).tolist()
    assert math.fsum(wts) == pytest.approx(hi - lo, rel=1e-14)
    assert nodes[0] > lo and nodes[-1] < hi and np.all(np.diff(nodes) > 0)


@pytest.mark.parametrize("lo,hi,p", [(POLE_BAND_HALF_WIDTH, 1.0, 0), (-1.0, 1.0, 2)])
def test_mirrored_grid_is_reversed_grid(lo, hi, p):
    # omega(-t, -p) = omega(t, p): the key (-hi, -lo, -p) is served, bit
    # for bit, by the grid of (lo, hi, p) read backwards
    _grid_weights.cache_clear()
    grid = _grid_weights(lo, hi, 3, p, 2e4)
    mirrored = _grid_weights(-hi, -lo, 3, -p, 2e4)
    assert mirrored.tolist() == grid[::-1].tolist()
    assert not mirrored.flags.writeable
    _, _, nodes, _ = _sieve_rule(-hi, -lo, 3)
    one = np.array([_weight(t, -p, 2e4) for t in nodes])
    assert np.max(np.abs(mirrored - one) / one) <= 1e-13


@pytest.mark.parametrize("cutoff", [_NORM_BAND + 1, 7777])
def test_factored_lattice_sum_matches_row_oracle(cutoff):
    # s = 1 + 2i m_k shifted by 2i h x_j: every node of a panel grid, the
    # second half of the shifts read from the first half's conjugates
    mids, offsets, nodes, _ = _sieve_rule(-1.0, 1.0, 3)
    for p in (0, 2, -3):
        for order in (0, 3):
            got = _lattice_sum(1.0 + 2j * mids, p, cutoff, order, 2j * offsets)
            assert got.shape == nodes.shape
            for t, value in zip(nodes, got):
                want = _row_lattice_partial(1.0 + 2j * t, p, cutoff, order)
                assert abs(value - want) <= 1e-13 * abs(want), (p, order, t)


@pytest.mark.parametrize("P,passes", [(4.0, 2), (1.0, 1)])
def test_sieve_sum_makes_one_lattice_pass_per_abs_p(monkeypatch, P, passes):
    # p = 0 has two intervals, (-T/2, -band) and (band, T/2), and p and -p
    # share (-T/2, T/2): one pass per |p| <= P/4
    calls = []

    def counted(*args):
        calls.append(args[1])
        return _lattice_sum(*args)

    monkeypatch.setattr(spectral, "_lattice_sum", counted)
    _grid_weights.cache_clear()
    try:
        ideals = [ideal for ideal in ideals_up_to_norm(12)]
        rows = coefficient_rows(len(ideals), seed=1)
        eisenstein_sieve_sums(ideals, rows, 2.0, P, weight_cutoff=2e4)
    finally:
        _grid_weights.cache_clear()
    assert len(calls) == passes
    assert sorted(calls) == [2 * p for p in range(passes)]


def test_grid_weights_memory_bounded():
    # one omega grid of 7 panels x 16 nodes at the default cutoff: the
    # factored tables are blocked like the plain ones
    mids, offsets, nodes, _ = _sieve_rule(-2.0, 2.0, 7)
    assert nodes.size == 112
    tracemalloc.start()
    try:
        _omega(mids, 1, DEFAULT_WEIGHT_CUTOFF, offsets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_weight_regression_value():
    # pinned library value at (t, p) = (1, 1), previously cross-checked
    # against cutoff refinement
    assert _weight(1.0, 1) == pytest.approx(0.6416, abs=2e-3)


# ---------------------------------------------------------------------------
# Coefficient sequences
# ---------------------------------------------------------------------------


def _ideal(a, b):
    return GIdeal.of(GaussianInt(a, b))


def test_sequence_norms():
    seq = make_sequence({_ideal(1, 1): 2.0, _ideal(2, 1): -1j})
    assert seq.l2_norm() == pytest.approx(math.sqrt(5.0))
    assert not seq.is_zero()
    assert seq.scaled(2.0).l2_norm() == pytest.approx(2.0 * math.sqrt(5.0))
    assert seq.scaled(0.0).is_zero()


def test_sequence_window_validation():
    with pytest.raises(DomainError):
        CoefficientSequence(((_ideal(3, 0), 1.0 + 0j),), (1.0, 5.0))  # norm 9 outside
    with pytest.raises(DomainError):
        CoefficientSequence((), (4.0, 2.0))  # empty window


# ---------------------------------------------------------------------------
# Eisenstein sieve sum
# ---------------------------------------------------------------------------


def test_eisenstein_zero_sequence():
    seq = make_sequence({_ideal(1, 1): 0.0})
    assert eisenstein_sieve_sum(seq, 2.0, 1.0) == 0.0


def test_eisenstein_rejects_small_region():
    seq = make_sequence({_ideal(1, 1): 1.0})
    with pytest.raises(DomainError):
        eisenstein_sieve_sum(seq, 0.25, 1.0)


def test_eisenstein_single_entry_oracle():
    # for one coefficient the sum factorizes as
    # |a|^2 * sum_p int omega(t, p) |tau_{it,p}(n^2)|^2 dt; rebuild that
    # integral with a finer independent panel rule
    n0 = _ideal(2, 1)
    a0 = 1.5 - 0.5j
    seq = make_sequence({n0: a0})
    T, P, cutoff = 2.0, 4.5, 5e4  # the identity holds at any fixed cutoff
    got = eisenstein_sieve_sum(seq, T, P, weight_cutoff=cutoff)
    sq = GIdeal.of(n0.gen * n0.gen)
    expected = 0.0
    for p in range(-int(P // 4), int(P // 4) + 1):
        if p == 0:
            intervals = [(-T / 2, -POLE_BAND_HALF_WIDTH), (POLE_BAND_HALF_WIDTH, T / 2)]
        else:
            intervals = [(-T / 2, T / 2)]
        for lo, hi in intervals:
            nodes, wts = _panel_rule(lo, hi, 32, 12)
            taus = np.array([abs(tau_s_p(sq, 1j * t, p)) ** 2 for t in nodes])
            expected += abs(a0) ** 2 * float(wts @ (_omega(nodes, p, cutoff) * taus))
    assert got == pytest.approx(expected, rel=1e-9)


def test_eisenstein_monotone_in_region():
    seq = make_sequence({_ideal(1, 1): 1.0, _ideal(2, 1): 0.5j})
    v1 = eisenstein_sieve_sum(seq, 1.0, 1.0, weight_cutoff=5e4)
    v2 = eisenstein_sieve_sum(seq, 2.0, 1.0, weight_cutoff=5e4)
    v3 = eisenstein_sieve_sum(seq, 2.0, 8.0, weight_cutoff=5e4)
    assert 0.0 < v1 < v2 < v3


def test_eisenstein_quadratic_scaling():
    seq = make_sequence({_ideal(1, 1): 1.0, _ideal(2, 1): -2.0})
    base = eisenstein_sieve_sum(seq, 2.0, 1.0, weight_cutoff=5e4)
    scaled = eisenstein_sieve_sum(seq.scaled(3.0), 2.0, 1.0, weight_cutoff=5e4)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def _sieve_linear_form(a, t_nodes, p):
    """V(t) = sum_n a_(n) tau_{it,p}(n^2) at each node, one sequence at a
    time, in entry order."""
    out = np.zeros(len(t_nodes), dtype=complex)
    for ideal, coeff in a.entries:
        if coeff == 0:
            continue
        square = GIdeal.of(ideal.gen * ideal.gen)
        dargs, dlogs = _divisor_geometry(square)
        phases = 4.0 * p * dargs[None, :] + t_nodes[:, None] * dlogs[None, :]
        out += coeff * np.exp(1j * phases).sum(axis=1)
    return out


def loop_eisenstein_sieve_sum(a, T, P, weight_cutoff=DEFAULT_WEIGHT_CUTOFF):
    """The sieve sum of one sequence, its linear form rebuilt per (p,
    interval) from the sequence alone: the per-trial oracle."""
    if not a.entries or a.is_zero():
        return 0.0
    half = T / 2.0
    p_max = int(P // 4)
    max_log = max(math.log(ideal.norm) for ideal, _ in a.entries)
    rate = 4.0 * max_log + 1.0
    total = 0.0
    for p in range(-p_max, p_max + 1):
        if p == 0:
            intervals = [(-half, -POLE_BAND_HALF_WIDTH), (POLE_BAND_HALF_WIDTH, half)]
        else:
            intervals = [(-half, half)]
        for lo, hi in intervals:
            if hi <= lo:
                continue
            n_panels = max(2, math.ceil((hi - lo) * rate / _SIEVE_PHASE_BUDGET))
            _, _, nodes, wts = _sieve_rule(lo, hi, n_panels)
            form = _sieve_linear_form(a, nodes, p)
            weights = _grid_weights(lo, hi, n_panels, p, float(weight_cutoff))
            total += float(wts @ (weights * np.abs(form) ** 2))
    return total


def coefficient_rows(n, seed):
    """Four rows on n ideals: complex, complex with a zero, +-1, all zero;
    with n > 1, the second ideal is 0 in every row."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    rows[1, 0] = 0.0
    rows[2] = rng.integers(0, 2, size=n) * 2 - 1
    rows[3] = 0.0
    if n > 1:
        rows[:, 1] = 0.0
    return rows


@pytest.mark.parametrize(
    "window, T, P",
    [
        ((0, 12), 2.0, 1.0),  # ramified (1+i), (2), (2+2i) in the window
        ((0, 12), 2.0, 4.5),  # p = -1, 0, 1
        ((4, 6), 3.0, 8.0),  # (2+i) and (1+2i); p = -2, ..., 2
        ((8, 9), 1.0, 1.0),  # one ideal, (3)
    ],
)
def test_eisenstein_sums_match_loop_oracle(window, T, P):
    # every row, bit for bit, as the one-sequence loop sums it over the
    # same entries, zero coefficients included
    lo, hi = window
    ideals = [ideal for ideal in ideals_up_to_norm(hi) if ideal.norm > lo]
    rows = coefficient_rows(len(ideals), seed=len(ideals))
    got = eisenstein_sieve_sums(ideals, rows, T, P, weight_cutoff=5e4)
    assert got.shape == (len(rows),)
    for row, value in zip(rows, got):
        seq = make_sequence(dict(zip(ideals, row)), window)
        want = loop_eisenstein_sieve_sum(seq, T, P, weight_cutoff=5e4)
        assert value == want
        assert value == eisenstein_sieve_sum(seq, T, P, weight_cutoff=5e4)
    assert got[3] == 0.0 and got[0] > 0.0


# ---------------------------------------------------------------------------
# Kuznetsov geometric side
# ---------------------------------------------------------------------------


def test_kuznetsov_diagonal_only():
    tf = TestFunction(1.0, 1.0)
    one = GaussianInt(1, 0)
    res = kuznetsov_geometric(one, one, tf, 0)
    assert res.kloosterman_term == 0j
    assert res.diagonal == pytest.approx(
        plancherel_integral(tf) / (8.0 * math.pi**3), rel=1e-12
    )
    # m = -n also hits the unit-square diagonal
    res2 = kuznetsov_geometric(one, -one, tf, 0)
    assert res2.diagonal == res.diagonal
    # m != +-n does not
    res3 = kuznetsov_geometric(one, GaussianInt(2, 1), tf, 0)
    assert res3.diagonal == 0.0


def test_kuznetsov_symmetry_and_tail():
    # symmetry and the increment-vs-tail inequality are exact properties
    # at any fixed quadrature, so a coarse configuration keeps this fast;
    # the full-resolution sweep lives in the acceptance suite
    tf = TestFunction(1.0, 1.0)
    cfg = QuadratureConfig(gl_order=8, phase_rad_per_panel=16.0)
    m, n = GaussianInt(1, 0), GaussianInt(2, 1)
    a = kuznetsov_geometric(m, n, tf, 20, cfg)
    b = kuznetsov_geometric(n, m, tf, 20, cfg)
    assert abs(a.kloosterman_term - b.kloosterman_term) < 1e-12
    assert a.diagonal == b.diagonal
    assert a.tail_bound == pytest.approx(b.tail_bound, rel=1e-12)

    wider = kuznetsov_geometric(m, n, tf, 40, cfg)
    assert abs(wider.kloosterman_term - a.kloosterman_term) <= a.tail_bound
    assert wider.tail_bound < a.tail_bound


def _divisor_tail_oracle(cut: float) -> float:
    """The tail bound of kuznetsov_geometric with one G(W) lookup per ideal."""
    zf = ZETA_F_32_UPPER
    norms = np.array([ideal.norm for ideal in ideals_up_to_norm(max(cut, 1.0))], float)
    powers = norms**-1.5
    partials = np.cumsum(powers)

    def g_tail(w: float) -> float:
        k = int(np.searchsorted(norms, w, side="right"))
        partial = partials[k - 1] if k else 0.0
        return max(zf - partial, 0.0)

    head = sum(powers[i] * g_tail(cut / norms[i]) for i in range(len(norms)))
    return float(head + g_tail(cut) * zf)


@pytest.mark.parametrize("cut", [0.0, 1.0, 200.0, 1600.0, 1e4])
def test_divisor_tail_equals_the_per_ideal_loop(cut):
    assert spectral._divisor_tail_over_ideals(cut) == _divisor_tail_oracle(cut)


def test_zeta_f_32_upper_is_the_lattice_bound():
    # the literal is the 10^6-norm lattice sum plus its tail bound, bit for
    # bit, and bounds zeta_F(3/2) = zeta(3/2) L(3/2, chi_{-4}) from above
    value, tail = hecke_zeta(1.5, 0, 1_000_000.0)
    assert abs(value) + tail == ZETA_F_32_UPPER
    exact = mpmath.zeta(1.5) * mpmath.dirichlet(1.5, [0, 1, 0, -1])
    assert mpmath.mpf(ZETA_F_32_UPPER) >= exact
    assert ZETA_F_32_UPPER - float(exact) < 1e-4


def test_kuznetsov_memory_bounded():
    # the Bessel integrals of all 2,512 z up to N(c) = 1600 (485,504
    # r-nodes at T = 2) are one batch, walked in blocks of nodes; one
    # unblocked pass would peak near 190 MiB.  No table of a modulus
    # outlives the call: what stays is the small values that residue_box
    # and factor cache and the 20 KiB H batch, 1.9 MiB in a fresh process;
    # a count-bounded cache of unit tables would hold 30 MiB or more here
    tf = TestFunction(2.0, 1.0)
    spectral._kuznetsov_h.cache_clear()
    tracemalloc.start()
    try:
        kuznetsov_geometric(GaussianInt(1, 0), GaussianInt(2, 1), tf, 1600)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < 8 * 2**20
    assert current < 4 * 2**20


def test_kuznetsov_h_batch_is_shared_by_the_product(monkeypatch):
    # the H batch depends on (m, n) only through mn: (m, n), (n, m),
    # (-m, -n) and (im, -in) make one weighted call, and any other tf, cfg
    # or cutoff a new one; every result equals its cold value bit for bit
    calls = []
    weighted = spectral.bessel_integral_weighted

    def counted(z, tf, cfg):
        calls.append(len(z))
        return weighted(z, tf, cfg)

    monkeypatch.setattr(spectral, "bessel_integral_weighted", counted)
    tf, cfg = TestFunction(2.0, 1.0), QuadratureConfig(gl_order=8)
    m, n, i = GaussianInt(1, 0), GaussianInt(2, 1), GaussianInt(0, 1)
    pairs = [(m, n), (n, m), (-m, -n), (i * m, -(i * n))]
    settings = [(tf, 30, cfg), (TestFunction(1.0, 1.0), 30, cfg), (tf, 20, cfg), (tf, 30, QuadratureConfig())]

    def cold(a, b, *args):
        spectral._kuznetsov_h.cache_clear()
        return kuznetsov_geometric(a, b, *args)

    colds = {(pair, k): cold(*pair, *args) for pair in pairs for k, args in enumerate(settings)}
    spectral._kuznetsov_h.cache_clear()
    calls.clear()
    for k, args in enumerate(settings):
        for pair in pairs:
            assert kuznetsov_geometric(*pair, *args) == colds[pair, k]
    assert calls == [2 * len(ideals_up_to_norm(c)) for c in (30, 30, 20, 30)]
    assert spectral._kuznetsov_h.cache_info().hits == 3 * len(settings)
    h = spectral._kuznetsov_h(m * n, tf, 30, cfg)
    assert not h.flags.writeable


def test_kuznetsov_rejects_a_negative_cutoff():
    tf = TestFunction(1.0, 1.0)
    one = GaussianInt(1, 0)
    with pytest.raises(DomainError, match="c_norm_max >= 0"):
        kuznetsov_geometric(one, one, tf, -5)
    assert kuznetsov_geometric(one, one, tf, 0).kloosterman_term == 0j


def test_kuznetsov_rejects_zero_frequency():
    tf = TestFunction(1.0, 1.0)
    with pytest.raises(DomainError):
        kuznetsov_geometric(GaussianInt(0, 0), GaussianInt(1, 0), tf, 10)
