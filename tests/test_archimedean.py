"""Gamma, Bessel series, smoothing kernels, and the kernel integrals.

mpmath supplies the independent oracles for gamma and Bessel values;
finite differences supply them for the kernel second derivatives.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gisieve.archimedean import (
    DEFAULT_QUADRATURE,
    DomainError,
    QuadratureConfig,
    SeriesRangeError,
    SpectralPoint,
    T_EPS,
    TestFunction,
    bessel_integral_deriv,
    bessel_integral_spectral,
    bessel_integral_weighted,
    bessel_j,
    bessel_kernel,
    complex_gamma,
    kernels,
    plancherel_integral,
    plancherel_integral_quadrature,
    reciprocal_gamma,
    small_z_bound_constant,
    with_refinement_error,
)

mpmath.mp.dps = 30

finite = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

GAMMA_POINTS = [
    0.5 + 0.0j,
    1.0 + 0.0j,
    3.7 + 0.0j,
    0.5 + 14.1j,
    -2.3 + 1.9j,
    -5.5 - 3.25j,
    2.0 - 7.0j,
    1e-3 + 1e-3j,
]


@pytest.mark.parametrize("z", GAMMA_POINTS)
def test_complex_gamma_against_mpmath(z):
    want = complex(mpmath.gamma(z))
    got = complex_gamma(z)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("z", GAMMA_POINTS)
def test_reciprocal_gamma_consistent(z):
    assert reciprocal_gamma(z) * complex_gamma(z) == pytest.approx(1.0, abs=1e-12)


def test_reciprocal_gamma_at_poles():
    for n in range(0, 6):
        assert reciprocal_gamma(complex(-n, 0.0)) == 0j


@given(st.floats(min_value=0.1, max_value=20.0))
def test_gamma_recurrence(x):
    z = complex(x, 0.7)
    assert complex_gamma(z + 1) == pytest.approx(z * complex_gamma(z), rel=1e-12)


# ---------------------------------------------------------------------------
# Bessel J with complex order
# ---------------------------------------------------------------------------

BESSEL_CASES = [
    (0.0 + 0.0j, 1.0 + 0.0j),
    (1.0 + 0.0j, 2.5 + 0.0j),
    (0.0 + 2.0j, 1.0 + 0.0j),
    (3.0 + 1.5j, 0.7 + 0.3j),
    (-2.0 + 0.4j, 4.0 - 1.0j),
    (0.0 + 6.0j, 9.0 + 0.0j),
    (5.0 - 2.0j, 0.05 + 0.0j),
]


@pytest.mark.parametrize("mu,z", BESSEL_CASES)
def test_bessel_j_against_mpmath(mu, z):
    want = complex(mpmath.besselj(mpmath.mpc(mu), mpmath.mpc(z)))
    got = bessel_j(mu, z)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("mu,z", BESSEL_CASES)
def test_bessel_recurrence(mu, z):
    if z == 0:
        return
    lhs = bessel_j(mu - 1, z) + bessel_j(mu + 1, z)
    rhs = 2.0 * mu / z * bessel_j(mu, z)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_bessel_series_range_guard():
    with pytest.raises(SeriesRangeError):
        bessel_j(1.0 + 0.0j, 13.0 + 0.0j)


# ---------------------------------------------------------------------------
# The spectral kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t,p", [(0.6, 0), (1.3, 2), (0.0, 1), (2.0, -3)])
def test_kernel_even_in_z(t, p):
    # near t = 0 the removable-singularity averaging amplifies rounding
    # by 1/sinh(pi T_EPS), so the tolerance is looser than machine eps
    pt = SpectralPoint(t, p)
    for z in (0.8 + 0.3j, 1.5 - 0.9j):
        assert bessel_kernel(pt, z) == pytest.approx(bessel_kernel(pt, -z), abs=1e-9)


def test_kernel_symmetries():
    # the joint flip (t, p) -> (-t, -p) and the pairing of a p-flip with
    # conjugation of z are exact; a p-flip alone needs real z
    z = 1.1 + 0.4j
    v = bessel_kernel(SpectralPoint(0.9, 2), z)
    assert bessel_kernel(SpectralPoint(-0.9, -2), z) == pytest.approx(v, abs=1e-12)
    assert bessel_kernel(SpectralPoint(0.9, -2), z.conjugate()) == pytest.approx(
        v, abs=1e-12
    )
    vr = bessel_kernel(SpectralPoint(0.9, 2), 1.3 + 0.0j)
    assert bessel_kernel(SpectralPoint(0.9, -2), 1.3 + 0.0j) == pytest.approx(
        vr, abs=1e-12
    )


def test_kernel_continuous_at_origin():
    # the t = 0 value is the removable-singularity limit: it matches the
    # symmetric average just outside the nudge window to second order
    z = 0.7 + 0.2j
    inside = bessel_kernel(SpectralPoint(0.0, 1), z)
    outside = 0.5 * (
        bessel_kernel(SpectralPoint(2.0 * T_EPS, 1), z)
        + bessel_kernel(SpectralPoint(-2.0 * T_EPS, 1), z)
    )
    assert inside == pytest.approx(outside, abs=1e-6)


def test_kernel_guards():
    with pytest.raises(DomainError):
        bessel_kernel(SpectralPoint(1.0, 0), 0.0)
    with pytest.raises(SeriesRangeError):
        bessel_kernel(SpectralPoint(1.0, 0), 20.0 + 0.0j)


def test_kernel_value_is_real_float():
    assert isinstance(bessel_kernel(SpectralPoint(0.5, 1), 1.0 + 1.0j), float)


# ---------------------------------------------------------------------------
# Test function and geometric kernels
# ---------------------------------------------------------------------------


def test_test_function_validation():
    with pytest.raises(DomainError):
        TestFunction(0.0, 1.0)
    with pytest.raises(DomainError):
        TestFunction(1.0, -2.0)
    tf = TestFunction(2.0, 3.0)
    assert tf.h(0.0, 0) == pytest.approx(1.0)
    assert tf.h(2.0, 3) == pytest.approx(math.exp(-2.0))


def test_kernel_second_derivatives_by_finite_differences():
    tf = TestFunction(1.3, 0.8)
    h = 1e-4
    r = np.array([0.0, 0.35, -1.2, 2.0])
    w = np.array([0.0, 0.4, -1.1])
    base = kernels(tf, r, w)
    up_r = kernels(tf, r + h, w)
    dn_r = kernels(tf, r - h, w)
    fd_k = (up_r.k - 2.0 * base.k + dn_r.k) / h**2
    assert np.allclose(fd_k, base.k_dd, rtol=1e-5, atol=1e-5)
    up_w = kernels(tf, r, w + h)
    dn_w = kernels(tf, r, w - h)
    fd_t = (up_w.theta - 2.0 * base.theta + dn_w.theta) / h**2
    assert np.allclose(fd_t, base.theta_dd, rtol=1e-5, atol=1e-5)


def test_theta_is_pi_periodic():
    tf = TestFunction(1.0, 1.0)
    w = np.linspace(-1.5, 1.5, 7)
    a = kernels(tf, 0.0, w)
    b = kernels(tf, 0.0, w + math.pi)
    assert np.allclose(a.theta, b.theta, rtol=1e-10)


# ---------------------------------------------------------------------------
# Quadrature configuration
# ---------------------------------------------------------------------------


def test_quadrature_round_trip(tmp_path):
    cfg = DEFAULT_QUADRATURE.refined()
    path = tmp_path / "quad.json"
    cfg.to_file(path)
    assert QuadratureConfig.from_file(path) == cfg


def test_quadrature_refined_increases_resolution():
    cfg = DEFAULT_QUADRATURE
    fine = cfg.refined()
    assert fine.t_panels > cfg.t_panels
    assert fine != cfg


def test_quadrature_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(t_panels=0)
    with pytest.raises(DomainError):
        QuadratureConfig(t_cut=-1.0)


# ---------------------------------------------------------------------------
# Plancherel mass
# ---------------------------------------------------------------------------


def _plancherel_oracle(T, P):
    # independent summation of sqrt(pi) T sum_p exp(-(p/P)^2)(T^2/2 + p^2)
    total = mpmath.mpf(T) ** 2 / 2
    for p in range(1, 200):
        total += 2 * mpmath.exp(-((mpmath.mpf(p) / P) ** 2)) * (
            mpmath.mpf(T) ** 2 / 2 + p * p
        )
    return float(mpmath.sqrt(mpmath.pi) * T * total)


@pytest.mark.parametrize("T,P", [(1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (0.7, 2.2)])
def test_plancherel_closed_form(T, P):
    tf = TestFunction(T, P)
    want = _plancherel_oracle(T, P)
    assert plancherel_integral(tf) == pytest.approx(want, rel=1e-12)
    assert plancherel_integral_quadrature(tf) == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# The three kernel-integral representations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("z", [1.0 + 0.0j, 0.5 + 0.5j, 2.0 - 1.0j])
def test_three_representations_agree(z):
    tf = TestFunction(1.0, 1.0)
    a = bessel_integral_spectral(z, tf)
    b = bessel_integral_deriv(z, tf)
    c = bessel_integral_weighted(z, tf)
    scale = max(abs(a), abs(b), abs(c))
    assert abs(a - b) <= 1e-8 * scale
    assert abs(a - c) <= 1e-8 * scale


def test_integral_even_in_z():
    tf = TestFunction(1.0, 1.0)
    z = 1.2 + 0.7j
    assert bessel_integral_spectral(z, tf) == pytest.approx(
        bessel_integral_spectral(-z, tf), rel=1e-12
    )


def test_small_z_quadratic_bound():
    tf = TestFunction(1.0, 1.0)
    bound = small_z_bound_constant(tf)
    assert bound > 0.0
    for z in (0.01 + 0.0j, 0.001 + 0.0005j):
        assert abs(bessel_integral_spectral(z, tf)) <= bound * abs(z) ** 2


def test_small_z_ratio_stable():
    tf = TestFunction(1.0, 1.0)
    ratios = [
        abs(bessel_integral_spectral(z, tf)) / abs(z) ** 2
        for z in (1e-1, 1e-2, 1e-3)
    ]
    spread = (max(ratios) - min(ratios)) / max(ratios)
    assert spread < 0.1


def test_with_refinement_error():
    tf = TestFunction(1.0, 1.0)
    value, err = with_refinement_error(
        lambda cfg: plancherel_integral_quadrature(tf, cfg)
    )
    assert value == pytest.approx(plancherel_integral(tf), rel=1e-10)
    assert err < 1e-10
