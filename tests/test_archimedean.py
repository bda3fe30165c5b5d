"""Reciprocal gamma, Bessel series, smoothing kernels, and the kernel integrals.

mpmath supplies the independent oracles for gamma and Bessel values and
for the small-argument constant; finite differences supply them for the
kernel second derivatives.  The gamma, Bessel and kernel tests call the
array functions that the spectral representation runs on.  The 2-D
(r, omega) quadrature that the geometric representations replaced by a
1-D r-integral lives here as their oracle, with the periodized angular
kernel theta that it integrates against.  So does the one-z-at-a-time
engine that the batched one replaced: its panel loop and its per-z sum.
"""

import cmath
import dataclasses
import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gisieve.archimedean import (
    DEFAULT_QUADRATURE,
    DomainError,
    QuadratureConfig,
    SeriesRangeError,
    T_EPS,
    TestFunction,
    _bessel_j_table,
    _gl_rule,
    _graded_r_panels,
    _horner_coefficients,
    _kernel_rows,
    _kernel_table,
    _log_gamma,
    _panel_rule,
    _radial_kernel,
    _series_sum,
    _series_terms,
    bessel_integral_deriv,
    bessel_integral_spectral,
    bessel_integral_weighted,
    plancherel_integral,
    plancherel_integral_quadrature,
    small_z_bound_constant,
    with_refinement_error,
)

mpmath.mp.dps = 30

finite = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Reciprocal gamma
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


def _rgamma(z):
    return complex(np.exp(-_log_gamma(np.array([z])))[0])


@pytest.mark.parametrize("z", GAMMA_POINTS)
def test_complex_gamma_against_mpmath(z):
    want = complex(1 / mpmath.gamma(z))
    assert abs(_rgamma(z) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("z", GAMMA_POINTS)
def test_reciprocal_gamma_consistent(z):
    # reflection 1/(Gamma(z) Gamma(1-z)) = sin(pi z)/pi joins the two
    # Lanczos branches (at z = 1 it checks the zero of 1/Gamma at 0)
    both = np.exp(-_log_gamma(np.array([z, 1.0 - z])))
    want = cmath.sin(math.pi * z) / math.pi
    assert abs(both[0] * both[1] - want) <= 1e-12 * max(1.0, abs(want))


@given(st.floats(min_value=0.1, max_value=20.0))
def test_gamma_recurrence(x):
    # 1/Gamma(z) = z/Gamma(z + 1)
    z = complex(x, 0.7)
    assert _rgamma(z) == pytest.approx(z * _rgamma(z + 1), rel=1e-12)


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


def _bessel(mu, z):
    """J_mu(z) for an array of orders, principal branch of (z/2)^mu: the
    normalised series by Horner's rule, times (z/2)^mu / Gamma(mu + 1)."""
    mu = np.asarray(mu, dtype=complex)
    terms = _series_terms(abs(z))
    series = _series_sum(_horner_coefficients(mu, terms), terms, (z / 2.0) ** 2)
    return np.exp(mu * cmath.log(z / 2.0) - _log_gamma(mu + 1)) * series


@pytest.mark.parametrize("mu,z", BESSEL_CASES)
def test_bessel_j_against_mpmath(mu, z):
    want = complex(mpmath.besselj(mpmath.mpc(mu), mpmath.mpc(z)))
    got = complex(_bessel([mu], z)[0])
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("mu,z", BESSEL_CASES)
def test_bessel_recurrence(mu, z):
    # the series has 0/0 terms at negative integer orders -n; there
    # J_{-n} = (-1)^n J_n stands in
    orders = np.array([mu - 1, mu, mu + 1])
    flip = (orders.imag == 0) & (orders.real < 0) & (orders.real == np.round(orders.real))
    signs = np.where(flip, (-1.0) ** np.abs(orders.real), 1.0)
    below, mid, above = signs * _bessel(np.where(flip, -orders, orders), z)
    rhs = 2.0 * mu / z * mid
    assert abs(below + above - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("mu", [-1, -3])
def test_bessel_series_rejects_negative_integer_orders(mu):
    # the series would start from 1/Gamma(mu + 1) = 0 and then divide 0/0
    with pytest.raises(DomainError, match=rf"orders \[{mu}\]"):
        _bessel([0.5 + 1.0j, mu], 1.0 + 0.0j)


def test_bessel_series_range_guard():
    # beyond SERIES_RADIUS the term count is refused before any term is
    # summed; the error is a DomainError that names the radius
    with pytest.raises(SeriesRangeError, match="beyond the Bessel series radius 12"):
        _bessel([0.5j], 2000.0 + 0.0j)
    assert issubclass(SeriesRangeError, DomainError)


def test_series_terms_depend_on_z_alone():
    # the first dropped term (|z|/2)^2K / (K!)^2 is below 1e-18, the last kept one is not
    for z_abs in (1e-3, 0.3, 1.0, 4.0, 12.0):
        k = _series_terms(z_abs)
        w = (z_abs / 2.0) ** 2
        assert w**k / math.factorial(k) ** 2 < 1e-18 <= w ** (k - 1) / math.factorial(k - 1) ** 2


# ---------------------------------------------------------------------------
# The spectral kernel
# ---------------------------------------------------------------------------


def _bessel_kernel_grid(t, p, z):
    """Kernel values at the 1-D array t from one table, for an integer p
    (one value per t) or for a 1-D array of integers p (one row per p)."""
    rows = np.atleast_1d(p)
    top = int(np.max(np.abs(rows)))
    terms = _series_terms(abs(z))
    kernel = _kernel_rows(_kernel_table(np.asarray(t, dtype=float), top, terms), z, terms)
    kernel = kernel[rows + top]
    return kernel if np.ndim(p) else kernel[0]


def _kernel(t, p, z):
    # the t = 0 node is nudged to T_EPS, as bessel_integral_spectral does
    t = np.array([T_EPS if abs(t) < T_EPS else t])
    return float(_bessel_kernel_grid(t, p, z)[0])


def _kernel_mpmath(t, p, z):
    """-4 pi^2 Im(J_{it+p}(z) J_{it-p}(zbar)) / sinh(pi t) at 30 digits."""
    zz = mpmath.mpc(z.real, z.imag)
    first = mpmath.besselj(mpmath.mpc(p, t), zz)
    second = mpmath.besselj(mpmath.mpc(-p, t), mpmath.conj(zz))
    return float(-4 * mpmath.pi**2 * mpmath.im(first * second) / mpmath.sinh(mpmath.pi * t))


@pytest.mark.parametrize("z", [0.3 + 0.1j, 1.0 + 1.0j, 2.0 - 1.0j, 4.0 + 0.0j])
def test_kernel_against_mpmath(z):
    # the table's front factor, its two Horner sums (the second on the
    # reversed rows) and K from |z| against mpmath's J of complex order;
    # with K three terms short every case fails
    t = np.array([0.05, 0.4, 1.3, 3.0, 5.9])
    ps = np.arange(-5, 6)
    got = _bessel_kernel_grid(t, ps, z)
    want = np.array([[_kernel_mpmath(float(tt), int(p), z) for tt in t] for p in ps])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("t,p", [(0.6, 0), (1.3, 2), (0.0, 1), (2.0, -3)])
def test_kernel_even_in_z(t, p):
    # at the nudged node the 1/(p - i T_EPS) of the front factor amplifies
    # rounding, so the tolerance is looser than machine eps
    for z in (0.8 + 0.3j, 1.5 - 0.9j):
        assert _kernel(t, p, z) == pytest.approx(_kernel(t, p, -z), abs=1e-9)


def test_kernel_symmetries():
    # the joint flip (t, p) -> (-t, -p) and the pairing of a p-flip with
    # conjugation of z are exact; a p-flip alone needs real z
    z = 1.1 + 0.4j
    v = _kernel(0.9, 2, z)
    assert _kernel(-0.9, -2, z) == pytest.approx(v, abs=1e-12)
    assert _kernel(0.9, -2, z.conjugate()) == pytest.approx(v, abs=1e-12)
    vr = _kernel(0.9, 2, 1.3 + 0.0j)
    assert _kernel(0.9, -2, 1.3 + 0.0j) == pytest.approx(vr, abs=1e-12)


@pytest.mark.parametrize(
    "z", [1.1 + 0.4j, 0.5 - 0.3j, 0.3 + 0.0j, 2.0 - 1.0j, 8.0 + 3.0j, 11.0 + 1.0j, 12.0j]
)
def test_batched_kernel_equals_per_p_kernel(z):
    # the rows of one batched call, p = -4..4, against one call per p; the
    # batched second factor is the first's order array read backwards.
    # The term count depends on |z| alone and every entry is summed on its
    # own, so the two agree bit for bit
    t, _ = _panel_rule(T_EPS, 6.0, 3, 16)
    ps = np.arange(-4, 5)
    batch = _bessel_kernel_grid(t, ps, z)
    assert batch.shape == (ps.size, t.size)
    for p, row in zip(ps, batch):
        assert np.array_equal(row, _bessel_kernel_grid(t, int(p), z))
        assert np.array_equal(row[2:5], _bessel_kernel_grid(t[2:5], ps, z)[p + 4])


def test_spectral_batch_equals_scalar_calls():
    # z of different t-rules and term counts in one call, against one call each
    tf = TestFunction(2.0, 2.0)
    zs = np.array([[0.3, 1.0 + 1.0j, 2.0 - 1.0j], [4.0, 8.0 + 3.0j, 0.05j]])
    batch = bessel_integral_spectral(zs, tf)
    assert batch.shape == zs.shape
    assert np.array_equal(batch, np.vectorize(lambda z: bessel_integral_spectral(z, tf))(zs))


@pytest.mark.parametrize("z", [8.0 + 3.0j, 11.0 + 1.0j])
def test_spectral_form_against_weighted_at_large_z(z):
    # near the series radius; one series call per factor over all p
    # converges every row as far as the slowest one
    tf = TestFunction(1.0, 1.0)
    want = bessel_integral_weighted(z, tf)
    assert abs(bessel_integral_spectral(z, tf) - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("t_panels", [23, 24])
def test_spectral_form_on_half_the_panels(t_panels):
    # [0, t_max] on ceil(t_panels / 2) panels: an odd count takes the
    # panels of the next even one
    tf, z = TestFunction(1.0, 1.0), 0.7 + 0.4j
    cfg = dataclasses.replace(DEFAULT_QUADRATURE, t_panels=t_panels)
    got = bessel_integral_spectral(z, tf, cfg)
    if t_panels % 2:
        even = dataclasses.replace(cfg, t_panels=t_panels + 1)
        assert got == bessel_integral_spectral(z, tf, even)
    assert got == pytest.approx(bessel_integral_weighted(z, tf), rel=1e-11)


@pytest.mark.parametrize("P", [26, 27, 30, 40])
def test_spectral_form_at_large_orders(P, recwarn):
    # at z = 1+i, T = 1, 1/Gamma(it + p + 1) overflows from |p| = 157 = 6 * 26
    # + 1; the kernel takes the product of the two 1/Gammas as a ratio of
    # modulus 1/|p - it|, which stays finite at every order
    tf, z = TestFunction(1.0, float(P)), 1.0 + 1.0j
    want = bessel_integral_weighted(z, tf)
    assert abs(bessel_integral_spectral(z, tf) - want) <= 1e-10 * abs(want)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("T", [45, 60])
def test_spectral_form_at_large_t(T, recwarn):
    # t runs to 6T = 270 and 360, where 1/Gamma(1 + it) and sinh(pi t)
    # overflow separately; the t-rule follows the phase of 1/Gamma(1 + it)
    tf, z = TestFunction(float(T), 1.0), 1.0 + 1.0j
    want = bessel_integral_weighted(z, tf)
    assert abs(bessel_integral_spectral(z, tf) - want) <= 1e-10 * abs(want)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_spectral_form_rejects_an_oversized_table():
    # P = 1000 asks for 12,001 orders on each block of 64 t-nodes
    with pytest.raises(DomainError, match=r"12001 orders \|p\| <= 6000 x 64 t-nodes"):
        bessel_integral_spectral(1.0 + 1.0j, TestFunction(1.0, 1000.0))


def test_kernel_guards():
    tf = TestFunction(1.0, 1.0)
    with pytest.raises(DomainError):
        bessel_integral_spectral(0.0, tf)
    with pytest.raises(SeriesRangeError):
        bessel_integral_spectral(20.0 + 0.0j, tf)


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
    k, k_dd = _radial_kernel(tf, r)
    fd_k = (_radial_kernel(tf, r + h)[0] - 2.0 * k + _radial_kernel(tf, r - h)[0]) / h**2
    assert np.allclose(fd_k, k_dd, rtol=1e-5, atol=1e-5)
    theta, theta_dd = _theta(tf, w)
    fd_t = (_theta(tf, w + h)[0] - 2.0 * theta + _theta(tf, w - h)[0]) / h**2
    assert np.allclose(fd_t, theta_dd, rtol=1e-5, atol=1e-5)


def test_theta_is_pi_periodic():
    tf = TestFunction(1.0, 1.0)
    w = np.linspace(-1.5, 1.5, 7)
    assert np.allclose(_theta(tf, w)[0], _theta(tf, w + math.pi)[0], rtol=1e-10)


# ---------------------------------------------------------------------------
# Quadrature configuration
# ---------------------------------------------------------------------------


def test_quadrature_round_trip(tmp_path):
    cfg = DEFAULT_QUADRATURE.refined()
    path = tmp_path / "quad.txt"
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in dataclasses.asdict(cfg).items()))
    assert QuadratureConfig.from_file(path) == cfg


def test_quadrature_refined_increases_resolution():
    cfg = DEFAULT_QUADRATURE
    fine = cfg.refined()
    assert fine.t_panels > cfg.t_panels
    assert fine != cfg


@functools.cache
def _quadrature_probes(cfg):
    """Every integral that reads the config, at T = P = 1 and z = 0.5+0.25i."""
    tf, z = TestFunction(1.0, 1.0), 0.5 + 0.25j
    return (
        plancherel_integral_quadrature(tf, cfg),
        bessel_integral_spectral(z, tf, cfg),
        bessel_integral_weighted(z, tf, cfg),
        bessel_integral_deriv(z, tf, cfg),
    )


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(QuadratureConfig)])
def test_every_quadrature_field_acts(name):
    # halving or doubling the field (where the result stays positive)
    # changes at least one probe, bit for bit
    value = getattr(DEFAULT_QUADRATURE, name)
    moved = (type(value)(value * factor) for factor in (0.5, 2.0))
    assert any(
        _quadrature_probes(dataclasses.replace(DEFAULT_QUADRATURE, **{name: new}))
        != _quadrature_probes(DEFAULT_QUADRATURE)
        for new in moved
        if new > 0
    )


def test_quadrature_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(t_panels=0)
    with pytest.raises(DomainError):
        QuadratureConfig(t_cut=-1.0)


@pytest.mark.parametrize("field", ["t_cut", "r_cut", "phase_rad_per_panel"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_quadrature_rejects_non_finite(field, value):
    with pytest.raises(DomainError, match=field):
        QuadratureConfig(**{field: value})


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


@pytest.mark.parametrize("T,P", [(0.5, 1.0), (1.0, 1.0), (2.0, 2.0)])
def test_spectral_form_near_the_series_radius_off_the_real_axis(T, P):
    # both factors J_{it+-p}(z) grow like I_p(|Im z|) while the kernel is
    # O(1), so near |z| = 12 off the real axis the spectral form loses
    # digits to cancellation (1.5e-7 relative at 12i, T = P = 1); it stays
    # inside the ~1e-6 agreement documented for the three representations
    tf = TestFunction(T, P)
    z = np.array([12j, 11.9j, 6.0 + 10.0j])
    want = bessel_integral_weighted(z, tf)
    got = bessel_integral_spectral(z, tf)
    assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want))


@pytest.mark.parametrize(
    "form", [bessel_integral_weighted, bessel_integral_deriv, bessel_integral_spectral]
)
@pytest.mark.parametrize(
    "z",
    [complex(math.nan, 0.0), complex(math.inf, 0.0), complex(-math.inf, 0.0), complex(1.0, math.nan)],
)
def test_geometric_forms_reject_a_non_finite_z(form, z):
    # all three forms, the spectral one too: a non-finite z is named as
    # such, not as a point beyond the series radius
    with pytest.raises(DomainError, match="finite z"):
        form(z, TestFunction(1.0, 1.0))
    with pytest.raises(DomainError, match="finite z"):
        form(np.array([1.0 + 1.0j, z]), TestFunction(1.0, 1.0))


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


@functools.lru_cache(maxsize=None)
def _radial_moments(T):
    """(int k, int sinh^2 r k) over the line, k(r) = sqrt(pi) T exp(-(Tr)^2)."""
    T = mpmath.mpf(T)

    def k(r):
        return mpmath.sqrt(mpmath.pi) * T * mpmath.exp(-((T * r) ** 2))

    # sinh^2 r k(r) peaks near r = 1/T^2; split the line there
    peak = 1 / T**2
    line = [-mpmath.inf, -peak, 0, peak, mpmath.inf]
    return mpmath.quad(k, line), mpmath.quad(lambda r: mpmath.sinh(r) ** 2 * k(r), line)


@functools.lru_cache(maxsize=None)
def _angular_moments(P):
    """(int theta, int sin^2 w theta) over one period of the periodized
    Gaussian theta(w) = sum_q sqrt(pi) P exp(-(P(w + pi q))^2)."""
    P = mpmath.mpf(P)
    pi = mpmath.pi

    def theta(w):
        return sum(
            mpmath.sqrt(pi) * P * mpmath.exp(-((P * (w + pi * q)) ** 2)) for q in range(-12, 13)
        )

    period = [-pi / 2, 0, pi / 2]
    return mpmath.quad(theta, period), mpmath.quad(lambda w: mpmath.sin(w) ** 2 * theta(w), period)


@pytest.mark.parametrize("P", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("T", [0.5, 1.0, 2.0, 4.0])
def test_small_z_constant_against_mpmath(T, P):
    # B = 4 iint (sinh^2 r + sin^2 w) k(r) theta(w) dr dw, term by term
    k_mass, k_sinh2 = _radial_moments(T)
    theta_mass, theta_sin2 = _angular_moments(P)
    want = float(4 * (k_sinh2 * theta_mass + k_mass * theta_sin2))
    assert small_z_bound_constant(TestFunction(T, P)) == pytest.approx(want, rel=1e-12)


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


# ---------------------------------------------------------------------------
# Bessel J of integer order, and the 2-D oracle of the geometric forms
# ---------------------------------------------------------------------------


#: Both sides of the Miller/Hankel switch at max(40, n + 10), for n = 4
#: (switch 40) and n = 60 (switch 70), and arguments up to 8000.
J_ARGS = [0.0, 1e-9, 1e-3, 0.37, 2.0, 9.9, 31.4, 39.999, 40.0, 40.001, 55.5,
          69.999, 70.0, 70.001, 123.4, 987.6, 4321.0, 8000.0]


@pytest.mark.parametrize("n", [0, 1, 4, 60])
def test_bessel_j_table_against_mpmath(n):
    got = _bessel_j_table(n, np.array(J_ARGS))
    want = np.array([[float(mpmath.besselj(k, x)) for x in J_ARGS] for k in range(n + 1)])
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13


_OMEGA_CHUNK = 1 << 22  # cap grid cells per block to bound memory
#: Periodization cut |q| <= 3 of theta, and the fewest omega panels per cell.
_THETA_Q_CUT = 3
_OMEGA_BASE_PANELS = 4


def _theta(tf, omega):
    """theta(w) = sqrt(pi) P sum_{|q| <= 3} exp(-(P(w + pi q))^2) and theta''(w),
    the periodized Gaussian in omega, which integrates to pi over a period."""
    P = tf.P
    omega = np.asarray(omega, dtype=float)
    theta = np.zeros_like(omega)
    theta_dd = np.zeros_like(omega)
    for q in range(-_THETA_Q_CUT, _THETA_Q_CUT + 1):
        x = P * (omega + math.pi * q)
        g = math.sqrt(math.pi) * P * np.exp(-(x**2))
        theta += g
        theta_dd += g * (4.0 * P**2 * x**2 - 2.0 * P**2)
    return theta, theta_dd


def _graded_cells_2d(z_abs, tf, cfg):
    """[0, r_cut/T] in half-unit cells (a, b, n_r_panels, n_omega_panels),
    panel counts proportional to the phase rate 2|z| cosh(b) in either
    direction."""
    r_max = cfg.r_cut / tf.T
    cell_w = 0.5 / tf.T
    budget = cfg.phase_rad_per_panel
    for j in range(max(1, int(math.ceil(r_max / cell_w)))):
        a, b = j * cell_w, min((j + 1) * cell_w, r_max)
        if b <= a:
            continue
        rate = 2.0 * z_abs * math.cosh(b) + 1.0
        n_r = max(cfg.r_base_panels, int(math.ceil((b - a) * rate / budget)))
        n_w = max(_OMEGA_BASE_PANELS, int(math.ceil(math.pi * rate / budget)))
        yield a, b, n_r, n_w


def _geometric_integral_2d(z, tf, cfg, weighted):
    """The geometric forms by 2-D quadrature over (r, omega).

    weighted=True : |2z|^2 iint cos(2 Re(z tr)) (sinh^2 r + sin^2 w) k theta
    weighted=False:      - iint cos(2 Re(z tr)) (k'' theta + k theta'')
    with omega over [-pi/2, pi/2) on graded Gauss-Legendre panels and both
    signs of r integrated explicitly, cell by cell.
    """
    z = complex(z)
    x, y = z.real, z.imag
    total = 0.0
    for a, b, n_r, n_w in _graded_cells_2d(abs(z), tf, cfg):
        w_nodes, w_wts = _panel_rule(-math.pi / 2.0, math.pi / 2.0, n_w, cfg.gl_order)
        theta, theta_dd = _theta(tf, w_nodes)
        cos_w, sin_w = np.cos(w_nodes), np.sin(w_nodes)
        for lo, hi in ((a, b), (-b, -a)):
            r_nodes, r_wts = _panel_rule(lo, hi, n_r, cfg.gl_order)
            k, k_dd = _radial_kernel(tf, r_nodes)
            cosh_r, sinh_r = np.cosh(r_nodes), np.sinh(r_nodes)
            # phase(r, w) = 2 Re(z cosh(r + iw)) = 2(x cosh r cos w - y sinh r sin w)
            n_block = max(1, _OMEGA_CHUNK // max(1, r_nodes.size))
            for s in range(0, w_nodes.size, n_block):
                sl = slice(s, s + n_block)
                phase = 2.0 * (
                    np.multiply.outer(x * cosh_r, cos_w[sl])
                    - np.multiply.outer(y * sinh_r, sin_w[sl])
                )
                integrand = np.cos(phase)
                if weighted:
                    integrand *= (
                        sinh_r[:, None] ** 2 + sin_w[None, sl] ** 2
                    ) * np.multiply.outer(k, theta[sl])
                else:
                    integrand *= np.multiply.outer(k_dd, theta[sl]) + np.multiply.outer(
                        k, theta_dd[sl]
                    )
                total += float(r_wts @ integrand @ w_wts[sl])
    if weighted:
        return 4.0 * abs(z) ** 2 * total
    return -total


GEOMETRIC_FORMS = {"weighted": bessel_integral_weighted, "deriv": bessel_integral_deriv}


@pytest.mark.parametrize("form", sorted(GEOMETRIC_FORMS))
@settings(max_examples=12)
@given(
    zabs=st.floats(min_value=0.1, max_value=4.0),
    argz=st.floats(min_value=-math.pi, max_value=math.pi),
    T=st.floats(min_value=1.0, max_value=4.0),
    P=st.floats(min_value=0.5, max_value=4.0),
)
@example(zabs=9.4, argz=0.3, T=1.0, P=1.0)
@example(zabs=9.4, argz=-2.0, T=3.0, P=4.0)
def test_geometric_forms_against_2d_oracle(form, zabs, argz, T, P):
    z = zabs * cmath.exp(1j * argz)
    tf = TestFunction(T, P)
    want = _geometric_integral_2d(z, tf, DEFAULT_QUADRATURE, weighted=form == "weighted")
    assert GEOMETRIC_FORMS[form](z, tf) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("form", sorted(GEOMETRIC_FORMS))
@pytest.mark.parametrize("z", [0.3 + 0.0j, 1.0 + 1.0j, -2.5j, 4.0 + 0.0j])
def test_geometric_forms_against_spectral_at_small_t(form, z):
    # at T = 0.5 the r-range doubles to 12 and the 2-D oracle's
    # omega-grid outgrows memory; the spectral form is the reference
    tf = TestFunction(0.5, 1.5)
    want = bessel_integral_spectral(z, tf)
    assert GEOMETRIC_FORMS[form](z, tf) == pytest.approx(want, rel=1e-10)


def test_geometric_forms_bounded_memory():
    # r-nodes go through the Bessel table in blocks; one unblocked pass
    # over the ~500k nodes at T = 0.5 peaks near 200 MiB
    tf = TestFunction(0.5, 1.0)
    tracemalloc.start()
    try:
        bessel_integral_weighted(1.0 + 0.0j, tf)
        bessel_integral_deriv(1.0 + 0.0j, tf)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# The batched engine against the one-z-at-a-time engine
# ---------------------------------------------------------------------------


def _graded_r_panels_oracle(z_abs, tf, cfg):
    """Midpoints and half-widths of one z's panels, cell by cell with
    np.linspace, as the engine built them before it took arrays of z."""
    r_max = cfg.r_cut / tf.T
    cell_w = 0.5 / tf.T
    n_cells = max(1, int(math.ceil(r_max / cell_w)))
    mids, halves = [], []
    for j in range(n_cells):
        a = j * cell_w
        b = min((j + 1) * cell_w, r_max)
        if b <= a:
            continue
        rate = 2.0 * z_abs * math.cosh(b) + 1.0
        n_r = max(cfg.r_base_panels, int(math.ceil((b - a) * rate / cfg.phase_rad_per_panel)))
        edges = np.linspace(a, b, n_r + 1)
        mids.append((edges[:-1] + edges[1:]) / 2.0)
        halves.append((edges[1:] - edges[:-1]) / 2.0)
    return np.concatenate(mids), np.concatenate(halves)


def _geometric_integral_oracle(z, tf, cfg, weighted):
    """One z's geometric form on its own panels, in blocks of 8192 nodes,
    each block summed by one dot product."""
    z = complex(z)
    x, y = z.real, z.imag
    k_max = int(6.5 * tf.P + 2)
    k = np.arange(k_max + 1)
    a_wide = np.exp(-((np.arange(-1, k_max + 2) / tf.P) ** 2))
    a = a_wide[1:-1]
    second = a / 2.0 - (a_wide[:-2] + a_wide[2:]) / 4.0 if weighted else -4.0 * k * k * a
    coeffs = np.where(k == 0, 1.0, 2.0) * (-1.0) ** k * np.stack((a, second))
    gl_x, gl_w = _gl_rule(cfg.gl_order)
    mid, half = _graded_r_panels_oracle(abs(z), tf, cfg)
    step = max(1, 8192 // cfg.gl_order)
    total = 0.0
    for s in range(0, mid.size, step):
        r = (mid[s : s + step, None] + half[s : s + step, None] * gl_x).ravel()
        wts = (half[s : s + step, None] * gl_w).ravel()
        sinh_r = np.sinh(r)
        u, v = x * np.cosh(r), y * sinh_r
        bessel = _bessel_j_table(2 * k_max, 2.0 * np.hypot(u, v))[::2]
        bessel *= np.cos(np.multiply.outer(2.0 * k, np.arctan2(v, u)))
        with_a, with_second = coeffs @ bessel
        k_r, k_r_dd = _radial_kernel(tf, r)
        if weighted:
            inner = k_r * (sinh_r**2 * with_a + with_second)
        else:
            inner = k_r_dd * with_a + k_r * with_second
        total += float(wts @ inner)
    total *= 2.0 * math.pi
    return 4.0 * abs(z) ** 2 * total if weighted else -total


#: (T, P, z): one batch of small z at T = 2, several to a block; one at
#: T = 0.5, where each z runs through many blocks and its panels cross
#: block edges.  Each holds a duplicate and z on both axes.
BATCHES = {
    "T2": (2.0, 1.0, [0.05, 9.4j, 0.3 + 0.1j, -2.5j, 0.3 + 0.1j, 4.0, -1.7 + 2.2j,
                      *(9.4 / (a + 1j * b) for a in range(1, 7) for b in range(-6, 7))]),
    "T0.5": (0.5, 1.5, [0.05j, 0.3, -0.3, 0.3, 0.2 - 0.1j]),
}


@pytest.mark.parametrize("T", [0.5, 0.7, 1.0, 2.0, 3.7])
def test_batched_panels_equal_per_z_oracle(T):
    # bit for bit, z by z, also with a partial last cell (T = 3.7) and
    # cells whose last edge a + n (b - a)/n rounds away from b (T = 0.7
    # with 5 panels a cell)
    tf = TestFunction(T, 1.0)
    z_abs = np.array([0.0, 0.05, 0.3, 0.3, 1.0, 2.5, 9.4])
    for cfg in (DEFAULT_QUADRATURE, DEFAULT_QUADRATURE.refined(), QuadratureConfig(r_base_panels=5)):
        blocks = list(_graded_r_panels(z_abs, tf, cfg, 37))
        assert all(own.size == 37 for _, _, own in blocks[:-1])
        mid, half, owner = map(np.concatenate, zip(*blocks))
        assert np.array_equal(owner, np.sort(owner))
        for i, za in enumerate(z_abs):
            want_mid, want_half = _graded_r_panels_oracle(float(za), tf, cfg)
            assert np.array_equal(mid[owner == i], want_mid)
            assert np.array_equal(half[owner == i], want_half)


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("form", sorted(GEOMETRIC_FORMS))
def test_batched_forms_against_per_z_oracle(form, batch):
    T, P, zs = BATCHES[batch]
    tf = TestFunction(T, P)
    z = np.array(zs)
    got = GEOMETRIC_FORMS[form](z, tf)
    blocks = _graded_r_panels(np.abs(z), tf, DEFAULT_QUADRATURE, 2048 // DEFAULT_QUADRATURE.gl_order)
    assert len(list(blocks)) > 4
    assert got.shape == z.shape
    for zi, value in zip(zs, got):
        want = _geometric_integral_oracle(zi, tf, DEFAULT_QUADRATURE, weighted=form == "weighted")
        assert abs(value - want) <= 1e-13 * abs(want), zi


@pytest.mark.parametrize("form", sorted(GEOMETRIC_FORMS))
def test_one_element_batch_equals_scalar_call(form):
    fn = GEOMETRIC_FORMS[form]
    for T, P, zs in BATCHES.values():
        tf = TestFunction(T, P)
        for zi in zs[:4]:
            scalar = fn(zi, tf)
            assert type(scalar) is float
            assert fn(np.array([zi]), tf)[0] == scalar
