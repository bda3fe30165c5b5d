"""Archimedean side: the Bessel kernel and the smoothing integrals.

Everything here is plain double-precision numerics.  The Bessel function of
complex order is evaluated by its power series only (|z| <= 12), for a
whole array of orders at once; the two "geometric" representations of the
kernel integral cover every large-|z| need, so no asymptotic expansions are
required.

The kernel integral of a test function exp(-(t/T)^2 - (p/P)^2) is computed
three independent ways:

  * spectral_  : integrate the Bessel kernel against the test function over
                 the spectral plane (line integral in t, sum over p).  The
                 integrand is even under (t, p) -> (-t, -p), so t runs over
                 [0, t_cut T] on half the panels, doubled; all p are one
                 order array, and J_{it+p}(z), J_{it-p}(zbar) are two series
                 calls sharing one 1/Gamma, the second read backwards;
  * deriv_     : integrate cos(2 Re(z tr)) against second derivatives of the
                 Gaussian smoothing kernels over (r, omega);
  * weighted_  : same, with the derivatives moved onto the cosine, leaving
                 the weight (sinh^2 r + sin^2 omega) and a |2z|^2 prefactor.

The three agree to ~1e-6 relative; the weighted form makes the quadratic
small-z bound explicit, and its constant B is the closed form of the
weight's integral against the smoothing kernels.

In the two geometric forms the omega-integral is done in closed form: the
periodized Gaussian theta has the exact Fourier coefficients
exp(-(k/P)^2), and Jacobi-Anger turns its integral against the cosine
into a short sum of J_2k at the node's amplitude 2R.  J_0..J_n of real
argument come from Miller's backward recurrence below max(40, n + 10) and
from Hankel's expansion of J_0, J_1 with forward recurrence above.  What
remains is a 1-D integral over r >= 0 on Gauss-Legendre panels graded so
that each panel sees a bounded amount of phase, following the local
frequency 2|z| cosh(r).

The geometric forms take a scalar z or an array of z, through one engine.
The panel layouts of all z are built at once, each z keeping exactly its
own nodes and weights, and the panels of all z are walked in blocks of a
bounded number of nodes, so a whole Kuznetsov sum is one pass.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .gauss import DomainError

__all__ = [
    "PoleError",
    "SeriesRangeError",
    "TestFunction",
    "QuadratureConfig",
    "plancherel_integral",
    "plancherel_integral_quadrature",
    "bessel_integral_spectral",
    "bessel_integral_deriv",
    "bessel_integral_weighted",
    "small_z_bound_constant",
    "with_refinement_error",
    "SERIES_RADIUS",
    "T_EPS",
]


class PoleError(ValueError):
    """A function evaluated at its pole: zeta(s, 0) at s = 1 (see spectral)."""


class SeriesRangeError(ValueError):
    """Bessel argument outside the radius where the power series is trusted."""


SERIES_RADIUS = 12.0

# Spectral parameters closer to zero than this are nudged to T_EPS; the
# kernel has a removable singularity at t = 0.
T_EPS = 1e-4


# ---------------------------------------------------------------------------
# reciprocal gamma


# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array(
    [
        0.99999999999999709182,
        57.156235665862923517,
        -59.597960355475491248,
        14.136097974741747174,
        -0.49191381609762019978,
        0.33994649984811888699e-4,
        0.46523628927048575665e-4,
        -0.98374475304879564677e-4,
        0.15808870322491248884e-3,
        -0.21026444172410488319e-3,
        0.21743961811521264320e-3,
        -0.16431810653676389022e-3,
        0.84418223983852743293e-4,
        -0.26190838401581408670e-4,
        0.36899182659531622704e-5,
    ]
)


def _reciprocal_gamma_array(z: np.ndarray) -> np.ndarray:
    """Vectorized 1/Gamma for arrays that avoid non-positive integers."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    pos = z.real >= 0.5
    if np.any(pos):
        zp = z[pos]
        acc = np.full_like(zp, _LANCZOS_C[0])
        for i in range(1, 15):
            acc += _LANCZOS_C[i] / (zp - 1 + i)
        w = zp + _LANCZOS_G - 0.5
        out[pos] = np.exp(w - (zp - 0.5) * np.log(w)) / (
            math.sqrt(2.0 * math.pi) * acc
        )
    if np.any(~pos):
        zn = z[~pos]
        w = 1.0 - zn + _LANCZOS_G - 0.5
        acc = np.full_like(zn, _LANCZOS_C[0])
        for i in range(1, 15):
            acc += _LANCZOS_C[i] / (-zn + i)
        gam = math.sqrt(2.0 * math.pi) * np.exp((0.5 - zn) * np.log(w) - w) * acc
        out[~pos] = np.sin(math.pi * zn) * gam / math.pi
    return out


# ---------------------------------------------------------------------------
# Bessel functions of complex order, series regime


def _bessel_series_array(
    mu: np.ndarray, log_half_z: complex, recip_gamma: np.ndarray
) -> np.ndarray:
    """J_mu(z) by its power series at every entry of the array mu, for one
    argument z given as log(z/2), with recip_gamma = 1/Gamma(mu + 1): the
    part that does not depend on z, so two arguments can share it.

    Negative integer orders are rejected: there the leading term
    1/Gamma(mu + 1) is zero and the term ratio divides by mu + k + 1 = 0.
    """
    mu = np.asarray(mu, dtype=complex)
    negative_int = (mu.imag == 0) & (mu.real < 0) & (mu.real == np.round(mu.real))
    if np.any(negative_int):
        bad = sorted({int(v) for v in mu.real[negative_int]})
        raise DomainError(f"Bessel series undefined at negative integer orders {bad}")
    term = np.exp(mu * log_half_z) * recip_gamma
    total = term.copy()
    ratio_num = -cmath.exp(2 * log_half_z)
    quarter = abs(ratio_num)
    floor = np.maximum(np.abs(term), 1e-290)
    for k in range(600):
        term *= ratio_num / ((k + 1) * (mu + k + 1))
        total += term
        floor = np.maximum(floor, np.abs(total))
        denom = (k + 2) * np.abs(mu + k + 2)
        if np.all(denom > 2.0 * quarter):
            rho = quarter / denom
            tail = np.abs(term) * rho / (1.0 - rho)
            if np.all(tail <= 1e-13 * floor):
                return total
    raise SeriesRangeError("array Bessel series did not settle")


# ---------------------------------------------------------------------------
# spectral kernel


def _bessel_kernel_grid(t: np.ndarray, p, z: complex) -> np.ndarray:
    """Kernel values at the 1-D array t and argument z, for an integer p
    (one value per t) or for a 1-D array of integers p (one row per p).

    The kernel (2 pi^2 / sin(pi it)) (J_{-it,-p}(z) - J_{it,p}(z)) is
    evaluated in the manifestly real form
    -4 pi^2 Im(J_{it+p}(z) J_{it-p}(zbar)) / sinh(pi t), with the zbar
    factor on the reflected branch conj(log z); this keeps the kernel
    exactly even in z.  The kernel is evaluated at every integer order q
    with |q| <= max |p|: there the orders it - q are the orders it + q with
    the rows reversed, so both factors come from one order array and one
    1/Gamma(it + q + 1), the second read backwards.  Entries with
    |t| < T_EPS must have been nudged by the caller.

    Before the series runs, the leading terms (z/2)^mu / Gamma(mu + 1) and
    (zbar/2)^mu / Gamma(mu + 1), the largest terms of their series, must
    be finite; at large |q| or large t, 1/Gamma or the power overflows,
    and DomainError names the largest |q| up to which they are, or the
    largest t when they overflow at every order.
    """
    lz = cmath.log(z / 2.0)
    rows = np.atleast_1d(p)
    top = int(np.max(np.abs(rows)))
    orders = np.arange(-top, top + 1)
    mu = 1j * t + orders[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        recip = _reciprocal_gamma_array(mu + 1)
        # |(z/2)^mu| = exp(q Re lz - t Im lz), and exp(q Re lz + t Im lz) at zbar
        lead = np.abs(recip) * np.exp(mu.real * lz.real + np.abs(mu.imag * lz.imag))
    finite = np.isfinite(lead).all(axis=1)
    if not finite.all():
        limit = int(np.min(np.abs(orders[~finite]))) - 1
        where = f"at z = {z} and t <= {np.max(t):.6g} (t_cut T)"
        if limit < 0:
            raise DomainError(f"{where} the Bessel series terms overflow at every order")
        raise DomainError(
            f"{where} the Bessel series terms are finite only to order |p| = {limit}, "
            f"short of the |p| <= {top} (p_cut P) asked for"
        )
    both = _bessel_series_array(mu, lz, recip) * _bessel_series_array(
        mu, lz.conjugate(), recip
    )[::-1]
    kernel = -4.0 * math.pi**2 * both.imag / np.sinh(math.pi * t)
    kernel = kernel[rows + top]
    return kernel if np.ndim(p) else kernel[0]


# ---------------------------------------------------------------------------
# test function and smoothing kernels


@dataclass(frozen=True)
class TestFunction:
    """Gaussian spectral test function h(t, p) = exp(-(t/T)^2 - (p/P)^2)."""

    T: float = 1.0
    P: float = 1.0

    def __post_init__(self) -> None:
        if not (self.T > 0 and self.P > 0):
            raise DomainError("test function needs T > 0 and P > 0")

    def h(self, t, p):
        return np.exp(-((np.asarray(t) / self.T) ** 2) - (np.asarray(p) / self.P) ** 2)


def _radial_kernel(tf: TestFunction, r: np.ndarray):
    """k(r) = sqrt(pi) T exp(-(Tr)^2), which integrates to pi, and k''(r)."""
    T = tf.T
    k = math.sqrt(math.pi) * T * np.exp(-((T * r) ** 2))
    return k, k * (4.0 * T**4 * r**2 - 2.0 * T**2)


# ---------------------------------------------------------------------------
# quadrature configuration


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation and resolution knobs for every integral in this module.

    Cuts are in natural units: t_cut, p_cut are multiples of T and P, r_cut
    is a multiple of 1/T.  Panel counts grow automatically with the local
    oscillation 2|z| cosh(r); phase_rad_per_panel is the phase budget per
    Gauss-Legendre panel, so halving it halves every panel width.  The
    omega-integral of the geometric forms is done in closed form and needs
    no knob.
    """

    t_cut: float = 6.0
    p_cut: float = 6.0
    r_cut: float = 6.0
    t_panels: int = 24
    r_base_panels: int = 1
    phase_rad_per_panel: float = 8.0
    gl_order: int = 16

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"quadrature config {f.name} = {value!r} is not finite")
            if value <= 0:
                raise DomainError(f"quadrature config {f.name} = {value!r} must be positive")

    def refined(self) -> "QuadratureConfig":
        """Same truncations, every panel width halved."""
        return replace(
            self,
            t_panels=2 * self.t_panels,
            r_base_panels=2 * self.r_base_panels,
            phase_rad_per_panel=self.phase_rad_per_panel / 2.0,
        )

    @classmethod
    def from_file(cls, path) -> "QuadratureConfig":
        kinds = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line in map(str.strip, fh):
                if not line or line.startswith("#"):
                    continue
                name, _, raw = (part.strip() for part in line.partition("="))
                if name not in kinds:
                    raise DomainError(f"unknown quadrature key {name!r}")
                caster = int if kinds[name] in ("int", int) else float
                try:
                    kwargs[name] = caster(raw)
                except ValueError:
                    message = f"quadrature config {name} = {raw!r} is not a valid {caster.__name__}"
                    raise DomainError(message) from None
        return cls(**kwargs)


DEFAULT_QUADRATURE = QuadratureConfig()


@lru_cache(maxsize=8)
def _gl_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_rule(a: float, b: float, n_panels: int, order: int):
    """Gauss-Legendre nodes/weights over [a, b] split into equal panels."""
    x, w = _gl_rule(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = (edges[:-1] + edges[1:]) / 2.0
    half = (edges[1:] - edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# Plancherel integral


def plancherel_integral(tf: TestFunction) -> float:
    """Closed form of the spectral mass sum_p int h(t,p) (t^2+p^2) dt.

    Gaussian moments give sqrt(pi) T sum_p exp(-(p/P)^2) (T^2/2 + p^2).
    """
    T, P = tf.T, tf.P
    total = T * T / 2.0
    p = 1
    while True:
        term = 2.0 * math.exp(-((p / P) ** 2)) * (T * T / 2.0 + p * p)
        total += term
        if term < 1e-18 * total:
            break
        p += 1
    return math.sqrt(math.pi) * T * total


def plancherel_integral_quadrature(
    tf: TestFunction, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Same mass by direct quadrature, for cross-checking the closed form."""
    T, P = tf.T, tf.P
    t, wt = _panel_rule(-cfg.t_cut * T, cfg.t_cut * T, cfg.t_panels, cfg.gl_order)
    p_max = int(math.ceil(cfg.p_cut * P))
    total = 0.0
    for p in range(-p_max, p_max + 1):
        total += float(np.sum(wt * tf.h(t, p) * (t * t + p * p)))
    return total


# ---------------------------------------------------------------------------
# the three kernel-integral representations


def bessel_integral_spectral(
    z: complex, tf: TestFunction, cfg: QuadratureConfig = DEFAULT_QUADRATURE
) -> float:
    """Kernel integral via the spectral plane: sum_p int h J (t^2+p^2) dt.

    The orders reach |p| = ceil(p_cut P) and t reaches t_cut T; where the
    Bessel series terms overflow there, DomainError names the limit.
    """
    z = complex(z)
    if z == 0:
        raise DomainError("kernel undefined at z = 0")
    if abs(z) > SERIES_RADIUS:
        raise SeriesRangeError("argument beyond the Bessel series radius")
    T, P = tf.T, tf.P
    t_max = cfg.t_cut * T
    osc = max(1.0, abs(cmath.log(z / 2.0)))
    n_panels = max(cfg.t_panels, int(math.ceil(2 * t_max * osc / cfg.phase_rad_per_panel)))
    # the integrand is even under (t, p) -> (-t, -p) and the p-range is
    # symmetric: integrate t over [0, t_max] on half the panels and double
    t, wt = _panel_rule(0.0, t_max, (n_panels + 1) // 2, cfg.gl_order)
    # nudge nodes inside the removable-singularity window
    t = np.maximum(t, T_EPS)
    p_max = int(math.ceil(cfg.p_cut * P))
    p = np.arange(-p_max, p_max + 1)
    v = _bessel_kernel_grid(t, p, z)
    p = p[:, None]
    return 2.0 * float(np.sum(wt * tf.h(t, p) * (t * t + p * p) * v))


def _graded_r_panels(z_abs: np.ndarray, tf: TestFunction, cfg: QuadratureConfig, block: int):
    """Gauss-Legendre panels on [0, r_cut/T] for every entry of the 1-D array
    z_abs, in z order: (midpoints, half-widths, owners) for `block` panels at
    a time, each panel owned by the index of its |z|.

    The range is cut into half-unit cells (in units of 1/T); within a cell
    the phase rate is at most 2|z| cosh(b) at its right end b, so a panel
    count n proportional to that rate keeps the phase seen per panel within
    the budget phase_rad_per_panel.  The panel edges of a cell [a, b] are
    a + i (b - a)/n and b, as np.linspace(a, b, n + 1) gives them.  Only the
    panel counts are held for every z, so memory stays bounded by the block.
    """
    r_max = cfg.r_cut / tf.T
    cell_w = 0.5 / tf.T
    j = np.arange(max(1, int(math.ceil(r_max / cell_w))))
    a, b = j * cell_w, np.minimum((j + 1) * cell_w, r_max)
    a, b = a[b > a], b[b > a]
    rate = np.multiply.outer(2.0 * z_abs, [math.cosh(v) for v in b]) + 1.0
    counts = np.maximum(cfg.r_base_panels, np.ceil((b - a) * rate / cfg.phase_rad_per_panel))
    counts = counts.astype(np.int64).ravel()  # (z, cell) pairs, z-major
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    for s in range(0, total, block):
        panel = np.arange(s, min(s + block, total))
        pair = np.searchsorted(ends, panel, side="right")
        n, cell = counts[pair], pair % b.size
        i = panel - (ends[pair] - n)
        lo, hi = a[cell], b[cell]
        step = (hi - lo) / n
        left = i * step + lo
        right = np.where(i + 1 == n, hi, (i + 1) * step + lo)
        yield (left + right) / 2.0, (right - left) / 2.0, pair // b.size


# ---------------------------------------------------------------------------
# Bessel J of integer order and real argument


#: Miller's recurrence runs below max(_MILLER_MIN_X, n + 10); above it the
#: forward recurrence from Hankel's J_0, J_1 is stable.
_MILLER_MIN_X = 40.0
#: Terms a_k(nu) / x^k, k < 18, of Hankel's P and Q series together; at
#: x >= 40 the last is below 1e-19.
_HANKEL_TERMS = 18
#: Miller's unnormalised values are rescaled by this factor before they
#: can overflow; each recurrence step grows them by at most 2m/x + 1, so
#: they are checked only as often as keeps the growth between two checks
#: below 1e100 (at every step where one step may grow them by more).
_MILLER_RESCALE = 1e150


def _bessel_j_table(n: int, x: np.ndarray) -> np.ndarray:
    """J_0(x), ..., J_n(x) as an (n + 1, x.size) array, for real x >= 0.

    Arguments below max(40, n + 10) use Miller's backward recurrence
    (DLMF 3.6(vi)) normalised by J_0 + 2 sum_k J_2k = 1 (DLMF 10.12.4);
    larger ones take J_0 and J_1 from Hankel's expansion (DLMF 10.17.3)
    and recur forward, which is stable for orders below x.  Nonzero
    arguments must exceed about 1e-140, so that one recurrence step cannot
    overflow between rescalings.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1, x.size))
    small = x < max(_MILLER_MIN_X, n + 10.0)
    if np.any(small):
        out[:, small] = _bessel_j_miller(n, x[small])
    if not np.all(small):
        out[:, ~small] = _bessel_j_hankel(n, x[~small])[: n + 1]
    return out


def _bessel_j_miller(n: int, x: np.ndarray) -> np.ndarray:
    top = max(n, float(np.max(x)))
    start = 2 * ((int(top) + 20 + int(math.sqrt(40.0 * (top + 1.0)))) // 2)
    zero = x == 0.0
    two_over_x = 2.0 / np.where(zero, 1.0, x)
    growth = math.log10(start * float(np.max(two_over_x)) + 1.0)
    every = max(1, int(100.0 / growth))
    out = np.zeros((n + 1, x.size))
    above = np.zeros_like(x)
    cur = np.full_like(x, 1e-300)
    norm = np.zeros_like(x)
    for k in range(start, 0, -1):
        if k <= n:
            out[k] = cur
        if k % 2 == 0:
            norm += 2.0 * cur
        above, cur = cur, k * two_over_x * cur - above
        if k % every:
            continue
        big = np.maximum(np.abs(cur), np.abs(above)) > _MILLER_RESCALE
        if np.any(big):
            scale = np.where(big, 1.0 / _MILLER_RESCALE, 1.0)
            above *= scale
            cur *= scale
            norm *= scale
            if k <= n:
                out[k:] *= scale
    out[0] = cur
    out /= norm + cur
    out[:, zero] = 0.0
    out[0, zero] = 1.0
    return out


def _bessel_j_hankel(n: int, x: np.ndarray) -> np.ndarray:
    out = np.empty((max(n, 1) + 1, x.size))
    over_8x = 1.0 / (8.0 * x)
    for nu in (0, 1):
        # P = sum_k (-1)^k a_2k / x^2k, Q = sum_k (-1)^k a_2k+1 / x^2k+1
        p, q = np.ones_like(x), np.zeros_like(x)
        term = np.ones_like(x)
        for k in range(1, _HANKEL_TERMS):
            term = term * ((4.0 * nu * nu - (2 * k - 1) ** 2) / k) * over_8x
            sign = 1.0 if (k // 2) % 2 == 0 else -1.0
            if k % 2:
                q += sign * term
            else:
                p += sign * term
        chi = x - (0.5 * nu + 0.25) * math.pi
        out[nu] = np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))
    for k in range(1, n):
        out[k + 1] = (2.0 * k / x) * out[k] - out[k - 1]
    return out


# ---------------------------------------------------------------------------
# the two geometric representations


#: Bessel orders 2k for |k| <= 6.5 P + 2 keep every dropped Fourier
#: coefficient of theta below exp(-42) < 1e-18.
_THETA_K_PER_P = 6.5
#: r-nodes evaluated together; bounds the (orders x nodes) Bessel table.
_R_BLOCK = 1 << 11


def _geometric_integral(z, tf: TestFunction, cfg: QuadratureConfig, weighted: bool):
    """Common engine for the two (r, omega) representations, at a scalar z
    (a float back) or at every entry of an array z (an array back).

    weighted=True : |2z|^2 iint cos(2 Re(z cosh(r + iw))) (sinh^2 r + sin^2 w) k theta
    weighted=False:      - iint cos(2 Re(z cosh(r + iw))) (k'' theta + k theta'')
    with omega over one period [-pi/2, pi/2) and r over the full line, k the
    radial kernel and theta(w) = sqrt(pi) P sum_q exp(-(P(w + pi q))^2) the
    periodized Gaussian; each integrates to pi.

    The omega-integral is done in closed form.  theta has the Fourier
    series sum_k a_k e^{2ikw} with a_k = exp(-(k/P)^2); sin^2 w theta has
    b_k = a_k/2 - (a_{k-1} + a_{k+1})/4 and theta'' has -4k^2 a_k.  The
    phase is 2R cos(w + phi) with R cos phi = x cosh r, R sin phi =
    y sinh r, and Jacobi-Anger (DLMF 10.12) gives, for coefficients c_k,
    int cos(2R cos(w + phi)) sum_k c_k e^{2ikw} dw
        = pi sum_k c_k (-1)^k J_2|k|(2R) e^{-2ik phi}.
    The result is even in r, so [0, r_cut/T] is integrated and doubled.

    The panels of every z, each z with its own, are walked in one sequence,
    _R_BLOCK nodes at a time; each z sums its panels in a block by one dot
    product.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    k_max = int(_THETA_K_PER_P * tf.P + 2)
    k = np.arange(k_max + 1)
    a_wide = np.exp(-((np.arange(-1, k_max + 2) / tf.P) ** 2))  # a_-1 .. a_{k_max+1}
    a = a_wide[1:-1]
    if weighted:
        second = a / 2.0 - (a_wide[:-2] + a_wide[2:]) / 4.0
    else:
        second = -4.0 * k * k * a
    # c_k and c_-k folded together: weight 1 at k = 0, 2 above, sign (-1)^k
    coeffs = np.where(k == 0, 1.0, 2.0) * (-1.0) ** k * np.stack((a, second))
    gl_x, gl_w = _gl_rule(cfg.gl_order)
    z_abs = np.abs(flat)
    total = np.zeros(flat.size)
    for mid, half, own in _graded_r_panels(z_abs, tf, cfg, max(1, _R_BLOCK // cfg.gl_order)):
        r = (mid[:, None] + half[:, None] * gl_x).ravel()
        wts = (half[:, None] * gl_w).ravel()
        node_z = flat[np.repeat(own, cfg.gl_order)]
        sinh_r = np.sinh(r)
        u, v = node_z.real * np.cosh(r), node_z.imag * sinh_r
        bessel = _bessel_j_table(2 * k_max, 2.0 * np.hypot(u, v))[::2]
        bessel *= np.cos(np.multiply.outer(2.0 * k, np.arctan2(v, u)))
        with_a, with_second = coeffs @ bessel
        k_r, k_r_dd = _radial_kernel(tf, r)
        if weighted:
            inner = k_r * (sinh_r**2 * with_a + with_second)
        else:
            inner = k_r_dd * with_a + k_r * with_second
        # the block's panels run through its owners in order
        edges = [0, *(np.flatnonzero(np.diff(own)) + 1) * cfg.gl_order, r.size]
        for lo, hi in zip(edges[:-1], edges[1:]):
            total[own[lo // cfg.gl_order]] += wts[lo:hi] @ inner[lo:hi]
    total *= 2.0 * math.pi
    out = 4.0 * z_abs**2 * total if weighted else -total
    out = out.reshape(z.shape)
    return float(out) if z.ndim == 0 else out


def bessel_integral_deriv(z, tf: TestFunction, cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Kernel integral via differentiated smoothing kernels.

    -iint cos(2 Re(z cosh(r + iw))) (k''(r) theta(w) + k(r) theta''(w));
    valid for every z, no series restriction.  A scalar z gives a float, an
    array of z an array of the same shape.
    """
    return _geometric_integral(z, tf, cfg, weighted=False)


def bessel_integral_weighted(z, tf: TestFunction, cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Kernel integral with the derivatives moved onto the cosine.

    |2z|^2 iint cos(2 Re(z cosh(r + iw))) (sinh^2 r + sin^2 w) k theta; the
    |2z|^2 prefactor exhibits the quadratic small-z bound directly.  A
    scalar z gives a float, an array of z an array of the same shape.
    """
    return _geometric_integral(z, tf, cfg, weighted=True)


def small_z_bound_constant(tf: TestFunction) -> float:
    """B with |kernel integral(z)| <= B |z|^2 for all z (|cos| <= 1).

    B = 4 iint (sinh^2 r + sin^2 w) k(r) theta(w) = 2 pi^2 (e^{1/T^2} - e^{-1/P^2}),
    since k and theta each integrate to pi while k against cosh 2r gives
    pi e^{1/T^2} and theta against cos 2w gives pi e^{-1/P^2}.
    """
    return 2.0 * math.pi**2 * (math.exp(1.0 / tf.T**2) - math.exp(-1.0 / tf.P**2))


def with_refinement_error(fn, cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """(value at cfg, |value at cfg - value at refined cfg|)."""
    coarse = fn(cfg)
    fine = fn(cfg.refined())
    return fine, abs(fine - coarse)
