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
                 [0, t_cut T] on half the panels, doubled.  All p are one
                 order array, and the series of J_{it+p}(z) and J_{it-p}(zbar)
                 are two Horner passes over one table of coefficients that
                 no z changes, the second read backwards; the product of
                 their two 1/Gammas is a log-Gamma ratio of modulus
                 1/|p - it|, finite at every order and every t.  The number
                 of series terms depends on |z| alone, so a value does not
                 depend on the batch it is computed in;
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
frequency 2|z| cosh(r).  That frequency grows like exp(r_cut/T), so a z
whose panels would exceed a fixed budget (T below about 0.4 at |z| = 12)
is refused with DomainError before any panel is walked.

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


class SeriesRangeError(DomainError):
    """Bessel argument outside the radius where the power series is trusted."""


SERIES_RADIUS = 12.0

# Spectral parameters closer to zero than this are nudged to T_EPS; the
# kernel has a removable singularity at t = 0.
T_EPS = 1e-4


# ---------------------------------------------------------------------------
# log gamma


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


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """log Gamma at every entry of a complex array that avoids the poles:
    Lanczos for Re z >= 1/2, the reflection Gamma(z) Gamma(1 - z) =
    pi / sin(pi z) below.  The imaginary part is arg Gamma up to a multiple
    of 2 pi, so exp of the result is Gamma, with no overflow on the way."""
    z = np.asarray(z, dtype=complex)
    pos = z.real >= 0.5
    s = np.where(pos, z, 1.0 - z)
    acc = np.full_like(s, _LANCZOS_C[0])
    for i in range(1, 15):
        acc += _LANCZOS_C[i] / (s - 1 + i)
    w = s + _LANCZOS_G - 0.5
    out = (s - 0.5) * np.log(w) - w + np.log(math.sqrt(2.0 * math.pi) * acc)
    if not pos.all():
        with np.errstate(divide="ignore"):
            reflected = math.log(math.pi) - np.log(np.sin(math.pi * z)) - out
        out = np.where(pos, out, reflected)
    return out


# ---------------------------------------------------------------------------
# Bessel functions of complex order, series regime
#
# J_mu(z) = (z/2)^mu / Gamma(mu + 1) * sum_k (-1)^k w^k / (k! (mu + 1)_k),
# w = (z/2)^2.  The normalised sum is evaluated by Horner's rule,
# 1 + c_1 w (1 + c_2 w (1 + ...)) with c_k = -1/(k (mu + k)), on a table of
# the c_k that no z changes, to a term count K that depends on |z| alone.


#: The series stops at the first k with (|z|/2)^2k / (k!)^2 below this, a
#: bound on the first dropped term of every order with Re mu >= 0 relative
#: to its leading term.
_SERIES_TAIL = 1e-18


def _series_terms(z_abs: float) -> int:
    """K, the number of series terms kept at |z| = z_abs."""
    if not z_abs <= SERIES_RADIUS:
        raise SeriesRangeError(
            f"|z| = {z_abs:.6g} is beyond the Bessel series radius {SERIES_RADIUS}"
        )
    w, k, term = (z_abs / 2.0) ** 2, 0, 1.0
    while term >= _SERIES_TAIL:
        k += 1
        term *= w / (k * k)
    return k


def _horner_coefficients(mu: np.ndarray, terms: int) -> np.ndarray:
    """c_k = -1/(k (mu + k)) for k = 1 .. terms - 1, stacked on a new first
    axis over the array mu.

    Negative integer orders are rejected: there mu + k = 0 for some k, and
    the series of J_mu is the 0/0 of 1/Gamma(mu + 1) = 0 against it.
    """
    mu = np.asarray(mu, dtype=complex)
    negative_int = (mu.imag == 0) & (mu.real < 0) & (mu.real == np.round(mu.real))
    if np.any(negative_int):
        bad = sorted({int(v) for v in mu.real[negative_int]})
        raise DomainError(f"Bessel series undefined at negative integer orders {bad}")
    k = np.arange(1, terms).reshape((-1,) + (1,) * mu.ndim)
    coeffs = mu + k
    coeffs *= -k
    return np.reciprocal(coeffs, out=coeffs)


def _series_sum(coeffs: np.ndarray, terms: int, w: complex) -> np.ndarray:
    """sum_k (-1)^k w^k / (k! (mu + 1)_k) at every order of the table, by
    Horner's rule over its first terms - 1 coefficients; every entry is
    computed on its own, so it does not depend on what else the table holds."""
    acc = np.ones(coeffs.shape[1:], dtype=complex)
    for k in range(terms - 2, -1, -1):
        acc *= coeffs[k]
        acc *= w
        acc += 1.0
    return acc


# ---------------------------------------------------------------------------
# spectral kernel


def _kernel_table(t: np.ndarray, top: int, terms: int):
    """The part of the kernel at the 1-D array t (entries > 0) and the orders
    q = -top..top that no z changes: (t, front, coeffs), with coeffs the
    Horner coefficients at mu = it + q (orders on the rows) and

        front[q, t] = 4 pi (-1)^q exp(-2i arg Gamma(|q| + 1 + it)) / (|q| - it),

    which is -4 pi^2 i / (sinh(pi t) Gamma(1 + q + it) Gamma(1 - q + it)).
    The product of the two Gammas is even in q; for q >= 0 the reflection
    formula gives 1/Gamma(1 - q + it) = sin(pi (q - it)) Gamma(q - it) / pi,
    sin(pi (q - it)) = -(-1)^q i sinh(pi t) cancels the sinh, and
    Gamma(q - it) / Gamma(q + 1 + it) has modulus 1/|q - it|.  So front is
    of order 1/|q|, finite at every order and every t.
    """
    orders = np.arange(-top, top + 1)
    mu = 1j * t + orders[:, None]
    arg = _log_gamma(mu[top:] + 1.0).imag  # |q| = 0 .. top
    sign = np.where(orders % 2, -1.0, 1.0)[:, None]
    front = 4.0 * math.pi * sign * np.exp(-2j * arg[np.abs(orders)])
    front /= np.abs(orders)[:, None] - 1j * t
    return t, front, _horner_coefficients(mu, terms)


def _kernel_rows(table, z: complex, terms: int) -> np.ndarray:
    """Kernel values at one z on the grid of a _kernel_table, summing the
    series to its first `terms` terms.

    The kernel (2 pi^2 / sin(pi it)) (J_{-it,-p}(z) - J_{it,p}(z)) is
    -4 pi^2 Im(J_{it+p}(z) J_{it-p}(zbar)) / sinh(pi t), with the zbar
    factor on the reflected branch conj(log z); this keeps the kernel
    exactly even in z.  There (z/2)^{it+p} (zbar/2)^{it-p} =
    |z/2|^{2it} e^{2ip arg z}, so the kernel is
    Re(front |z/2|^{2it} e^{2ip arg z} S_{it+p}(w) S_{it-p}(wbar)) with S
    the normalised series and w = (z/2)^2.  The orders it - p are the
    orders it + p with the rows reversed, so both sums come from one
    table, the second read backwards.
    """
    t, front, coeffs = table
    top = front.shape[0] // 2
    lz = cmath.log(z / 2.0)
    w = (z / 2.0) ** 2
    orders = np.arange(-top, top + 1)
    phase = np.multiply.outer(np.exp(2j * lz.imag * orders), np.exp(2j * lz.real * t))
    both = _series_sum(coeffs, terms, w) * _series_sum(coeffs, terms, w.conjugate())[::-1]
    return (front * phase * both).real


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


def _finite_z(z) -> np.ndarray:
    """z as a flat complex array; DomainError at its first non-finite entry."""
    flat = np.asarray(z, dtype=complex).ravel()
    bad = np.flatnonzero(~np.isfinite(flat))  # NaN too
    if bad.size:
        raise DomainError(f"the kernel integral needs a finite z, got z = {complex(flat[bad[0]])}")
    return flat


#: t-nodes per series table: the table of one block holds (orders x nodes x
#: terms) coefficients, 0.4 MiB at P = 2 and |z| = 4.
_T_BLOCK = 64
#: Entries of one block's table, 64 MiB of complex values; P = 40 at T = 1
#: and |z| = 12 needs 1.1 million.
_TABLE_ENTRIES = 1 << 22


def bessel_integral_spectral(z, tf: TestFunction, cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Kernel integral via the spectral plane: sum_p int h J (t^2+p^2) dt.

    A scalar z gives a float, an array of z an array of the same shape.
    The orders reach |p| = ceil(p_cut P) and t reaches t_cut T.  The t-rule
    follows the oscillation of the kernel in t, and the z that share a rule
    share its series tables, one per _T_BLOCK t-nodes; each z is summed on
    its own, block by block in t order, so a value does not depend on the
    batch it comes in.  A table beyond _TABLE_ENTRIES raises DomainError.

    Off the real axis near the series radius the factors J_{it+-p}(z) grow
    like I_p(|Im z|) while the kernel is O(1), and the cancellation costs
    digits: against the weighted form the integral is off by up to 1.5e-7
    relative at 12i, 1.4e-7 at 11.9i and 5.7e-8 at 6+10i, over (T, P) in
    {(0.5, 1), (1, 1), (2, 2)}, inside the ~1e-6 agreement of the three
    representations.
    """
    z = np.asarray(z, dtype=complex)
    flat = _finite_z(z).tolist()
    if 0 in flat:
        raise DomainError("kernel undefined at z = 0")
    terms = [_series_terms(abs(v)) for v in flat]
    T, P = tf.T, tf.P
    t_max = cfg.t_cut * T
    p_max = int(math.ceil(cfg.p_cut * P))
    p = np.arange(-p_max, p_max + 1)[:, None]
    # the kernel's phase in t is 2 t log|z/2| - 2 arg Gamma(|p| + 1 + it),
    # and d/dt arg Gamma(|p| + 1 + it) = Re psi(|p| + 1 + it) < log(1 + |p| + t)
    gamma_osc = math.log1p(t_max + p_max)
    # the integrand is even under (t, p) -> (-t, -p) and the p-range is
    # symmetric: integrate t over [0, t_max] on half the panels and double
    half_panels = [
        (max(cfg.t_panels, int(math.ceil(2 * t_max * osc / cfg.phase_rad_per_panel))) + 1) // 2
        for osc in (max(1.0, abs(cmath.log(v / 2.0)), gamma_osc) for v in flat)
    ]
    out = np.zeros(len(flat))
    for n_half in sorted(set(half_panels)):
        members = [i for i, n in enumerate(half_panels) if n == n_half]
        most = max(terms[i] for i in members)
        t, wt = _panel_rule(0.0, t_max, n_half, cfg.gl_order)
        size = p.size * min(t.size, _T_BLOCK) * (most - 1)
        if size > _TABLE_ENTRIES:
            raise DomainError(
                f"the spectral series table at |z| = {abs(flat[members[0]]):.6g}, "
                f"T = {T:g}, P = {P:g} needs {size:,} entries ({p.size} orders |p| <= "
                f"{p_max} x {min(t.size, _T_BLOCK)} t-nodes x {most - 1} coefficients), "
                f"more than {_TABLE_ENTRIES:,}"
            )
        # nudge nodes inside the removable-singularity window
        t = np.maximum(t, T_EPS)
        weight = wt * tf.h(t, p) * (t * t + p * p)
        for lo in range(0, t.size, _T_BLOCK):
            block = slice(lo, lo + _T_BLOCK)
            table = _kernel_table(t[block], p_max, most)
            for i in members:
                out[i] += float(np.sum(weight[:, block] * _kernel_rows(table, flat[i], terms[i])))
    out = 2.0 * out.reshape(z.shape)
    return float(out) if z.ndim == 0 else out


#: Panels of one z's r-integral: T = 0.5 at |z| = 12 takes 386,218, and
#: refined() twice that.  The count grows like |z| exp(r_cut/T), so a
#: smaller T exhausts any budget quickly (3.6e12 panels at T = 0.2, |z| = 1).
_R_PANELS = 1 << 21


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
    cosh_b = [math.cosh(v) if v < 710.0 else math.inf for v in b]
    with np.errstate(over="ignore", invalid="ignore"):
        rate = np.multiply.outer(2.0 * z_abs, cosh_b) + 1.0
        counts = np.maximum(cfg.r_base_panels, np.ceil((b - a) * rate / cfg.phase_rad_per_panel))
        per_z = counts.sum(axis=1)
    over = np.flatnonzero(~(per_z <= _R_PANELS))
    if over.size:
        i = over[0]
        raise DomainError(
            f"at T = {tf.T:g} and |z| = {z_abs[i]:.6g} the r-integral needs "
            f"{per_z[i]:.3g} panels, more than {_R_PANELS:,}"
        )
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
    flat = _finite_z(z)
    z_abs = np.abs(flat)
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
