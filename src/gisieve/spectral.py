"""Hecke zeta values, twisted divisor sums, Eisenstein weights, and the
geometric side of the Kuznetsov identity over Z[i].

The unitary characters of C* are lambda_{it,p}(z) = |z|^{it} (z/|z|)^p.
Units of Z[i] are fourth roots of unity, so lambda_{4p} descends to
ideals: lambda_{4p}((z)) = (z/|z|)^{4p} does not depend on the choice of
generator.  Around this sit

    zeta(s, p)    = sum over nonzero ideals n of lambda_{4p}(n) / N(n)^s,
    tau_{s,p}(n)  = sum over factorizations a*b = n of
                    lambda_{4p}(a/b) * (N(a)/N(b))^s,
    omega(t, p)   = 1 / |zeta(1 + 2it, 2p)|^2,

and the Eisenstein sieve quantity: the integral over |t| <= T/2 and sum
over |p| <= floor(P/4) of omega(t,p) |sum_n a_(n) tau_{it,p}(n^2)|^2.

zeta(s, p) for Re(s) > 1 is a lattice partial sum plus an
integral-comparison tail correction.  On the line Re(s) = 1 (the omega
use case) the series is summed with Cesaro weights (1 - N(n)/X)^kappa,
and for p = 0 the contribution of the simple pole at s = 1 to the
smoothed sum is removed in closed form, which keeps the weight usable
down to the edge of the excluded band around t = 0.

Every partial sum is one Dirichlet series over norms, summed by norm
bands: per band of norms, the coefficients A(n) = sum over N(a) = n of
lambda_{4p}(a) (1 - n/X)^kappa are binned once, and exp(-s log n) A(n) is
added for a whole array of s at a time.  The Eisenstein sieve sum thus
gets the weights of all its t-nodes on one panel grid from one pass over
the lattice, in bounded memory whatever the cutoff.  Its panels share one
half-width h, so a node is t = m_k + h x_j and n^{-(1+2it)} is the product
n^{-(1+2i m_k)} n^{-2i h x_j}: each norm takes one exp per panel and one
per Gauss-Legendre node pair (x_{15-j} = -x_j, so the other half are
conjugates), not one per node.  And zeta(conj s, -p) = conj zeta(s, p)
gives omega(-t, -p) = omega(t, p): the grids at -p, and the p = 0 grid
below the pole band, are the mirrored grids read backwards, so a sieve
sum makes one lattice pass per |p|.  It takes a matrix of coefficient
rows over one list of ideals, so the divisor sums at the nodes are
computed once per ideal and serve every row.

The geometric side of the Kuznetsov identity is

    diagonal + (1/(32 pi^3)) * sum over c in Z[i], c != 0, of
        S(m, n; c) / N(c) * H(2 pi sqrt(mn) / c),

with diagonal = H_total/(8 pi^3) when m = +-n (the squares of the units
are {1, -1}), H_total the Plancherel integral, and H(z) the Bessel
integral of the test function.  H is even, so the principal square root
of mn is as good as any.  The c-sum here runs over elements — all four
associates — because H(z) is not invariant under rotating z by i.  Two
Kloosterman sums per ideal cover its associates, and the H(z) of all
ideals are one batched call of the weighted representation.  That batch
depends on (m, n) only through the product mn, so a small bounded cache
keyed by mn serves (n, m), (-m, -n) and every other pair of the same
product; the Kloosterman weights are computed on every call.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .archimedean import (
    DEFAULT_QUADRATURE,
    PoleError,
    QuadratureConfig,
    TestFunction,
    _gl_rule,
    bessel_integral_weighted,
    plancherel_integral,
    small_z_bound_constant,
)
from .expsums import kloosterman_sums
from .gauss import (
    MAX_UNIT_NORM,
    DomainError,
    GIdeal,
    GaussianInt,
    exact_div,
    gcd,
    ideal_divisors,
    ideals_up_to_norm,
)

__all__ = [
    "CoefficientSequence",
    "HeckeZetaValue",
    "KuznetsovGeometric",
    "hecke_zeta",
    "eisenstein_sieve_sum",
    "eisenstein_sieve_sums",
    "kuznetsov_geometric",
    "POLE_BAND_HALF_WIDTH",
    "DEFAULT_ZETA_CUTOFF",
    "DEFAULT_WEIGHT_CUTOFF",
    "IDEAL_DENSITY",
    "ZETA_EULER_CONSTANT",
    "ZETA_F_32_UPPER",
]


#: Half-width of the band around t = 0 excluded from omega(t, 0): the
#: Dedekind zeta function has its pole at 1 + 2it = 1, omega -> 0 there,
#: and the band's contribution to any integral is O(band * omega).
POLE_BAND_HALF_WIDTH = 0.05

#: Default lattice cutoff for direct zeta evaluation.
DEFAULT_ZETA_CUTOFF = 1_000_000.0

#: Default cutoff for the smoothed zeta values behind omega(t, p); sized
#: for the documented 1e-2 relative accuracy target on |t| <= 5, |p| <= 8.
DEFAULT_WEIGHT_CUTOFF = 200_000.0

#: Residue of the Dedekind zeta function of Q(i) at s = 1 (equals the
#: density of ideals per unit norm): L(1, chi_{-4}) = pi/4.
IDEAL_DENSITY = math.pi / 4.0

#: Constant term of the Laurent expansion of zeta(s, 0) at s = 1:
#: zeta(1 + d, 0) = IDEAL_DENSITY / d + ZETA_EULER_CONSTANT + O(d).
#: Closed form (pi/4)(2 euler + 2 log 2 + 3 log pi - 4 log Gamma(1/4)).
ZETA_EULER_CONSTANT = 0.6462454398948133

#: An upper bound for zeta_F(3/2) = zeta(3/2) L(3/2, chi_{-4}) =
#: 2.2584054207752376...: the lattice sum hecke_zeta(1.5, 0, 1e6) plus its
#: tail bound, bit for bit (tests/test_spectral.py recomputes it).
ZETA_F_32_UPPER = 2.258425409853418


# ---------------------------------------------------------------------------
# Twisted divisor sums
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _divisor_geometry(n: GIdeal) -> tuple[np.ndarray, np.ndarray]:
    """Per divisor d of n (with e = n/d): arg(d) - arg(e) and log(N(d)/N(e)).

    This is the p- and s-independent part of tau_{s,p}(n): the term for d is
    exp(4ip * darg + s * dlog).
    """
    dargs = []
    dlogs = []
    for d in ideal_divisors(n):
        e = exact_div(n.gen, d.gen)
        dargs.append(math.atan2(d.gen.im, d.gen.re) - math.atan2(e.im, e.re))
        dlogs.append(math.log(d.norm) - math.log(e.norm))
    return np.array(dargs), np.array(dlogs)


# ---------------------------------------------------------------------------
# Hecke zeta on and to the right of the 1-line
# ---------------------------------------------------------------------------


class HeckeZetaValue(NamedTuple):
    value: complex
    tail_estimate: float


#: Order kappa of the Cesaro weights (1 - N(n)/X)^kappa of smoothed zeta.
_CESARO_ORDER = 3


#: Norms per band of the lattice sum, and entries per block of its
#: exp(-s log n) table (64 KiB of complex); together they bound its
#: temporary arrays whatever the cutoff.
_NORM_BAND = 4096
_EXP_BLOCK = 4096


def _lattice_sum(
    s: np.ndarray, p: int, cutoff: float, cesaro_order: int, shifts: np.ndarray | None = None
) -> np.ndarray:
    """sum over ideals N(n) <= cutoff of w(N/cutoff) lambda_{4p}(n) N^{-s}
    at every entry of the 1-D array s, with w(y) = (1-y)^order (order 0 =
    sharp truncation); given shifts, at every s[k] + shifts[j] instead,
    k-major, for shifts with shifts[::-1] == conj(shifts).

    One ideal per lattice point in {a >= 1, b >= 0}: of the four associates
    of a nonzero Gaussian integer exactly one has re >= 1, im >= 0.  The
    points are taken by norm bands [n0, n0 + _NORM_BAND); per band the
    coefficients A(n) = sum over N(a) = n of e^{4ip arg a} w(n/cutoff) come
    from a bincount over the norm offsets, and only the norms that occur
    meet exp(-s log n), in blocks of at most _EXP_BLOCK entries.

    With shifts, N^{-s_k - shifts_j} = N^{-s_k} N^{-shifts_j} is summed as
    A(n) N^{-s_k} times N^{-shifts_j}: one exp per s_k and per shift,
    not per pair, and the second half of the shifts reads the first half's
    exps conjugated, N^{-conj(shift)} = conj(N^{-shift}) for real log N.
    """
    s = np.asarray(s, dtype=complex)
    x = float(cutoff)
    top = int(x)
    out = np.zeros(len(s) if shifts is None else (len(s), len(shifts)), dtype=complex)
    roots = np.arange(1.0, math.isqrt(top) + 1.0)
    for n0 in range(0, top + 1, _NORM_BAND):
        last = min(n0 + _NORM_BAND - 1, top)  # band [n0, last]
        a = roots[: math.isqrt(last)]
        # integers below 2**52 are exact floats, and the rounded root of one
        # falls on the same side of every integer as the exact root, so the
        # ceil and floor are exact
        b_lo = np.ceil(np.sqrt(np.maximum(n0 - a * a, 0.0)))
        b_hi = np.floor(np.sqrt(last - a * a))
        counts = np.maximum(b_hi - b_lo + 1.0, 0.0).astype(np.int64)
        starts = np.cumsum(counts) - counts
        rows = np.repeat(a, counts)
        b = np.arange(rows.size) + np.repeat(b_lo - starts, counts)
        offsets = (rows * rows + b * b - n0).astype(np.int64)
        hits = np.bincount(offsets, minlength=_NORM_BAND)
        keep = np.flatnonzero(hits)
        if p:
            unit = (rows + 1j * b) ** 2 / (rows * rows + b * b)  # e^{2i arg a}
            phase = (unit * unit) ** p
            coeff = np.bincount(offsets, phase.real, _NORM_BAND)[keep] + 1j * np.bincount(
                offsets, phase.imag, _NORM_BAND
            )[keep]
        else:
            coeff = hits[keep].astype(complex)
        norms = (n0 + keep).astype(float)
        if cesaro_order:
            coeff *= (1.0 - norms / x) ** cesaro_order
        log_norms = np.log(norms)
        if shifts is None:
            step = max(1, _EXP_BLOCK // max(1, keep.size))
            for i in range(0, len(s), step):
                table = np.exp(-np.multiply.outer(s[i : i + step], log_norms))
                out[i : i + step] += np.einsum("ij,j->i", table, coeff)
            continue
        mirrored = len(shifts) // 2
        width = max(1, _EXP_BLOCK // max(len(s), len(shifts)))
        for j in range(0, keep.size, width):
            logs = log_norms[j : j + width]
            base = np.exp(-np.multiply.outer(s, logs)) * coeff[j : j + width]
            first = np.exp(-np.multiply.outer(shifts[: len(shifts) - mirrored], logs))
            shift = np.concatenate((first, first[:mirrored][::-1].conj()))
            out += np.einsum("kn,jn->kj", base, shift)
    return out.ravel()


def _cesaro_pole_term(s: complex, cutoff: float, order: int) -> complex:
    """Contribution of the p = 0 pole at s = 1 to the smoothed partial sum.

    With w(y) = (1-y)^order, the Mellin transform over [0, 1] is the Beta
    value B(u, order+1) = order! / (u (u+1) ... (u+order)), and shifting the
    Mellin inversion contour past u = 1 - s picks up

        rho_F * cutoff^(1-s) * B(1-s, order+1),       rho_F = pi/4.

    order = 0 recovers the sharp-cutoff integral comparison
    rho_F * cutoff^(1-s) / (1 - s).

    The Beta factor has its own poles at u = -k, hit when s = 1 + k for
    k = 1..order.  Each such pole contributes a shifted term
    r_k x^(-k) zeta(s - k, 0) with r_k = (-1)^k C(order, k); near the
    collision that term and the main shifted term diverge individually
    while their sum stays finite.  Within distance 1/2 of a collision the
    pair is returned instead, using the two-term Laurent expansion
    zeta(1 + d, 0) = rho_F / d + ZETA_EULER_CONSTANT + O(d), which keeps
    the subtraction uniformly accurate through real s = 2 .. order + 1.
    """
    u = 1.0 - complex(s)
    x = float(cutoff)
    for k in range(1, order + 1):
        delta = u + k
        if abs(delta) >= 0.5:
            continue
        r_k = (-1.0) ** k * math.comb(order, k)
        # g(delta) = B(u, order+1) * delta / r_k, regular with g(0) = 1
        g = 1.0 + 0.0j
        for j in range(order + 1):
            if j != k:
                g *= (j - k) / (j - k + delta)
        if abs(delta) < 1e-6:
            # limit of (x^delta g(delta) - 1) / delta
            grown = math.log(x) - sum(
                1.0 / (j - k) for j in range(order + 1) if j != k
            )
        else:
            grown = (x**delta * g - 1.0) / delta
        return x ** (-k) * r_k * (IDEAL_DENSITY * grown + ZETA_EULER_CONSTANT)
    denom = 1.0 + 0.0j
    for j in range(order + 1):
        denom *= u + j
    return IDEAL_DENSITY * cutoff**u * math.factorial(order) / denom


def _smoothed_zeta(
    s: np.ndarray, p: int, cutoff: float, shifts: np.ndarray | None = None
) -> np.ndarray:
    """Cesaro-smoothed partial sums at one cutoff, at every entry of the 1-D
    array s (or at every s[k] + shifts[j], as _lattice_sum takes them), p = 0
    pole term removed."""
    values = _lattice_sum(s, p, cutoff, _CESARO_ORDER, shifts)
    if p == 0:
        points = s if shifts is None else np.add.outer(s, shifts).ravel()
        values -= [_cesaro_pole_term(si, cutoff, _CESARO_ORDER) for si in points]
    return values


def _check_cutoff(cutoff: float) -> None:
    if not cutoff < math.inf:  # also rejects NaN
        raise DomainError(f"the zeta cutoff must be finite, got {cutoff}")
    if cutoff < 4:
        raise DomainError("cutoff too small to say anything")


def hecke_zeta(
    s: complex,
    p: int,
    cutoff: float = DEFAULT_ZETA_CUTOFF,
    smoothed: bool = False,
) -> HeckeZetaValue:
    """zeta(s, p) = sum over ideals of lambda_{4p}(n) / N(n)^s.

    Both modes sum the lattice by norm bands (see the module docstring).

    Direct mode (Re(s) > 1): sharp partial sum; for p = 0 the smooth main
    term of the tail is added back via integral comparison, and the
    returned tail_estimate bounds the lattice-discrepancy remainder.  For
    Re(s) <= 1 the direct mode still returns the partial sum but with an
    infinite tail_estimate — use smoothed mode there.

    Smoothed mode (the omega(t,p) use case, Re(s) = 1): Cesaro weights
    (1 - N/X)^3 damp the conditional convergence; for p = 0 the
    closed-form pole contribution is subtracted.  tail_estimate is the
    observed change when the cutoff is halved.

    Raises PoleError at (s, p) = (1, 0).
    """
    s = complex(s)
    if p == 0 and abs(s - 1.0) < 1e-12:
        raise PoleError("zeta(s, 0) has a simple pole at s = 1")
    _check_cutoff(cutoff)

    if not smoothed:
        sigma = s.real
        value = complex(_lattice_sum(np.array([s]), p, cutoff, 0)[0])
        if p == 0:
            value -= _cesaro_pole_term(s, cutoff, 0)
        if sigma > 1.0:
            # #ideals(norm <= x) = (pi/4) x + E(x) with |E(x)| <= 8 sqrt(x)
            # (a conservative circle-problem constant); partial summation of
            # the tail against E gives the bound below.
            tail = 8.0 * (1.0 + sigma / (sigma - 0.5)) * cutoff ** (0.5 - sigma)
        else:
            tail = math.inf
        return HeckeZetaValue(value, tail)

    value = complex(_smoothed_zeta(np.array([s]), p, cutoff)[0])
    tail = abs(value - complex(_smoothed_zeta(np.array([s]), p, cutoff / 2.0)[0]))
    return HeckeZetaValue(value, tail)


# ---------------------------------------------------------------------------
# Eisenstein weight and sieve sum
# ---------------------------------------------------------------------------


def _omega(t: np.ndarray, p: int, cutoff: float, offsets: np.ndarray | None = None) -> np.ndarray:
    """omega(t, p) = 1 / |zeta(1 + 2it, 2p)|^2 at every entry of the 1-D
    array t, or at every t[k] + offsets[j] (k-major) for real offsets with
    offsets[::-1] == -offsets, from one lattice pass.

    Documented accuracy target: 1e-2 relative for |t| <= 5, |p| <= 8 at the
    default cutoff.  At p = 0, omega -> 0 toward t = 0; the sieve sum skips
    the band |t| < POLE_BAND_HALF_WIDTH rather than modelling it.
    """
    _check_cutoff(cutoff)
    shifts = None if offsets is None else 2j * offsets
    return 1.0 / np.abs(_smoothed_zeta(1.0 + 2j * t, 2 * p, cutoff, shifts)) ** 2


@dataclass(frozen=True)
class CoefficientSequence:
    """A finitely supported map from ideals to coefficients.

    entries are (ideal, coefficient) pairs sorted by ideal; norm_window is
    (lo, hi] and every key norm lies inside it.  lo = 0 declares the window
    [1, hi]; the dyadic window of the sieve statements is (N, 2N].
    """

    entries: tuple[tuple[GIdeal, complex], ...]
    norm_window: tuple[float, float]

    def __post_init__(self) -> None:
        lo, hi = self.norm_window
        if not (0 <= lo < hi):
            raise DomainError(f"bad norm window ({lo}, {hi}]")
        for ideal, _ in self.entries:
            if not (lo < ideal.norm <= hi):
                raise DomainError(
                    f"ideal {ideal} of norm {ideal.norm} outside ({lo}, {hi}]"
                )

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(v) ** 2 for _, v in self.entries))

    def scaled(self, factor: complex) -> "CoefficientSequence":
        return CoefficientSequence(
            tuple((ideal, factor * v) for ideal, v in self.entries),
            self.norm_window,
        )

    def is_zero(self) -> bool:
        return all(v == 0 for _, v in self.entries)


#: Radians of the fastest phase per t-panel, and Gauss-Legendre nodes per
#: panel, of the sieve sum's t-quadrature.
_SIEVE_PHASE_BUDGET = 6.0
_SIEVE_GL_ORDER = 16


def _sieve_rule(lo: float, hi: float, n_panels: int):
    """The sieve sum's t-rule on [lo, hi]: n_panels Gauss-Legendre panels of
    one half-width h, as (midpoints m_k, offsets h x_j, nodes m_k + h x_j
    k-major, weights h w_j).

    The midpoints are (lo + hi)/2 + h (2k + 1 - n_panels), and the
    Gauss-Legendre x_j and w_j are exactly odd and even, so the rule on
    [-hi, -lo] is the exact mirror of the rule on [lo, hi]: nodes -t[::-1],
    weights w[::-1].
    """
    x, w = _gl_rule(_SIEVE_GL_ORDER)
    h = (hi - lo) / (2 * n_panels)
    mids = (lo + hi) / 2.0 + h * np.arange(1 - n_panels, n_panels, 2)
    offsets = h * x
    nodes = np.add.outer(mids, offsets).ravel()
    return mids, offsets, nodes, np.tile(h * w, n_panels)


@lru_cache(maxsize=64)
def _grid_weights(lo: float, hi: float, n_panels: int, p: int, cutoff: float) -> np.ndarray:
    """omega(t, p) at the t-nodes of the sieve sum's rule on [lo, hi].

    zeta(conj s, -p) = conj zeta(s, p), so omega(-t, -p) = omega(t, p), and
    the rule on [-hi, -lo] mirrors the one on [lo, hi]: a key with p < 0, or
    p = 0 and lo + hi < 0, reads its mirror key's grid backwards, and one
    lattice pass serves both.  The pass takes the rule's factored form,
    t = m_k + h x_j.
    """
    if p < 0 or (p == 0 and lo + hi < 0):
        return _grid_weights(-hi, -lo, n_panels, -p, cutoff)[::-1]
    mids, offsets, _, _ = _sieve_rule(lo, hi, n_panels)
    weights = _omega(mids, p, cutoff, offsets)
    weights.setflags(write=False)
    return weights


def eisenstein_sieve_sum(
    a: CoefficientSequence,
    T: float,
    P: float,
    *,
    weight_cutoff: float = DEFAULT_WEIGHT_CUTOFF,
) -> float:
    """Integral over |t| <= T/2, sum over |p| <= floor(P/4), of
    omega(t, p) |sum_n a_(n) tau_{it,p}(n^2)|^2, with omega at weight_cutoff.

    The one-row case of eisenstein_sieve_sums, over the ideals of a's
    entries.  Nonnegative; nondecreasing in T and in P.
    """
    ideals = [ideal for ideal, _ in a.entries]
    coeffs = np.array([[coeff for _, coeff in a.entries]], dtype=complex)
    return float(eisenstein_sieve_sums(ideals, coeffs, T, P, weight_cutoff=weight_cutoff)[0])


def eisenstein_sieve_sums(
    ideals: Sequence[GIdeal],
    coeffs: np.ndarray,
    T: float,
    P: float,
    *,
    weight_cutoff: float = DEFAULT_WEIGHT_CUTOFF,
) -> np.ndarray:
    """The Eisenstein sieve sum of every row of coeffs, a (rows x ideals)
    array of the coefficients a_(n) on the given ideals: one total per row.

    The t-quadrature uses 16-point Gauss-Legendre panels of one width
    (_sieve_rule), sized so that the fastest divisor-sum phase (rate
    2 log N(n_max) per unit t, n_max the largest ideal given) advances at
    most 6 radians per panel.  The band |t| < POLE_BAND_HALF_WIDTH is
    excluded at p = 0.  The omega grids come from _grid_weights, one
    lattice pass per |p|.  Per (p, interval),
    the divisor sum tau_{it,p}(n^2) at the nodes is computed once per ideal
    and added, times each row's coefficient, into every row's linear form,
    ideal by ideal; an ideal whose coefficients are all 0 is skipped.  Each
    row is thus summed as a lone sequence would be, bit for bit.
    """
    if not (0.5 <= T < math.inf and 0.5 <= P < math.inf):
        raise DomainError("eisenstein_sieve_sum requires finite T, P >= 1/2")
    coeffs = np.asarray(coeffs, dtype=complex)
    totals = np.zeros(len(coeffs))
    live = [(ideal, column) for ideal, column in zip(ideals, coeffs.T) if column.any()]
    if not live:
        return totals
    half = T / 2.0
    p_max = int(P // 4)
    max_log = max(math.log(ideal.norm) for ideal in ideals)
    rate = 4.0 * max_log + 1.0  # tau on n^2 doubles the log; +1 covers omega
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
            # V(t) = sum_n a_(n) tau_{it,p}(n^2), one row per coefficient row
            forms = np.zeros((len(coeffs), len(nodes)), dtype=complex)
            for ideal, column in live:
                dargs, dlogs = _divisor_geometry(GIdeal.of(ideal.gen * ideal.gen))
                phases = 4.0 * p * dargs[None, :] + nodes[:, None] * dlogs[None, :]
                forms += column[:, None] * np.exp(1j * phases).sum(axis=1)
            weights = _grid_weights(lo, hi, n_panels, p, float(weight_cutoff))
            for row, form in enumerate(forms):
                totals[row] += float(wts @ (weights * np.abs(form) ** 2))
    return totals


# ---------------------------------------------------------------------------
# Kuznetsov geometric side
# ---------------------------------------------------------------------------


class KuznetsovGeometric(NamedTuple):
    diagonal: float
    kloosterman_term: complex
    tail_bound: float


def _divisor_tail_over_ideals(cut: float) -> float:
    """Upper bound for sum over ideals with N(c) > cut of tau(c) N(c)^{-3/2}.

    Writing tau(c) = #{(d, e) : d e = c} turns the sum into
    sum_d N(d)^{-3/2} G(cut / N(d)) with G(W) = sum_{N(e) > W} N(e)^{-3/2};
    G(W) = zeta_F(3/2) - (partial sum up to W), evaluated exactly from the
    enumerated ideal norms, and the d-range beyond the cut is bounded by
    G(cut) * zeta_F(3/2).
    """
    zf = ZETA_F_32_UPPER
    norms = np.array([ideal.norm for ideal in ideals_up_to_norm(max(cut, 1.0))], float)
    if norms.size == 0:
        return zf * zf
    powers = norms**-1.5
    partials = np.cumsum(powers)  # norms are nondecreasing by construction

    def g_tail(w: float) -> float:
        k = int(np.searchsorted(norms, w, side="right"))
        partial = partials[k - 1] if k else 0.0
        return max(zf - partial, 0.0)

    head = sum(powers[i] * g_tail(cut / norms[i]) for i in range(len(norms)))
    return float(head + g_tail(cut) * zf)


@lru_cache(maxsize=16)
def _kuznetsov_h(
    mn: GaussianInt, tf: TestFunction, c_norm_max: float, cfg: QuadratureConfig
) -> np.ndarray:
    """H(2 pi sqrt(mn)/c) and H(2 pi sqrt(mn)/(ic)) for every ideal (c) of
    norm <= c_norm_max, in ideals_up_to_norm order, from one batch of the
    weighted representation; read-only.

    The batch depends on m and n only through the product mn, so (m, n),
    (n, m), (-m, -n) and (im, -in) share one entry.  Coordinates below
    2^26 make the float product exact, so sqrt(complex(mn)) is the root of
    complex(m) * complex(n) bit for bit.
    """
    root = cmath.sqrt(complex(mn))
    zs = [
        2.0 * math.pi * root / complex(cc)
        for ideal in ideals_up_to_norm(c_norm_max)
        for cc in (ideal.gen, ideal.gen.times_i())
    ]
    h = bessel_integral_weighted(np.array(zs, dtype=complex), tf, cfg)
    h.setflags(write=False)
    return h


def kuznetsov_geometric(
    m: GaussianInt,
    n: GaussianInt,
    tf: TestFunction,
    c_norm_max: int,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> KuznetsovGeometric:
    """Diagonal, truncated Kloosterman term, and truncation tail bound of
    the geometric side for the pair (m, n).

    diagonal:          H_total/(8 pi^3) if m = +-n, else 0.
    kloosterman_term:  (1/(32 pi^3)) sum over elements c, 0 < N(c) <= cutoff,
                       of S(m, n; c)/N(c) * H(2 pi sqrt(mn)/c).
    tail_bound:        bound for the dropped |c|-range, from the Weil bound
                       |S(m, n; c)| <= 2 tau(c) sqrt(N((m, n, c)) N(c)) and
                       |H(z)| <= B |z|^2 with B the small-argument constant
                       of the weighted representation.

    S(m, n; -c) = S(m, n; c) by a -> -a, S(m, n; ic) = S(m, -n; c) by
    a -> ia, S is real and H is even: each ideal takes one row S(m, +-n; c)
    and two Bessel integrals, at c and at ic, for its four associates.  The
    rows come from kloosterman_sums, which builds the unit tables and sums
    of a run of consecutive ideals at once and keeps none of them; the
    Bessel integrals of all ideals are one batch, read from _kuznetsov_h,
    which keeps the batch of each recent product mn.
    A negative c_norm_max, or one of MAX_UNIT_NORM or more, raises
    DomainError; 0 gives an empty sum.
    """
    if m.is_zero() or n.is_zero():
        raise DomainError("kuznetsov_geometric requires nonzero m, n")
    if not 0 <= c_norm_max < MAX_UNIT_NORM:
        raise DomainError(f"kuznetsov_geometric needs c_norm_max >= 0 and below {MAX_UNIT_NORM}")
    h_total = plancherel_integral(tf)
    diagonal = h_total / (8.0 * math.pi**3) if (m == n or m == -n) else 0.0

    ideals = ideals_up_to_norm(c_norm_max)
    sums = kloosterman_sums([m], [n, -n], [ideal.gen for ideal in ideals])[:, 0, :]
    norms = np.array([ideal.norm for ideal in ideals], dtype=float)
    weights = (2.0 * sums / norms[:, None]).ravel()
    h = _kuznetsov_h(m * n, tf, c_norm_max, cfg)
    term = complex(math.fsum(np.multiply(weights, h)) / (32.0 * math.pi**3))

    b_const = small_z_bound_constant(tf)
    norm_g = gcd(m, n).norm
    prefactor = (
        2.0  # Weil constant
        * 4.0  # |z|^2 = 4 pi^2 sqrt(N(m) N(n)) / N(c)
        * math.pi**2
        * b_const
        * math.sqrt(m.norm * n.norm)
        * math.sqrt(norm_g)
        / (32.0 * math.pi**3)
    )
    tail = prefactor * 4.0 * _divisor_tail_over_ideals(float(max(c_norm_max, 0)))
    return KuznetsovGeometric(diagonal, term, tail)
