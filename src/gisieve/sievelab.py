"""Desk-scale experiments: brute-force sieve quantities against their bounds.

Three families of experiments, each reporting lhs / rhs ratios:

  quad form    F^gamma(d, theta, C, M, N) =
                 sum over ideals M < N(m) <= 2M, N < N(n) <= 2N, and
                 moduli C < N(c) <= 2C with (c, dmn) = (1), of
                 a_(m) conj(b_(n)) N(c)^gamma F(dmn; c) e[mn theta/c],
               against C^(1+gamma) (K + sqrt(M) + sqrt(N) + C sqrt(MN)/K)
               K^eps |a| |b|, where K = C + sqrt(CMN) |theta|;

  hybrid       sum over ideals N(c) <= C, primitive chi mod c, and
                 (t, p) with |t| <= T, |p| <= floor(T), of
                 |sum_n a_(n) chi(n) lambda_{it,p}(n)|^2,
               against (C^2 T^2 + N) (CT)^eps sum |a|^2;

  eisenstein   the Eisenstein sieve sum of the spectral module, against
               {TP(T^2+P^2) + TPN + ((T^2+P^2)/TP)(1/T^2+1/P^2) N^2}
               (TPN)^eps sum |a|^2.

The "<< ... ^eps" bounds come with no constants; the artifact fixes
eps = 0.1 and implied constant 1 and *reports* ratios rather than
asserting thresholds.  At desk scale the only checkable facts are that
the ratios are finite, scale-invariant, and stable under more trials.

Ideals are represented by canonical generators wherever an element is
required (the argument of F, the twist e[mn theta/c], the character and
lambda values); summing over canonical associates is what makes the
Groessencharakter parity condition moot.

Each experiment draws the +-1 sign vectors of all its trials, each from
its own seed key, as the rows of one coefficient matrix over one list of
ideals.  The trial-independent part of its form is built once: the
bilinear matrix Q of the quad form, the Gram matrix G of the hybrid
sieve, the divisor sums of the Eisenstein sieve.  G is the (t, p) kernel
times, entrywise, an integer matrix of congruences mod the prime power
divisors of each modulus; no character group or weight table is built.
Every trial's lhs then comes from it in one pass, and the single-sequence
functions are the one-row case of the same code.  The worst trial is the
first of largest ratio in trial-index order, so a report is a pure
function of (parameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from .expsums import f_sum_values
from .gauss import (
    DomainError,
    GaussianInt,
    GIdeal,
    divides_points,
    euler_phi,
    factor,
    ideals_up_to_norm,
    unit_positions,
    unit_tables,
)
from .spectral import CoefficientSequence, eisenstein_sieve_sum, eisenstein_sieve_sums

__all__ = [
    "EPSILON",
    "DESK_CAPS",
    "ExperimentReport",
    "make_report",
    "run_trials",
    "random_sign_sequence",
    "quad_form",
    "quad_form_bound_ratio",
    "quad_form_experiment",
    "hybrid_lhs",
    "hybrid_ratio",
    "hybrid_experiment",
    "eisenstein_ratio",
    "eisenstein_experiment",
]

#: Fixed stand-in for the arbitrarily small exponent in the target bounds.
EPSILON = 0.1

#: Default desk-scale limits; pass force=True to exceed them knowingly.
DESK_CAPS = {"modulus_norm": 1000.0, "sequence_norm": 100.0, "trials": 100}


def _check_caps(force: bool, *limits: tuple[str, float, float]) -> None:
    """Reject any (label, value, cap) whose value exceeds its cap."""
    if force:
        return
    for label, value, cap in limits:
        if value > cap:
            raise DomainError(
                f"{label} = {value} exceeds the desk-scale cap {cap}; "
                "pass force=True to run anyway"
            )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentReport:
    """One experiment outcome."""

    experiment: str
    parameters: tuple[tuple[str, str], ...]
    lhs: float
    rhs_bound: float
    trials: int
    seed: int

    @property
    def ratio(self) -> float:
        """lhs / rhs_bound, 0 if rhs_bound is 0."""
        return _ratio(self.lhs, self.rhs_bound)

    def csv_header(self) -> str:
        names = ",".join(name for name, _ in self.parameters)
        return f"experiment,{names},trials,lhs,rhs,ratio,seed"

    def csv_row(self) -> str:
        vals = ",".join(value for _, value in self.parameters)
        return (
            f"{self.experiment},{vals},{self.trials},"
            f"{self.lhs!r},{self.rhs_bound!r},{self.ratio!r},{self.seed}"
        )

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "parameters": dict(self.parameters),
            "trials": self.trials,
            "lhs": self.lhs,
            "rhs": self.rhs_bound,
            "ratio": self.ratio,
            "seed": self.seed,
        }


def _ratio(lhs: float, rhs: float) -> float:
    return lhs / rhs if rhs > 0 else 0.0


def _render(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def make_report(
    experiment: str,
    parameters: Mapping[str, object],
    lhs: float,
    rhs_bound: float,
    trials: int,
    seed: int,
) -> ExperimentReport:
    return ExperimentReport(
        experiment,
        tuple((k, _render(v)) for k, v in parameters.items()),
        lhs,
        rhs_bound,
        trials,
        seed,
    )


# ---------------------------------------------------------------------------
# Trials
# ---------------------------------------------------------------------------

R = TypeVar("R")


def run_trials(task: Callable[[int], R], trials: int) -> list[R]:
    """[task(0), ..., task(trials - 1)], in index order."""
    return [task(index) for index in range(trials)]


#: One trial's (lhs, rhs, parameters), as the *_ratio functions return it.
Trial = tuple[float, float, dict[str, object]]


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise DomainError("trials must be >= 1")


def _worst_trial(
    experiment: str, one: Callable[[int], Trial], trials: int, seed: int
) -> ExperimentReport:
    """The report of the trial of largest ratio (the first of any ties),
    with the number of trials and the seed."""
    _require_trials(trials)
    lhs, rhs, params = max(run_trials(one, trials), key=lambda t: _ratio(t[0], t[1]))
    return make_report(experiment, params, lhs, rhs, trials, seed)


def _sign_rows(
    norm_window: tuple[float, float], seed_keys: Sequence[Sequence[int] | int]
) -> tuple[list[GIdeal], np.ndarray]:
    """The ideals of the window (lo, hi], and one row of iid +-1 signs on
    them per seed key, each row drawn from its own key."""
    lo, hi = norm_window
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"norm window ({lo}, {hi}] is not finite")
    ideals = [ideal for ideal in ideals_up_to_norm(hi) if ideal.norm > lo]
    if not ideals:
        raise DomainError(f"empty norm window ({lo}, {hi}]")
    rows = [np.random.default_rng(key).integers(0, 2, size=len(ideals)) for key in seed_keys]
    return ideals, np.array(rows) * 2 - 1


def random_sign_sequence(
    norm_window: tuple[float, float], seed_key: Sequence[int] | int
) -> CoefficientSequence:
    """Coefficients +-1 (iid, from seed_key) on every ideal in the window."""
    lo, hi = norm_window
    ideals, rows = _sign_rows((lo, hi), [seed_key])
    return CoefficientSequence(
        tuple((ideal, complex(int(s))) for ideal, s in zip(ideals, rows[0])),
        (lo, hi),
    )


def _support(seq: CoefficientSequence) -> tuple[list[GIdeal], np.ndarray]:
    """The ideals of seq's nonzero entries, and those entries as one row."""
    entries = [(ideal, coeff) for ideal, coeff in seq.entries if coeff != 0]
    return [ideal for ideal, _ in entries], np.array([[c for _, c in entries]], dtype=complex)


# ---------------------------------------------------------------------------
# Quadratic form with Kloosterman sums
# ---------------------------------------------------------------------------


def _window_check(
    ideals: Sequence[GIdeal], rows: np.ndarray, lo: float, hi: float, label: str
) -> None:
    for ideal, column in zip(ideals, rows.T):
        if column.any() and not (lo < ideal.norm <= hi):
            raise DomainError(
                f"{label}-entry at norm {ideal.norm} outside window ({lo}, {hi}]"
            )


def _quad_form_rows(
    d: GaussianInt,
    theta: complex,
    gamma: float,
    C: float,
    M: float,
    N: float,
    ms: Sequence[GIdeal],
    a_rows: np.ndarray,
    ns: Sequence[GIdeal],
    b_rows: np.ndarray,
    *,
    force: bool = False,
) -> np.ndarray:
    """quad_form of every pair of rows (a_rows[k] on the ideals ms, b_rows[k]
    on the ideals ns): one value a Q conj(b) per k.

    Q[m, n] = sum over moduli c with C < N(c) <= 2C and (c, dmn) = (1) of
    N(c)^gamma F(dmn; c) e[mn theta/c] is built once.  Per modulus, F(dmn; c)
    is read for every pair (m, n) at once from the table of F over the units
    mod c, built with the unit table of c for that modulus alone; a pair
    with dmn not a unit gets no term.
    """
    if d.is_zero():
        raise DomainError("quad_form requires d != 0")
    if theta == 0:
        raise DomainError("quad_form requires theta != 0")
    if not (np.isfinite([theta, gamma]).all() and all(0.5 <= v < math.inf for v in (C, M, N))):
        raise DomainError("quad_form requires finite theta, gamma and finite C, M, N >= 1/2")
    _check_caps(
        force,
        ("2C", 2 * C, DESK_CAPS["modulus_norm"]),
        ("M", M, DESK_CAPS["sequence_norm"]),
        ("N", N, DESK_CAPS["sequence_norm"]),
    )
    _window_check(ms, a_rows, M, 2 * M, "a")
    _window_check(ns, b_rows, N, 2 * N, "b")
    moduli = [ideal.gen for ideal in ideals_up_to_norm(2 * C) if ideal.norm > C]
    mns = [m.gen * n.gen for m in ms for n in ns]
    mx = np.array([mn.re for mn in mns], dtype=np.int64)
    my = np.array([mn.im for mn in mns], dtype=np.int64)
    twist = (mx + 1j * my) * complex(theta)
    Q = np.zeros(len(mns), dtype=complex)
    for c, units in zip(moduli, unit_tables(moduli)):
        # d mod N(c) is in the class of d mod c (N(c) = c conj(c)), and small
        # enough that d * mn stays exact in int64 for any d
        dx, dy = d.re % c.norm, d.im % c.norm
        pos = unit_positions(c, units, dx * mx - dy * my, dx * my + dy * mx)
        unit = pos >= 0
        # e[mn theta / c] = exp(2 pi i Re(mn theta / c))
        phase = np.exp(2j * np.pi * np.real(twist[unit] / complex(c)))
        Q[unit] += float(c.norm) ** gamma * (f_sum_values(c, units)[pos[unit]] * phase)
    Q = Q.reshape(len(ms), len(ns))
    return ((np.asarray(a_rows, dtype=complex) @ Q) * np.conj(b_rows)).sum(axis=1)


def quad_form(
    d: GaussianInt,
    theta: complex,
    gamma: float,
    C: float,
    M: float,
    N: float,
    a: CoefficientSequence,
    b: CoefficientSequence,
    *,
    force: bool = False,
) -> complex:
    """Exact triple sum F^gamma(d, theta, C, M, N) by brute force.

    m runs over ideals with M < N(m) <= 2M carrying a, n likewise for b,
    and c over canonical generators with C < N(c) <= 2C and (c, dmn) = (1):
    the one-row case of the experiment's bilinear matrix.
    """
    rows = _quad_form_rows(d, theta, gamma, C, M, N, *_support(a), *_support(b), force=force)
    return complex(rows[0])


def _quad_form_rhs(
    theta: complex, gamma: float, C: float, M: float, N: float, a_norm: float, b_norm: float
) -> float:
    K = C + math.sqrt(C * M * N) * abs(theta)
    return (
        C ** (1.0 + gamma)
        * (K + math.sqrt(M) + math.sqrt(N) + C * math.sqrt(M * N) / K)
        * K**EPSILON
        * a_norm
        * b_norm
    )


def quad_form_bound_ratio(
    d: GaussianInt,
    theta: complex,
    gamma: float,
    C: float,
    M: float,
    N: float,
    a: CoefficientSequence,
    b: CoefficientSequence,
    *,
    force: bool = False,
) -> Trial:
    """(lhs, rhs, parameters): |quad_form| against C^(1+gamma)(K + sqrt(M)
    + sqrt(N) + C sqrt(MN)/K) K^eps |a| |b| with K = C + sqrt(CMN)|theta|,
    eps = EPSILON, constant 1."""
    lhs = abs(quad_form(d, theta, gamma, C, M, N, a, b, force=force))
    rhs = _quad_form_rhs(theta, gamma, C, M, N, a.l2_norm(), b.l2_norm())
    params = {"d": d, "theta": complex(theta), "gamma": gamma, "C": C, "M": M, "N": N}
    return lhs, rhs, params


def quad_form_experiment(
    d: GaussianInt,
    theta: complex,
    gamma: float,
    C: float,
    M: float,
    N: float,
    trials: int = 20,
    seed: int = 1,
    *,
    force: bool = False,
) -> ExperimentReport:
    """Max ratio over random +-1 sequence pairs; reports the worst trial."""
    _check_caps(force, ("trials", trials, DESK_CAPS["trials"]))
    _require_trials(trials)
    ms, a_rows = _sign_rows((M, 2 * M), [[seed, 2 * index] for index in range(trials)])
    ns, b_rows = _sign_rows((N, 2 * N), [[seed, 2 * index + 1] for index in range(trials)])
    lhs = _quad_form_rows(d, theta, gamma, C, M, N, ms, a_rows, ns, b_rows, force=force)
    # every row is +-1 on its window, so |a| = sqrt(len(ms)) and |b| = sqrt(len(ns))
    rhs = _quad_form_rhs(theta, gamma, C, M, N, math.sqrt(len(ms)), math.sqrt(len(ns)))
    params = {"d": d, "theta": complex(theta), "gamma": gamma, "C": C, "M": M, "N": N}
    # |lhs| by Python's abs, as quad_form_bound_ratio takes it (np.abs can differ by 1 ulp)
    return _worst_trial(
        "quad_form", lambda index: (abs(complex(lhs[index])), rhs, params), trials, seed
    )


# ---------------------------------------------------------------------------
# Hybrid (character x Groessencharakter) sieve
# ---------------------------------------------------------------------------


def _hybrid_rows(
    C: float, T: float, ideals: Sequence[GIdeal], rows: np.ndarray, *, force: bool = False
) -> np.ndarray:
    """hybrid_lhs of every row of coefficients on the ideals: one value
    Re(a G conj(a)) per row, from one n x n Gram matrix G.

    The t-integral is done in closed form: with L_j = log|n_j| the square
    expands into pairs, and each pair integrates to 2 sin(T(L_j - L_k)) /
    (L_j - L_k) (diagonal 2T).  lambda and chi are evaluated on canonical
    generators.  The sum over |p| <= P = floor(T) joins this kernel K as
    the factor sum_p e^{ip theta} = sin((P + 1/2) theta) / sin(theta / 2),
    theta = arg_j - arg_k (2P + 1 at theta = 0), in O(n^2) memory for
    every T.  The sum over moduli and primitive chi of
    chi(n_j) conj(chi(n_k)) is the integer matrix _primitive_character_sums,
    so G = K * that matrix, entrywise.
    """
    if not (1 <= C < math.inf and 1 <= T < math.inf):
        raise DomainError("hybrid_lhs requires finite C, T >= 1")
    _check_caps(force, ("C", C, DESK_CAPS["modulus_norm"]))
    rows = np.asarray(rows, dtype=complex)
    if not ideals:
        return np.zeros(len(rows))
    gens = [ideal.gen for ideal in ideals]
    logs = np.array([0.5 * math.log(g.norm) for g in gens])
    args = np.array([math.atan2(g.im, g.re) for g in gens])
    delta = logs[:, None] - logs[None, :]
    safe = np.where(delta == 0.0, 1.0, delta)
    kernel = np.where(delta == 0.0, 2.0 * T, 2.0 * np.sin(T * safe) / safe)
    theta = args[:, None] - args[None, :]
    half = np.where(theta == 0.0, 1.0, np.sin(0.5 * theta))
    P = int(T)
    kernel = kernel * np.where(theta == 0.0, 2.0 * P + 1, np.sin((P + 0.5) * theta) / half)
    gram = kernel * _primitive_character_sums(C, gens)
    return np.real(((rows @ gram) * np.conj(rows)).sum(axis=1))


def _primitive_character_sums(C: float, gens: Sequence[GaussianInt]) -> np.ndarray:
    """The int64 matrix of sums over N(c) <= C and primitive chi mod c of
    chi(g_j) conj(chi(g_k)).  By Moebius inversion over conductors and the
    CRT, the sum at c is a product over p^e || c of [(g_j g_k, p) = 1] times
    phi(p^e) [p^e | g_j - g_k] - phi(p^(e-1)) [p^(e-1) | g_j - g_k], phi((1)) = 1."""
    x, y = np.array([(g.re, g.im) for g in gens], dtype=np.int64).T
    dx, dy = x[:, None] - x[None, :], y[:, None] - y[None, :]
    total = np.zeros((len(gens), len(gens)), dtype=np.int64)
    for ideal in ideals_up_to_norm(C):
        term = np.ones_like(total)
        for p, e in factor(ideal.gen).factors:
            unit = ~divides_points(p.gen, x, y)
            q, r = p.gen**e, p.gen ** (e - 1)
            local = euler_phi(GIdeal.of(q)) * divides_points(q, dx, dy)
            local -= euler_phi(GIdeal.of(r)) * divides_points(r, dx, dy) if e > 1 else 1
            term *= local * np.outer(unit, unit)
        total += term
    return total


def hybrid_lhs(C: float, T: float, a: CoefficientSequence, *, force: bool = False) -> float:
    """sum over N(c) <= C and primitive chi mod c of the integral over
    |t| <= T, p in Z with |p| <= floor(T), of
    |sum_n a_(n) chi(n) lambda_{it,p}(n)|^2: the one-row case of the
    experiment's Gram matrix, over a's nonzero entries.
    """
    return float(_hybrid_rows(C, T, *_support(a), force=force)[0])


def _hybrid_rhs(C: float, T: float, N: float, norm_sq: float) -> float:
    return (C**2 * T**2 + N) * (C * T) ** EPSILON * norm_sq


def hybrid_ratio(C: float, T: float, a: CoefficientSequence, *, force: bool = False) -> Trial:
    """(lhs, rhs, parameters): hybrid_lhs against (C^2 T^2 + N)(CT)^eps
    sum|a|^2, N the window top."""
    lhs = hybrid_lhs(C, T, a, force=force)
    N = a.norm_window[1]
    norm_sq = sum(abs(v) ** 2 for _, v in a.entries)
    return lhs, _hybrid_rhs(C, T, N, norm_sq), {"C": C, "T": T, "N": N}


def hybrid_experiment(
    C: float,
    T: float,
    N: float,
    trials: int = 50,
    seed: int = 2,
    *,
    force: bool = False,
) -> ExperimentReport:
    """Max hybrid ratio over random +-1 sequences supported on [1, N]."""
    _check_caps(
        force, ("trials", trials, DESK_CAPS["trials"]), ("N", N, DESK_CAPS["sequence_norm"])
    )
    _require_trials(trials)
    ideals, rows = _sign_rows((0, N), [[seed, index] for index in range(trials)])
    lhs = _hybrid_rows(C, T, ideals, rows, force=force)
    rhs = _hybrid_rhs(C, T, N, float(len(ideals)))  # sum |a|^2 of a +-1 row
    params = {"C": C, "T": T, "N": N}
    return _worst_trial("hybrid", lambda index: (float(lhs[index]), rhs, params), trials, seed)


# ---------------------------------------------------------------------------
# Eisenstein side
# ---------------------------------------------------------------------------


def _eisenstein_rhs(T: float, P: float, N: float, norm_sq: float) -> float:
    return (
        (
            T * P * (T**2 + P**2)
            + T * P * N
            + ((T**2 + P**2) / (T * P)) * (1.0 / T**2 + 1.0 / P**2) * N**2
        )
        * (T * P * N) ** EPSILON
        * norm_sq
    )


def eisenstein_ratio(T: float, P: float, a: CoefficientSequence) -> Trial:
    """(lhs, rhs, parameters): eisenstein_sieve_sum(a, T, P) against the
    square-coefficient bound {TP(T^2+P^2) + TPN +
    ((T^2+P^2)/TP)(1/T^2+1/P^2)N^2}(TPN)^eps sum|a|^2."""
    lhs = eisenstein_sieve_sum(a, T, P)
    N = a.norm_window[1]
    norm_sq = sum(abs(v) ** 2 for _, v in a.entries)
    return lhs, _eisenstein_rhs(T, P, N, norm_sq), {"T": T, "P": P, "N": N}


def eisenstein_experiment(
    T: float,
    P: float,
    N: float,
    trials: int = 80,
    seed: int = 3,
    *,
    force: bool = False,
) -> ExperimentReport:
    """Max Eisenstein ratio over random +-1 sequences supported on [1, N]."""
    _check_caps(
        force, ("trials", trials, DESK_CAPS["trials"]), ("N", N, DESK_CAPS["sequence_norm"])
    )
    _require_trials(trials)
    ideals, rows = _sign_rows((0, N), [[seed, index] for index in range(trials)])
    lhs = eisenstein_sieve_sums(ideals, rows, T, P)
    rhs = _eisenstein_rhs(T, P, N, float(len(ideals)))  # sum |a|^2 of a +-1 row
    params = {"T": T, "P": P, "N": N}
    return _worst_trial("eisenstein", lambda index: (float(lhs[index]), rhs, params), trials, seed)
