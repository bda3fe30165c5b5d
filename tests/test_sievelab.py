"""Tests for the desk-scale experiment layer.

Covers the report dataclass and its consistency guard, the trial loop,
random sign sequences, and the three experiment families.  The
quadratic form is checked against an independent residue-level oracle
(own Euclid gcd, own canonical-generator scan, Kloosterman sums from the
first-principles helper in test_expsums); the hybrid sieve sum is
checked against direct Gauss-Legendre integration of the defining
t-integral.  The batched forms (the bilinear matrix Q and the Gram
matrix G, built once per experiment) are checked row by row against
the per-sequence loops that each trial used to run, and the hybrid
sieve's integer character matrix entry by entry against the character
groups' weight tables.
"""

from __future__ import annotations

import argparse
import cmath
import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gisieve.characters import char_group
from gisieve.expsums import _exp_table, f_sum_values
from gisieve.gauss import (
    DomainError,
    GaussianInt,
    GIdeal,
    ideals_up_to_norm,
    unit_positions,
    unit_table,
)
from gisieve.sievelab import (
    DESK_CAPS,
    EPSILON,
    ExperimentReport,
    eisenstein_experiment,
    eisenstein_ratio,
    hybrid_experiment,
    hybrid_lhs,
    hybrid_ratio,
    make_report,
    quad_form,
    quad_form_bound_ratio,
    quad_form_experiment,
    random_sign_sequence,
    run_trials,
    _hybrid_rows,
    _primitive_character_sums,
    _quad_form_rows,
    _sign_rows,
    _worst_trial,
)
from gisieve.spectral import CoefficientSequence, eisenstein_sieve_sum
from conftest import make_sequence
from test_expsums import brute_kloosterman
from test_spectral import coefficient_rows

ONE = GaussianInt(1, 0)


def _seq(coeffs: dict[tuple[int, int], complex], window=None) -> CoefficientSequence:
    return make_sequence({GIdeal.of(GaussianInt(x, y)): v for (x, y), v in coeffs.items()}, window)


def _e(x: float) -> complex:
    return cmath.exp(2j * math.pi * x)


# ---------------------------------------------------------------------------
# Module constants
# ---------------------------------------------------------------------------


def test_constants_pinned():
    assert EPSILON == 0.1
    assert DESK_CAPS == {"modulus_norm": 1000.0, "sequence_norm": 100.0, "trials": 100}


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_report_ratio_is_lhs_over_rhs():
    rep = ExperimentReport("demo", (("C", "2.0"),), 1.0, 2.0, 1, 0)
    assert rep.ratio == 0.5
    assert rep.to_json_dict()["ratio"] == 0.5


def test_report_zero_rhs_means_zero_ratio():
    assert ExperimentReport("demo", (), 0.0, 0.0, 1, 0).ratio == 0.0
    assert ExperimentReport("demo", (), 3.0, 0.0, 1, 0).ratio == 0.0


def test_make_report_renders_parameters():
    rep = make_report("demo", {"C": 2.0, "d": GaussianInt(2, 1)}, 1.5, 3.0, 4, 7)
    assert rep.parameters == (("C", "2.0"), ("d", "2+i"))
    assert rep.ratio == 0.5
    assert rep.csv_header() == "experiment,C,d,trials,lhs,rhs,ratio,seed"
    assert rep.csv_row() == "demo,2.0,2+i,4,1.5,3.0,0.5,7"


def test_report_json_round_trip():
    rep = make_report("demo", {"T": 2.0}, 1.0, 4.0, 2, 5)
    blob = json.dumps(rep.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back == {
        "experiment": "demo",
        "parameters": {"T": "2.0"},
        "trials": 2,
        "lhs": 1.0,
        "rhs": 4.0,
        "ratio": 0.25,
        "seed": 5,
    }


# ---------------------------------------------------------------------------
# Trial plumbing
# ---------------------------------------------------------------------------


def test_run_trials_merges_in_index_order():
    assert run_trials(lambda i: i * i, 17) == [i * i for i in range(17)]


def test_run_trials_empty():
    assert run_trials(lambda i: i, 0) == []
    assert run_trials(lambda i: i, -3) == []


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("force", [False, True])
def test_experiments_need_at_least_one_trial(trials, force):
    with pytest.raises(DomainError, match="trials must be >= 1"):
        quad_form_experiment(ONE, 1.0, 0.0, 2.0, 2.0, 2.0, trials, force=force)
    with pytest.raises(DomainError, match="trials must be >= 1"):
        hybrid_experiment(2.0, 1.0, 5.0, trials, force=force)
    with pytest.raises(DomainError, match="trials must be >= 1"):
        eisenstein_experiment(2.0, 1.0, 5.0, trials, force=force)


# ---------------------------------------------------------------------------
# Random sign sequences
# ---------------------------------------------------------------------------


def test_random_sign_sequence_deterministic_and_full_support():
    a = random_sign_sequence((0, 50), [5, 7])
    b = random_sign_sequence((0, 50), [5, 7])
    assert a == b
    assert a.norm_window == (0, 50)
    want = [ideal for ideal in ideals_up_to_norm(50)]
    assert [ideal for ideal, _ in a.entries] == want
    assert all(v in (1 + 0j, -1 + 0j) for _, v in a.entries)


def test_random_sign_sequence_varies_with_seed():
    a = random_sign_sequence((0, 50), [5, 7])
    c = random_sign_sequence((0, 50), [5, 8])
    assert a != c


@given(st.integers(min_value=0, max_value=10**6))
def test_random_sign_sequence_values(seed):
    seq = random_sign_sequence((2, 10), [seed])
    assert all(v.imag == 0 and abs(v.real) == 1 for _, v in seq.entries)
    assert all(2 < ideal.norm <= 10 for ideal, _ in seq.entries)


def test_random_sign_sequence_empty_window():
    with pytest.raises(DomainError, match=r"empty norm window \(5.5, 5.9\]"):
        random_sign_sequence((5.5, 5.9), [0])


# ---------------------------------------------------------------------------
# Quadratic form: validation
# ---------------------------------------------------------------------------


def test_quad_form_rejects_bad_arguments():
    a = _seq({(1, 0): 1.0})
    with pytest.raises(DomainError, match="d != 0"):
        quad_form(GaussianInt(0, 0), 0.5, 0.0, 0.5, 0.5, 0.5, a, a)
    with pytest.raises(DomainError, match="theta != 0"):
        quad_form(ONE, 0.0, 0.0, 0.5, 0.5, 0.5, a, a)
    with pytest.raises(DomainError, match=">= 1/2"):
        quad_form(ONE, 0.5, 0.0, 0.4, 0.5, 0.5, a, a)


def test_quad_form_desk_caps_and_force():
    a = _seq({(1, 0): 1.0})
    big = _seq({(11, 0): 2.0 - 1.0j}, (101, 202))
    with pytest.raises(DomainError, match="M = 101 exceeds the desk-scale cap"):
        quad_form(ONE, 0.3, 0.0, 0.5, 101, 0.5, big, a)
    # force=True runs the same parameters; the single surviving cell is
    # a_(11) conj(b_(1)) F(11; 1) e[11 theta] with F(.; 1) = 1.
    got = quad_form(ONE, 0.3, 0.0, 0.5, 101, 0.5, big, a, force=True)
    want = (2.0 - 1.0j) * _e(11 * 0.3)
    assert got == pytest.approx(want, rel=1e-12)


def test_quad_form_rejects_entries_outside_window():
    a = _seq({(1, 0): 1.0})
    with pytest.raises(DomainError, match=r"a-entry at norm 1 outside window \(1.0, 2.0\]"):
        quad_form(ONE, 0.5, 0.0, 0.5, 1.0, 0.5, a, a)


# ---------------------------------------------------------------------------
# Quadratic form: hand values and the independent oracle
# ---------------------------------------------------------------------------


def test_quad_form_unit_modulus_cell():
    # Windows (1/2, 1] pin m = n = (1) and c = 1, so the triple sum is the
    # single term a conj(b) F(d; 1) e[theta], and F(w; 1) = 1.
    a1, b1 = 2.0 - 1.0j, 0.5 + 0.25j
    theta = 0.3 + 0.7j
    got = quad_form(ONE, theta, 0.0, 0.5, 0.5, 0.5, _seq({(1, 0): a1}), _seq({(1, 0): b1}))
    assert got == pytest.approx(a1 * b1.conjugate() * _e(0.3), rel=1e-12)


def test_quad_form_single_even_modulus_cell():
    # C = 2 pins c = 2 (the only ideal of norm in (2, 4]).  F(1; 2) = 2:
    # the units mod 2 are 1 and i, both self-inverse, and both terms of
    # S(1, 1; 2) are e[1] = 1; the outer factor e[2/2] is also 1.
    a1, b1 = 1.0 + 0.0j, 1.0 - 2.0j
    theta = 0.3 + 0.7j
    got = quad_form(ONE, theta, 0.0, 2.0, 0.5, 0.5, _seq({(1, 0): a1}), _seq({(1, 0): b1}))
    assert got == pytest.approx(a1 * b1.conjugate() * 2.0 * _e(0.15), rel=1e-12)


@given(st.floats(min_value=-2.0, max_value=2.0))
def test_quad_form_gamma_rescales_single_norm_window(gamma):
    # With every modulus in the window of the same norm (here just c = 2,
    # norm 4), the gamma-weight factors out: F^gamma = 4^gamma F^0.
    a = _seq({(1, 0): 1.0 + 1.0j})
    b = _seq({(1, 0): 0.5 - 0.25j})
    base = quad_form(ONE, 0.4, 0.0, 2.0, 0.5, 0.5, a, b)
    got = quad_form(ONE, 0.4, gamma, 2.0, 0.5, 0.5, a, b)
    assert got == pytest.approx(4.0**gamma * base, rel=1e-12)


def test_quad_form_skips_moduli_sharing_a_factor():
    # d = 1+i makes w = d m n even while the only modulus, c = 2, is even
    # too, so every cell is skipped.
    a = _seq({(1, 0): 1.0})
    assert quad_form(GaussianInt(1, 1), 0.5, 0.0, 2.0, 0.5, 0.5, a, a) == 0


def _gcd_pair(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Euclid on Gaussian integers as coordinate pairs, rounded quotients."""
    while v != (0, 0):
        (a, b), (c, d) = u, v
        n = c * c + d * d
        xr, xi = a * c + b * d, b * c - a * d
        qr = (2 * xr + n) // (2 * n)
        qi = (2 * xi + n) // (2 * n)
        u, v = v, (a - qr * c + qi * d, b - qr * d - qi * c)
    return u


def _oracle_quad_form(d, theta, gamma, C, M, N, a_map, b_map):
    """Triple sum recomputed from first principles.

    Canonical generators are rescanned (re >= 1, im >= 0), coprimality
    uses the local Euclid gcd, and F comes from the brute-force
    Kloosterman sum: F(w; c) = S(w^2, 1; c) e[2w/c].
    """

    def gens(lo, hi):
        top = int(math.isqrt(int(hi)))
        return [
            (x, y)
            for x in range(1, top + 1)
            for y in range(0, top + 1)
            if lo < x * x + y * y <= hi
        ]

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    total = 0j
    for m, am in a_map.items():
        assert M < m[0] ** 2 + m[1] ** 2 <= 2 * M
        for n, bn in b_map.items():
            assert N < n[0] ** 2 + n[1] ** 2 <= 2 * N
            mn = mul(m, n)
            w = mul((d.re, d.im), mn)
            for c in gens(C, 2 * C):
                g = _gcd_pair(w, c)
                if g[0] ** 2 + g[1] ** 2 != 1:
                    continue
                cz = complex(*c)
                norm_c = c[0] ** 2 + c[1] ** 2
                w2 = mul(w, w)
                s = brute_kloosterman(GaussianInt(*w2), ONE, GaussianInt(*c))
                f_val = s * _e((2 * complex(*w) / cz).real)
                twist = complex(*mn) * theta
                total += (
                    am
                    * bn.conjugate()
                    * norm_c**gamma
                    * f_val
                    * _e((twist / cz).real)
                )
    return total


def test_quad_form_matches_residue_level_oracle():
    theta = 0.3 - 0.2j
    a_map = {(2, 1): 1.0 + 0j, (1, 2): -0.5 + 0.25j, (2, 2): 0.75j}
    b_map = {(1, 0): 2.0 - 1.0j}
    a = _seq({k: v for k, v in a_map.items()}, (4, 8))
    b = _seq({k: v for k, v in b_map.items()}, (0.5, 1))
    got = quad_form(ONE, theta, 0.5, 4.0, 4.0, 0.5, a, b)
    want = _oracle_quad_form(ONE, theta, 0.5, 4.0, 4.0, 0.5, a_map, b_map)
    assert got == pytest.approx(want, rel=1e-9)
    assert abs(got) > 1e-6  # the comparison is not vacuous


def test_quad_form_matches_oracle_with_common_factors():
    # d = 1+i forces nontrivial coprimality decisions: w = 2i m shares a
    # factor with c exactly when (m) = (c) or c is even.
    d = GaussianInt(1, 1)
    theta = -0.15 + 0.4j
    a_map = {(2, 1): 0.5 + 0.5j, (1, 2): 1.0 + 0j, (2, 2): -0.25j}
    b_map = {(1, 1): 1.5 + 0j}
    a = _seq({k: v for k, v in a_map.items()}, (4, 8))
    b = _seq({k: v for k, v in b_map.items()}, (1, 2))
    got = quad_form(d, theta, -0.5, 4.0, 4.0, 1.0, a, b)
    want = _oracle_quad_form(d, theta, -0.5, 4.0, 4.0, 1.0, a_map, b_map)
    assert got == pytest.approx(want, rel=1e-9)
    assert abs(got) > 1e-6


def test_quad_form_reads_d_by_its_class_mod_each_modulus():
    # F(dmn; c) depends on d mod c only: d and d + K(1 - i), with K a
    # multiple of every N(c) and far beyond int64, give the same sum
    d, C = GaussianInt(1, 1), 4.0
    K = 10**20 * math.prod(i.norm for i in ideals_up_to_norm(2 * C) if i.norm > C)
    a = random_sign_sequence((4, 8), [1])
    b = random_sign_sequence((1, 2), [2])
    want = quad_form(d, 0.3, 0.0, C, 4.0, 1.0, a, b)
    assert quad_form(d + GaussianInt(K, -K), 0.3, 0.0, C, 4.0, 1.0, a, b) == want
    assert abs(want) > 1e-6


# ---------------------------------------------------------------------------
# Quadratic form: reports
# ---------------------------------------------------------------------------


def test_quad_form_bound_ratio_formula():
    a = random_sign_sequence((2, 4), [1])
    b = random_sign_sequence((2, 4), [2])
    d, theta, gamma, C, M, N = ONE, 0.25, 0.5, 4.0, 2.0, 2.0
    lhs, rhs, params = quad_form_bound_ratio(d, theta, gamma, C, M, N, a, b)
    assert params == {"d": d, "theta": complex(theta), "gamma": gamma, "C": C, "M": M, "N": N}
    assert lhs == pytest.approx(abs(quad_form(d, theta, gamma, C, M, N, a, b)))
    K = C + math.sqrt(C * M * N) * abs(theta)
    want_rhs = (
        C ** (1 + gamma)
        * (K + math.sqrt(M) + math.sqrt(N) + C * math.sqrt(M * N) / K)
        * K**EPSILON
        * a.l2_norm()
        * b.l2_norm()
    )
    assert rhs == pytest.approx(want_rhs, rel=1e-12)


def test_quad_form_experiment_reports_its_trial():
    # one trial: the report carries that trial's sides and parameters,
    # with the experiment's own trial count and seed
    rep = quad_form_experiment(ONE, 0.25, 0.5, 4.0, 2.0, 2.0, trials=1, seed=5)
    a = random_sign_sequence((2.0, 4.0), [5, 0])
    b = random_sign_sequence((2.0, 4.0), [5, 1])
    lhs, rhs, params = quad_form_bound_ratio(ONE, 0.25, 0.5, 4.0, 2.0, 2.0, a, b)
    assert rep == make_report("quad_form", params, lhs, rhs, 1, 5)


def test_hybrid_experiment_reports_its_trial():
    rep = hybrid_experiment(5.0, 2.0, 10.0, trials=1, seed=5)
    lhs, rhs, params = hybrid_ratio(5.0, 2.0, random_sign_sequence((0, 10.0), [5, 0]))
    assert rep == make_report("hybrid", params, lhs, rhs, 1, 5)


def test_eisenstein_experiment_reports_its_trial():
    rep = eisenstein_experiment(2.0, 4.0, 10.0, trials=1, seed=5)
    lhs, rhs, params = eisenstein_ratio(2.0, 4.0, random_sign_sequence((0, 10.0), [5, 0]))
    assert rep == make_report("eisenstein", params, lhs, rhs, 1, 5)


def test_worst_trial_takes_the_first_largest_ratio():
    # ratios 0.5, 1.5, 1.5 and 0 (zero rhs): the first 1.5 wins
    trials = [
        (1.0, 2.0, {"k": 0}),
        (3.0, 2.0, {"k": 1}),
        (1.5, 1.0, {"k": 2}),
        (0.0, 0.0, {"k": 3}),
    ]
    rep = _worst_trial("demo", lambda index: trials[index], 4, 9)
    assert rep == make_report("demo", {"k": 1}, 3.0, 2.0, 4, 9)
    with pytest.raises(DomainError, match="trials"):
        _worst_trial("demo", lambda index: trials[index], 0, 9)


def test_quad_form_ratio_scale_invariant():
    a = random_sign_sequence((2, 4), [3])
    b = random_sign_sequence((2, 4), [4])
    lhs, rhs, _ = quad_form_bound_ratio(ONE, 0.25, 0.0, 4.0, 2.0, 2.0, a, b)
    lhs6, rhs6, _ = quad_form_bound_ratio(
        ONE, 0.25, 0.0, 4.0, 2.0, 2.0, a.scaled(3.0), b.scaled(2.0)
    )
    assert lhs6 / rhs6 == pytest.approx(lhs / rhs, rel=1e-12)
    assert lhs6 == pytest.approx(6.0 * lhs, rel=1e-12)


def test_quad_form_cap_names_the_doubled_modulus():
    # the moduli run over C < N(c) <= 2C, so the cap applies to 2C
    with pytest.raises(DomainError, match=r"2C = 1200\.0 exceeds the desk-scale cap 1000\.0"):
        quad_form_experiment(ONE, 1.0, 0.0, 600.0, 5.0, 5.0, trials=1)


def test_quad_form_experiment_deterministic():
    first = quad_form_experiment(ONE, 0.3, 0.0, 2.0, 1.0, 1.0, trials=5, seed=9)
    second = quad_form_experiment(ONE, 0.3, 0.0, 2.0, 1.0, 1.0, trials=5, seed=9)
    assert first == second
    assert first.trials == 5
    assert first.seed == 9
    assert dict(first.parameters).keys() == {"d", "theta", "gamma", "C", "M", "N"}
    assert math.isfinite(first.ratio) and first.ratio >= 0
    with pytest.raises(DomainError, match="trials = 101 exceeds"):
        quad_form_experiment(ONE, 0.3, 0.0, 2.0, 1.0, 1.0, trials=101)


# ---------------------------------------------------------------------------
# Hybrid sieve sum
# ---------------------------------------------------------------------------


def test_hybrid_lhs_validation():
    a = _seq({(1, 0): 1.0})
    with pytest.raises(DomainError, match=">= 1"):
        hybrid_lhs(0.5, 2.0, a)
    with pytest.raises(DomainError, match=">= 1"):
        hybrid_lhs(2.0, 0.5, a)
    with pytest.raises(DomainError, match="C = 1001.0 exceeds"):
        hybrid_lhs(1001.0, 2.0, a)


def test_hybrid_lhs_zero_sequence():
    assert hybrid_lhs(4.0, 2.0, _seq({(2, 1): 0.0})) == 0.0


def test_hybrid_lhs_single_entry_volume():
    # A single coefficient supported on (v) coprime to every modulus makes
    # each (c, chi, p) cell contribute 2T |a|^2, so the sum is
    # (number of primitive characters) x (2 floor(T) + 1) x 2T |a|^2.
    # Up to norm 4 there are exactly two primitive characters: the trivial
    # character mod (1) and the quadratic character mod (2).
    got = hybrid_lhs(4.0, 2.5, _seq({(2, 1): 3.0}))
    assert got == pytest.approx(2 * (2 * 2 + 1) * (2 * 2.5) * 9.0, rel=1e-12)


def test_hybrid_lhs_ramified_entry_sees_fewer_characters():
    # chi(1+i) = 0 for the quadratic character mod (2), so only the
    # trivial character mod (1) contributes.
    got = hybrid_lhs(4.0, 1.0, _seq({(1, 1): 1.0}))
    assert got == pytest.approx(1 * (2 * 1 + 1) * (2 * 1.0), rel=1e-12)


def _oracle_hybrid(C, T, entries):
    """Direct Gauss-Legendre integration of the defining t-integral."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    tt = nodes * T
    wts = weights * T
    gens = [g for g, _ in entries]
    logs = np.array([math.log(abs(complex(g))) for g in gens])
    args = np.array([cmath.phase(complex(g)) for g in gens])
    waves = np.exp(1j * np.outer(tt, logs))
    total = 0.0
    for ideal in ideals_up_to_norm(C):
        grp = char_group(ideal.gen)
        for chi in grp.characters():
            if chi.conductor() != grp.modulus:
                continue
            base = np.array([v * chi(g) for g, v in entries])
            for p in range(-int(T), int(T) + 1):
                v = base * np.exp(1j * p * args)
                total += float(np.abs(waves @ v) ** 2 @ wts)
    return total


def test_hybrid_lhs_matches_quadrature_oracle():
    entries = [
        (GaussianInt(1, 0), 1.0 + 0.5j),
        (GaussianInt(2, 1), -0.75 + 0j),
        (GaussianInt(1, 2), 0.25j),
        (GaussianInt(3, 0), 0.6 - 0.2j),
    ]
    seq = make_sequence({GIdeal.of(g): v for g, v in entries}, (0, 9))
    got = hybrid_lhs(4.0, 2.0, seq)
    want = _oracle_hybrid(4.0, 2.0, entries)
    assert got == pytest.approx(want, rel=1e-10)
    assert got > 1.0


def test_hybrid_lhs_monotone_in_window_and_length():
    seq = random_sign_sequence((0, 10), [11])
    base = hybrid_lhs(4.0, 1.5, seq)
    assert hybrid_lhs(8.0, 1.5, seq) >= base
    assert hybrid_lhs(4.0, 3.0, seq) >= base
    assert base > 0.0


def test_hybrid_ratio_formula_and_scale_invariance():
    seq = random_sign_sequence((0, 10), [12])
    C, T = 4.0, 2.0
    lhs, rhs, params = hybrid_ratio(C, T, seq)
    norm_sq = sum(abs(v) ** 2 for _, v in seq.entries)
    want_rhs = (C**2 * T**2 + 10) * (C * T) ** EPSILON * norm_sq
    assert params == {"C": C, "T": T, "N": 10}
    assert rhs == pytest.approx(want_rhs, rel=1e-12)
    assert lhs == pytest.approx(hybrid_lhs(C, T, seq), rel=1e-12)
    lhs2, rhs2, _ = hybrid_ratio(C, T, seq.scaled(2.0))
    assert lhs2 / rhs2 == pytest.approx(lhs / rhs, rel=1e-12)


def _primitive_character_values(C, gens):
    """For each modulus N(c) <= C, in order, the values of its primitive
    characters (rows) at the generators (columns), from the weight tables
    of its character group."""
    x = [g.re for g in gens]
    y = [g.im for g in gens]
    for ideal in ideals_up_to_norm(C):
        grp = char_group(ideal.gen)
        primitive = [cond == grp.modulus for cond in grp.conductors()]
        w = grp.weights(grp.exponent_vectors[primitive], x, y)
        yield np.where(w < 0, 0.0, _exp_table(grp.exponent)[w])


def _character_table_sums(C, gens):
    """sum over N(c) <= C and primitive chi mod c of chi(g_j) conj(chi(g_k)),
    from the character tables: the oracle of the integer matrix."""
    return sum(u.T @ np.conj(u) for u in _primitive_character_values(C, gens))


@pytest.mark.parametrize("C", [1.0, 4.0, 100.0, 400.0])
@pytest.mark.parametrize(
    "window",
    [
        (0, 100),  # (1+i), (3), (2+i), ... : entries share factors with moduli
        (1, 2),  # one ideal, the ramified (1+i)
        (4, 10),  # (2+i), (1+2i), (2+2i), (3), (3+i), (1+3i)
    ],
)
def test_primitive_character_sums_equal_character_tables(C, window):
    gens = [ideal.gen for ideal in _window(*window)]
    got = _primitive_character_sums(C, gens)
    want = _character_table_sums(C, gens)
    assert got.dtype == np.int64
    assert np.abs(want - np.round(want.real)).max() < 1e-6
    assert (got == np.round(want.real)).all()


def test_primitive_character_sums_by_hand():
    # Norm <= 5: 1+i is a unit mod (1), with its one primitive character,
    # and mod (2+i) and (1+2i), with three each.  Mod (2+i), i = -2, so
    # 1+i = 4 and 3 = 3; mod (1+2i), i = 2, so 1+i = 3 = 3 and 2+i = 4.  A
    # pair gets phi(p) - 1 = 3 where congruent, -1 where not, and 0 where
    # an entry is not a unit, as 2+i is mod (2+i).
    got = _primitive_character_sums(5.0, [GaussianInt(1, 1), GaussianInt(2, 1), GaussianInt(3, 0)])
    assert got[0].tolist() == [1 + 3 + 3, 1 + 0 - 1, 1 - 1 + 3]


def test_hybrid_experiment_builds_no_character_group():
    char_group.cache_clear()
    hybrid_experiment(8.0, 2.0, 20.0, trials=2)
    assert char_group.cache_info().misses == 0


def test_hybrid_experiment_memory_does_not_grow_with_T():
    # a (2 floor(T) + 1) x n phase table took 48.5 MiB here; the closed form
    # of the p-sum keeps every array at n x n
    tracemalloc.start()
    try:
        rep = hybrid_experiment(1.0, 1e4, 100.0, trials=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert math.isfinite(rep.ratio) and rep.ratio > 0
    assert peak < 4 * 2**20


def test_hybrid_experiment_deterministic():
    first = hybrid_experiment(4.0, 2.0, 10.0, trials=4, seed=2)
    second = hybrid_experiment(4.0, 2.0, 10.0, trials=4, seed=2)
    assert first == second
    assert first.trials == 4
    assert math.isfinite(first.ratio) and first.ratio > 0
    with pytest.raises(DomainError, match="N = 101.0 exceeds"):
        hybrid_experiment(4.0, 2.0, 101.0, trials=4)


# ---------------------------------------------------------------------------
# Eisenstein ratio wiring
# ---------------------------------------------------------------------------


def test_eisenstein_ratio_zero_sequence():
    # A zero sequence has zero l2 norm, so both sides vanish and the
    # report falls back to ratio = 0 rather than dividing by zero.
    lhs, rhs, params = eisenstein_ratio(2.0, 1.0, _seq({(1, 0): 0.0}))
    assert lhs == 0.0
    assert rhs == 0.0
    assert make_report("eisenstein", params, lhs, rhs, 1, 3).ratio == 0.0


def test_eisenstein_ratio_formula():
    seq = random_sign_sequence((0, 8), [13])
    T, P = 2.0, 1.0
    lhs, rhs, params = eisenstein_ratio(T, P, seq)
    norm_sq = sum(abs(v) ** 2 for _, v in seq.entries)
    want_rhs = (
        T * P * (T**2 + P**2)
        + T * P * 8
        + ((T**2 + P**2) / (T * P)) * (1 / T**2 + 1 / P**2) * 64
    ) * (T * P * 8) ** EPSILON * norm_sq
    assert params == {"T": T, "P": P, "N": 8}
    assert rhs == pytest.approx(want_rhs, rel=1e-12)
    assert lhs == pytest.approx(eisenstein_sieve_sum(seq, T, P), rel=1e-12)
    assert lhs > 0


def test_eisenstein_experiment_deterministic():
    first = eisenstein_experiment(2.0, 1.0, 8.0, trials=3, seed=3)
    second = eisenstein_experiment(2.0, 1.0, 8.0, trials=3, seed=3)
    assert first == second
    assert first.trials == 3
    assert math.isfinite(first.ratio) and first.ratio > 0
    with pytest.raises(DomainError, match="trials = 101 exceeds"):
        eisenstein_experiment(2.0, 1.0, 8.0, trials=101)


# ---------------------------------------------------------------------------
# Batched forms against the per-sequence loops
# ---------------------------------------------------------------------------


def _loop_quad_form(d, theta, gamma, C, a, b):
    """quad_form of one pair of sequences, summed modulus by modulus over
    the (m, n) pairs of nonzero coefficients: the per-trial oracle."""
    moduli = [ideal.gen for ideal in ideals_up_to_norm(2 * C) if ideal.norm > C]
    pairs = [
        (m_ideal.gen * n_ideal.gen, a_m * b_n.conjugate())
        for m_ideal, a_m in a.entries
        if a_m != 0
        for n_ideal, b_n in b.entries
        if b_n != 0
    ]
    coeff = np.array([v for _, v in pairs], dtype=np.complex128)
    mx = np.array([mn.re for mn, _ in pairs], dtype=np.int64)
    my = np.array([mn.im for mn, _ in pairs], dtype=np.int64)
    twist = (mx + 1j * my) * complex(theta)
    total = 0.0 + 0.0j
    for c in moduli:
        dx, dy = d.re % c.norm, d.im % c.norm
        units = unit_table(c)
        pos = unit_positions(c, units, dx * mx - dy * my, dx * my + dy * mx)
        unit = pos >= 0
        phase = np.exp(2j * np.pi * np.real(twist[unit] / complex(c)))
        terms = coeff[unit] * f_sum_values(c, units)[pos[unit]] * phase
        total += float(c.norm) ** gamma * complex(terms.sum())
    return total


def _loop_hybrid_lhs(C, T, a):
    """hybrid_lhs of one sequence, summed modulus by modulus over the
    quadratic forms of the primitive characters: the per-trial oracle."""
    gens = [ideal.gen for ideal, coeff in a.entries if coeff != 0]
    coeffs = np.array([coeff for _, coeff in a.entries if coeff != 0])
    if len(gens) == 0:
        return 0.0
    logs = np.array([0.5 * math.log(g.norm) for g in gens])
    args = np.array([math.atan2(g.im, g.re) for g in gens])
    delta = logs[:, None] - logs[None, :]
    safe = np.where(delta == 0.0, 1.0, delta)
    kernel = np.where(delta == 0.0, 2.0 * T, 2.0 * np.sin(T * safe) / safe)
    phase = np.exp(1j * np.arange(-int(T), int(T) + 1)[:, None] * args)
    kernel = kernel * np.real(phase.T @ np.conj(phase))
    total = 0.0
    for u in _primitive_character_values(C, gens):
        v = coeffs * u
        total += float(np.real((v @ kernel) * np.conj(v)).sum())
    return total


def _window(lo, hi):
    return [ideal for ideal in ideals_up_to_norm(hi) if ideal.norm > lo]


def _close(got, want):
    return abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize(
    "d, theta, gamma, C, M, N",
    [
        (ONE, 1.0, 0.0, 5.0, 5.0, 5.0),
        # ramified d, complex theta, gamma != 0; b on the one ideal (1+i)
        (GaussianInt(1, 1), 0.3 - 0.2j, 0.5, 4.0, 4.0, 1.0),
        # a on the one ideal (2); windows of different sizes
        (GaussianInt(2, 1), 0.5 + 0.5j, -0.5, 5.0, 2.0, 10.0),
        (ONE, -0.15 + 0.4j, 0.0, 8.0, 10.0, 5.0),
    ],
)
def test_quad_form_rows_match_loop_oracle(d, theta, gamma, C, M, N):
    ms, ns = _window(M, 2 * M), _window(N, 2 * N)
    a_rows = coefficient_rows(len(ms), seed=1)
    b_rows = coefficient_rows(len(ns), seed=2)
    got = _quad_form_rows(d, theta, gamma, C, M, N, ms, a_rows, ns, b_rows)
    assert got.shape == (len(a_rows),)
    for k, value in enumerate(got):
        a = make_sequence(dict(zip(ms, a_rows[k])), (M, 2 * M))
        b = make_sequence(dict(zip(ns, b_rows[k])), (N, 2 * N))
        want = _loop_quad_form(d, theta, gamma, C, a, b)
        assert _close(value, want)
        assert _close(quad_form(d, theta, gamma, C, M, N, a, b), want)
    assert got[3] == 0 and abs(got[0]) > 1e-6


@pytest.mark.parametrize(
    "C, T, window",
    [
        (4.0, 2.0, (0, 20)),  # ramified (1+i), (2), (2+2i), (3+i), ...
        (8.0, 1.0, (0, 10)),  # complex characters mod (2+i) and (1+2i)
        (5.0, 3.0, (4, 5)),  # (2+i) and (1+2i)
        (8.0, 2.0, (1, 2)),  # one ideal, (1+i)
        # the closed-form p-sum against the loop's explicit one: P = floor(T)
        (4.0, 2.5, (0, 20)),
        (2.0, 12.0, (0, 40)),
    ],
)
def test_hybrid_rows_match_loop_oracle(C, T, window):
    ideals = _window(*window)
    rows = coefficient_rows(len(ideals), seed=3)
    got = _hybrid_rows(C, T, ideals, rows)
    assert got.shape == (len(rows),)
    for k, value in enumerate(got):
        seq = make_sequence(dict(zip(ideals, rows[k])), window)
        want = _loop_hybrid_lhs(C, T, seq)
        assert _close(value, want)
        assert _close(hybrid_lhs(C, T, seq), want)
    assert got[3] == 0 and got[0] > 0


def test_sign_rows_are_random_sign_sequences():
    # the rows of one draw are the sequences of their keys, the quad_form
    # keys [seed, 2i] and [seed, 2i + 1] included
    keys = [[7, i] for i in range(3)] + [[7, 2 * i + 1] for i in range(3)] + [11]
    ideals, rows = _sign_rows((2.0, 10.0), keys)
    assert rows.shape == (len(keys), len(ideals))
    for key, row in zip(keys, rows):
        seq = random_sign_sequence((2.0, 10.0), key)
        assert [ideal for ideal, _ in seq.entries] == ideals
        assert [v for _, v in seq.entries] == [complex(s) for s in row]


def _worst(trials):
    return max(trials, key=lambda t: t[0] / t[1])


def test_experiments_report_the_worst_of_their_trials():
    # each trial draws the signs of its own keys; the report is the first
    # trial of largest ratio among the one-sequence results
    seed, trials = 4, 6
    rep = quad_form_experiment(ONE, 0.5 + 0.5j, 0.0, 5.0, 5.0, 5.0, trials, seed)
    lhs, rhs, params = _worst(
        quad_form_bound_ratio(
            ONE, 0.5 + 0.5j, 0.0, 5.0, 5.0, 5.0,
            random_sign_sequence((5.0, 10.0), [seed, 2 * i]),
            random_sign_sequence((5.0, 10.0), [seed, 2 * i + 1]),
        )
        for i in range(trials)
    )
    want = make_report("quad_form", params, lhs, rhs, trials, seed)
    assert (rep.parameters, rep.rhs_bound) == (want.parameters, rhs) and _close(rep.lhs, lhs)
    rep = hybrid_experiment(5.0, 2.0, 12.0, trials, seed)
    lhs, rhs, _ = _worst(
        hybrid_ratio(5.0, 2.0, random_sign_sequence((0, 12.0), [seed, i])) for i in range(trials)
    )
    assert rep.rhs_bound == rhs and _close(rep.lhs, lhs)
    rep = eisenstein_experiment(2.0, 1.0, 12.0, trials, seed)
    lhs, rhs, _ = _worst(
        eisenstein_ratio(2.0, 1.0, random_sign_sequence((0, 12.0), [seed, i]))
        for i in range(trials)
    )
    assert (rep.lhs, rep.rhs_bound) == (lhs, rhs)


#: Each experiment's parameters at a small valid point.
_EXPERIMENTS = {
    "quad_form": (
        quad_form_experiment,
        {"d": ONE, "theta": 1.0, "gamma": 0.0, "C": 2.0, "M": 2.0, "N": 2.0},
    ),
    "hybrid": (hybrid_experiment, {"C": 2.0, "T": 1.0, "N": 5.0}),
    "eisenstein": (eisenstein_experiment, {"T": 2.0, "P": 1.0, "N": 5.0}),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "experiment, name",
    [
        (experiment, name)
        for experiment, (_, params) in _EXPERIMENTS.items()
        for name in params
        if name != "d"  # a Gaussian integer, not a float
    ],
)
@pytest.mark.parametrize("force", [False, True])
def test_experiments_reject_non_finite_parameters(experiment, name, value, force):
    # without force an infinite size may hit its desk cap first; with
    # force the finiteness check itself must catch it
    run, params = _EXPERIMENTS[experiment]
    with pytest.raises(DomainError, match="finite" if force else None):
        run(**{**params, name: value}, trials=1, force=force)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_one_sequence_functions_reject_non_finite_parameters(value):
    # the zero sequence too: the check comes before any sum is skipped
    for a in (_seq({(1, 0): 1.0}), _seq({(1, 0): 0.0})):
        with pytest.raises(DomainError, match="finite"):
            quad_form(ONE, 1.0, value, 2.0, 0.5, 0.5, a, a)
        with pytest.raises(DomainError, match="finite"):
            hybrid_ratio(2.0, value, a)
        with pytest.raises(DomainError, match="finite"):
            eisenstein_ratio(value, 1.0, a)


def test_experiments_reject_an_empty_window():
    with pytest.raises(DomainError, match=r"empty norm window \(0.25, 0.5\]"):
        quad_form_experiment(ONE, 1.0, 0.0, 2.0, 0.25, 2.0, trials=1)
    with pytest.raises(DomainError, match=r"empty norm window \(0, 0.5\]"):
        hybrid_experiment(2.0, 1.0, 0.5, trials=1)
    with pytest.raises(DomainError, match=r"empty norm window \(0, 0.5\]"):
        eisenstein_experiment(2.0, 1.0, 0.5, trials=1)


def test_sweep_first_points_match_frozen_smoke_ratios():
    # the benchmark's smoke run: scripts/run_experiments.py at the first
    # point of each family, 2 trials, seed 1; its ratios are frozen in
    # perfbench/frozen.json, checked there at 1e-9 and here at 1e-12
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "run_experiments", root / "scripts" / "run_experiments.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for sweep in ("QUAD_SWEEP", "HYBRID_SWEEP", "EISENSTEIN_SWEEP"):
        setattr(script, sweep, getattr(script, sweep)[:1])
    families = script.sweep_reports(argparse.Namespace(force=False, trials=2, seed=1))
    ratios = {
        f"{family}/{i}": rep.ratio
        for family, reports in families.items()
        for i, rep in enumerate(reports)
    }
    frozen = json.loads((root / "perfbench" / "frozen.json").read_text())
    frozen = frozen["sieve_ratios"]["smoke"]
    assert sorted(ratios) == sorted(frozen)
    for key, ratio in ratios.items():
        assert abs(ratio - frozen[key]) <= 1e-12 * abs(frozen[key]), key
