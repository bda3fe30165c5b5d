"""Acceptance checklist: eleven end-to-end criteria at fixed tolerances.

Each test prints and registers one ``CRITERION n: PASS/FAIL - detail``
line (replayed in the terminal summary by conftest).  The checks are run
at their stated tolerances; none are weakened to force a pass.

Known honest failure: criterion 1.  The prime-power case formulas for
the transform magnitude |fhat| disagree with the directly computed
transform for 24 characters at dyadic moduli of norm 64, 128 and 256.
The computed values are confirmed independently by the brute-force
residue-level table ``RAMIFIED_TRUTH`` in tests/test_characters.py, so
the discrepancy lies in the stated semi-primitive case formula, not in
the implementation.  The criterion is asserted as stated and fails.
"""

from __future__ import annotations

import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from conftest import record_criterion
from gisieve.archimedean import (
    DEFAULT_QUADRATURE,
    TestFunction,
    bessel_integral_deriv,
    bessel_integral_spectral,
    bessel_integral_weighted,
    plancherel_integral,
    plancherel_integral_quadrature,
)
from gisieve.characters import char_group, twisted_mult_residual
from gisieve.verify import verify_all
from gisieve.expsums import kloosterman_matrix, selberg_residuals, shift_residuals, weil_ratios
from gisieve.gauss import ONE, GaussianInt, ideals_up_to_norm, is_coprime, unit_table
from gisieve.sievelab import (
    eisenstein_experiment,
    eisenstein_ratio,
    hybrid_experiment,
    hybrid_ratio,
    quad_form_bound_ratio,
    quad_form_experiment,
    random_sign_sequence,
)
from gisieve.spectral import hecke_zeta, kuznetsov_geometric

ONE = GaussianInt(1, 0)


def test_criterion_01_prime_power_case_formulas():
    t0 = time.monotonic()
    (res,) = verify_all(400.0, 1e-9, ["lemma"])
    elapsed = time.monotonic() - t0
    passed = res.passed and elapsed < 120.0
    record_criterion(
        1,
        passed,
        f"|fhat| vs case formulas at prime-power moduli of norm <= 400: "
        f"{res.checked} characters, {len(res.failures)} disagree, {elapsed:.0f}s",
    )
    assert elapsed < 120.0, f"runtime budget exceeded: {elapsed:.0f}s"
    if res.failures:
        sample = "; ".join(res.failures[:4])
        pytest.fail(
            f"{len(res.failures)} characters disagree with the case formulas, "
            f"all at dyadic prime-power moduli of norm 64, 128, 256 "
            f"(e.g. {sample}).  The computed transform values are confirmed "
            f"by the independent brute-force table RAMIFIED_TRUTH in "
            f"tests/test_characters.py, so the stated semi-primitive case "
            f"formula does not describe these ramified moduli.  The check is "
            f"kept at its stated tolerance instead of being weakened."
        )


def test_criterion_02_twisted_multiplicativity():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    small = [i.gen for i in ideals_up_to_norm(100) if i.norm >= 2]
    pool = [i.gen for i in ideals_up_to_norm(5000) if i.norm >= 2]
    worst = 0.0
    biggest = 0
    pairs = 0
    while pairs < 200:
        c1 = small[rng.integers(len(small))]
        budget = 1e4 / c1.norm
        partners = [c for c in pool if c.norm <= budget]
        c2 = partners[rng.integers(len(partners))]
        if not is_coprime(c1, c2):
            continue
        g1, g2 = char_group(c1), char_group(c2)
        chi1 = g1.character(tuple(int(rng.integers(n)) for n in g1.gen_orders))
        chi2 = g2.character(tuple(int(rng.integers(n)) for n in g2.gen_orders))
        worst = max(worst, abs(twisted_mult_residual(chi1, chi2)))
        biggest = max(biggest, c1.norm * c2.norm)
        pairs += 1
    elapsed = time.monotonic() - t0
    passed = worst < 1e-9
    record_criterion(
        2,
        passed,
        f"twisted multiplicativity on {pairs} random coprime pairs "
        f"(largest product norm {biggest}): worst residual {worst:.2e}, {elapsed:.0f}s",
    )
    assert passed, f"worst residual {worst:.2e} >= 1e-9"


def test_criterion_03_selberg_and_shift_identities():
    small = [i.gen for i in ideals_up_to_norm(10)]
    moduli = [i.gen for i in ideals_up_to_norm(200)]
    selberg_worst, selberg_count = 0.0, 0
    for c in moduli:
        residuals = np.abs(selberg_residuals(small, small, c, unit_table(c)))
        selberg_worst = max(selberg_worst, float(residuals.max()))
        selberg_count += residuals.size

    # the triples (q g, c, g) with N(q) N(c) <= 500 / N(g)^2, c before q
    shift_worst, shift_count = 0.0, 0
    for gi in ideals_up_to_norm(math.isqrt(500) + 1):
        q_budget = 500.0 / gi.norm**2
        for ci in ideals_up_to_norm(q_budget):
            qs = [qi.gen for qi in ideals_up_to_norm(q_budget / ci.norm)]
            c = ci.gen
            sums_c = kloosterman_matrix([q * q for q in qs], [ONE], c, unit_table(c))[:, 0]
            residuals = np.abs(shift_residuals(qs, c, gi.gen, sums_c))
            shift_worst = max(shift_worst, float(residuals.max()))
            shift_count += residuals.size

    worst = max(selberg_worst, shift_worst)
    passed = worst < 1e-9
    record_criterion(
        3,
        passed,
        f"Selberg identity on {selberg_count} (m, n, c) triples "
        f"(worst {selberg_worst:.2e}) and shift identity on {shift_count} "
        f"(w, c, g) triples (worst {shift_worst:.2e})",
    )
    assert passed, f"worst residual {worst:.2e} >= 1e-9"


def test_criterion_04_mellin_inversion_and_parseval():
    t0 = time.monotonic()
    results = verify_all(200.0, 1e-9, ["mellin", "parseval"])
    elapsed = time.monotonic() - t0
    passed = all(r.passed for r in results)
    detail = ", ".join(
        f"{r.name}: {r.checked} checks, worst {r.worst:.2e}" for r in results
    )
    record_criterion(4, passed, f"all moduli of norm <= 200: {detail}, {elapsed:.0f}s")
    for r in results:
        assert r.passed, f"{r.name} failures: {r.failures[:5]}"


def test_criterion_05_bessel_three_way_agreement():
    t0 = time.monotonic()
    worst = 0.0
    worst_at = None
    for zabs in (0.5, 1.0, 2.0, 4.0):
        for argz in (0.0, math.pi / 4, math.pi / 2):
            z = zabs * cmath.exp(1j * argz)
            for T in (1.0, 2.0, 4.0):
                for P in (1.0, 2.0, 4.0):
                    tf = TestFunction(T, P)
                    vals = (
                        bessel_integral_spectral(z, tf, DEFAULT_QUADRATURE),
                        bessel_integral_deriv(z, tf, DEFAULT_QUADRATURE),
                        bessel_integral_weighted(z, tf, DEFAULT_QUADRATURE),
                    )
                    scale = max(1e-12, max(abs(v) for v in vals))
                    dev = max(abs(a - b) for a in vals for b in vals) / scale
                    if dev > worst:
                        worst, worst_at = dev, (zabs, argz, T, P)
    elapsed = time.monotonic() - t0
    passed = worst <= 1e-6 and elapsed < 600.0
    record_criterion(
        5,
        passed,
        f"108-point grid, three integral representations: worst pairwise "
        f"relative deviation {worst:.2e} at {worst_at}, {elapsed:.0f}s",
    )
    assert elapsed < 600.0, f"runtime budget exceeded: {elapsed:.0f}s"
    assert worst <= 1e-6, f"worst deviation {worst:.2e} at {worst_at}"


def test_criterion_06_plancherel_closed_form_vs_quadrature():
    tf = TestFunction(1.0, 1.0)
    closed = plancherel_integral(tf)
    quad = plancherel_integral_quadrature(tf, DEFAULT_QUADRATURE)
    rel = abs(closed - quad) / abs(closed)
    passed = rel <= 1e-8 and abs(closed - 3.1387) < 5e-4
    record_criterion(
        6,
        passed,
        f"closed form {closed:.6f} (expected 3.1387) vs quadrature, "
        f"relative error {rel:.2e}",
    )
    assert abs(closed - 3.1387) < 5e-4
    assert rel <= 1e-8


def test_criterion_07_small_z_quadratic_bound():
    tf = TestFunction(1.0, 1.0)
    ratios = []
    for zabs in (1e-1, 1e-2, 1e-3, 1e-4):
        value = bessel_integral_weighted(complex(zabs), tf, DEFAULT_QUADRATURE)
        ratios.append(abs(value) / zabs**2)
    variation = (max(ratios) - min(ratios)) / min(ratios)
    passed = variation < 0.10
    record_criterion(
        7,
        passed,
        f"|H(z)|/|z|^2 over |z| in 1e-1..1e-4: range "
        f"[{min(ratios):.4f}, {max(ratios):.4f}], variation {variation:.1%}",
    )
    assert passed, f"variation {variation:.1%} >= 10%"


def test_criterion_08_weil_bound_on_selberg_grid():
    small = [i.gen for i in ideals_up_to_norm(10)]
    moduli = [i.gen for i in ideals_up_to_norm(200)]
    # ratios[m, n, c]: argmax finds the first largest ratio in (m, n, c) order
    ratios = np.stack([weil_ratios(small, small, c, unit_table(c)) for c in moduli], axis=-1)
    i, j, k = np.unravel_index(np.argmax(ratios), ratios.shape)
    best = float(ratios[i, j, k])
    best_at = (str(small[i]), str(small[j]), str(moduli[k]))
    passed = best <= 2.0
    record_criterion(
        8,
        passed,
        f"Weil ratio over the criterion-3 grid: max {best:.6f} at "
        f"(m, n, c) = {best_at}, bound 2",
    )
    assert passed, f"ratio {best} > 2 at {best_at}"


def test_criterion_09_dedekind_zeta_cross_check():
    got = hecke_zeta(2.0 + 0.0j, 0).value
    with mpmath.workdps(30):
        # L(2, chi_-4) is Catalan's constant
        want = float(mpmath.zeta(2) * mpmath.catalan)
    err = abs(got - want)
    passed = err < 1e-4
    record_criterion(
        9,
        passed,
        f"zeta(2, 0) = {got.real:.8f} vs zeta(2) L(2, chi_-4) = {want:.8f}, "
        f"error {err:.2e}",
    )
    assert passed, f"error {err:.2e} >= 1e-4"


def test_criterion_10_kuznetsov_geometric_side():
    t0 = time.monotonic()
    tf = TestFunction(1.0, 1.0)
    m, n = ONE, GaussianInt(2, 1)
    k100 = kuznetsov_geometric(m, n, tf, 100)
    k100_swapped = kuznetsov_geometric(n, m, tf, 100)
    sym = abs(k100.kloosterman_term - k100_swapped.kloosterman_term) + abs(
        k100.diagonal - k100_swapped.diagonal
    )
    k200 = kuznetsov_geometric(m, n, tf, 200)
    k400 = kuznetsov_geometric(m, n, tf, 400)
    inc1 = abs(k200.kloosterman_term - k100.kloosterman_term)
    inc2 = abs(k400.kloosterman_term - k200.kloosterman_term)
    elapsed = time.monotonic() - t0
    passed = sym <= 1e-9 and inc1 <= k100.tail_bound and inc2 <= k200.tail_bound
    record_criterion(
        10,
        passed,
        f"(m, n)-symmetry defect {sym:.2e}; increments 100->200 {inc1:.2e} "
        f"<= tail {k100.tail_bound:.2e}, 200->400 {inc2:.2e} <= tail "
        f"{k200.tail_bound:.2e}, {elapsed:.0f}s",
    )
    assert sym <= 1e-9
    assert inc1 <= k100.tail_bound
    assert inc2 <= k200.tail_bound


def test_criterion_11_ratio_experiments():
    # defaults as shipped: quad (trials 20), hybrid (trials 50), eisenstein
    # (trials 80); doubling reruns the same seeds plus as many again
    q1 = quad_form_experiment(ONE, 1.0, 0.0, 5.0, 5.0, 5.0)
    q2 = quad_form_experiment(ONE, 1.0, 0.0, 5.0, 5.0, 5.0, trials=40)
    h1 = hybrid_experiment(4.0, 2.0, 20.0)
    h2 = hybrid_experiment(4.0, 2.0, 20.0, trials=100)
    e1 = eisenstein_experiment(2.0, 1.0, 30.0)
    e2 = eisenstein_experiment(2.0, 1.0, 30.0, trials=160, force=True)

    changes = {}
    for name, before, after in (
        ("quad_form", q1, q2),
        ("hybrid", h1, h2),
        ("eisenstein", e1, e2),
    ):
        assert math.isfinite(before.ratio) and math.isfinite(after.ratio), name
        assert before.ratio > 0, name
        changes[name] = abs(after.ratio - before.ratio) / before.ratio

    # scale invariance of the reported ratios under sequence scaling
    a = random_sign_sequence((5, 10), [1, 0])
    b = random_sign_sequence((5, 10), [1, 1])
    def ratio(trial):
        lhs, rhs, _ = trial
        return lhs / rhs

    quad_base = ratio(quad_form_bound_ratio(ONE, 1.0, 0.0, 5.0, 5.0, 5.0, a, b))
    quad_scaled = ratio(
        quad_form_bound_ratio(ONE, 1.0, 0.0, 5.0, 5.0, 5.0, a.scaled(5.0), b.scaled(5.0))
    )
    seq = random_sign_sequence((0, 20), [1, 2])
    hyb_base = ratio(hybrid_ratio(4.0, 2.0, seq))
    hyb_scaled = ratio(hybrid_ratio(4.0, 2.0, seq.scaled(3.0)))
    eis_base = ratio(eisenstein_ratio(2.0, 1.0, seq))
    eis_scaled = ratio(eisenstein_ratio(2.0, 1.0, seq.scaled(3.0)))
    scale_defect = max(
        abs(quad_scaled - quad_base) / quad_base,
        abs(hyb_scaled - hyb_base) / hyb_base,
        abs(eis_scaled - eis_base) / eis_base,
    )

    worst_change = max(changes.values())
    passed = worst_change < 0.20 and scale_defect < 1e-9
    record_criterion(
        11,
        passed,
        f"ratios quad {q2.ratio:.4f}, hybrid {h2.ratio:.4f}, eisenstein "
        f"{e2.ratio:.4f}; worst doubling change {worst_change:.1%}; "
        f"scale-invariance defect {scale_defect:.1e}",
    )
    assert scale_defect < 1e-9
    for name, change in changes.items():
        assert change < 0.20, f"{name} max ratio changed {change:.1%} on doubling"
