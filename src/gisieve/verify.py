"""Identity suites: the exact identities of the package checked at scale.

Each suite takes (max_norm, tolerance) and returns a SuiteResult with the
number of checks, the worst residual, and one message per failure.
``verify_all`` runs a selection of them; the ``verify`` and
``lemma-check`` commands of the CLI report their results.  Most suites
work on whole tables: mellin and parseval on a group's fhat table,
twisted on one twisted_mult_table per coprime pair of moduli (the pairs
with one product share its unit table and F table), lemma on the arrays
of local_prediction, and selberg, shift and weil on one array of
residuals per modulus.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .archimedean import (
    DEFAULT_QUADRATURE,
    TestFunction,
    bessel_integral_deriv,
    bessel_integral_spectral,
    bessel_integral_weighted,
    plancherel_integral,
    plancherel_integral_quadrature,
)
from .characters import CharGroup, char_group, local_prediction, twisted_mult_table
from .expsums import (
    f_sum_values,
    kloosterman_matrix,
    selberg_residuals,
    shift_residuals,
    weil_ratios,
)
from .gauss import (
    ONE,
    DomainError,
    GaussianInt,
    canonical_associate,
    ideals_up_to_norm,
    is_coprime,
    prime_power_ideals_up_to_norm,
    unit_table,
)

__all__ = [
    "SuiteResult",
    "SUITES",
    "SUITE_GROUPS",
    "DEFAULT_VERIFY_NORM",
    "lemma_pass",
    "verify_all",
]


class SuiteResult(NamedTuple):
    name: str
    checked: int
    worst: float
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _tally(
    name: str, checks: Iterable[tuple[float, tuple]], limit: float, message: str
) -> SuiteResult:
    """SuiteResult of (value, fields) checks: a check fails when its value
    exceeds limit, and is reported as message.format(*fields, value)."""
    worst, checked, fails = 0.0, 0, []
    for value, fields in checks:
        worst = max(worst, value)
        checked += 1
        if value > limit:
            fails.append(message.format(*fields, value))
    return SuiteResult(name, checked, worst, fails)


def _groups(max_norm: float) -> Iterator[CharGroup]:
    return (char_group(ideal.gen) for ideal in ideals_up_to_norm(max_norm))


def _mellin_residual(grp: CharGroup) -> float:
    """max |F - (inverse transform of fhat)| over the units."""
    recon = grp.inverse_transform(grp.fhat_table())
    return float(np.max(np.abs(recon - grp.f_values())))


def _parseval_residual(grp: CharGroup) -> float:
    """|sum |fhat|^2 - (sum |F|^2) / phi|."""
    fhat_mass = float(np.sum(np.abs(grp.fhat_table()) ** 2))
    return abs(fhat_mass - float(np.sum(np.abs(grp.f_values()) ** 2)) / grp.order)


def _suite_mellin(max_norm: float, tol: float) -> SuiteResult:
    checks = ((_mellin_residual(grp), (grp.element,)) for grp in _groups(max_norm))
    return _tally("mellin", checks, tol, "modulus {} residual {:.3e}")


def _suite_parseval(max_norm: float, tol: float) -> SuiteResult:
    checks = ((_parseval_residual(grp), (grp.element,)) for grp in _groups(max_norm))
    return _tally("parseval", checks, tol, "modulus {} residual {:.3e}")


def _twisted_checks(c1, c2, units, f_values) -> Iterator[tuple[float, tuple]]:
    """The twisted residuals of every character pair mod (c1, c2), from one
    table, chi1 outermost; units and f_values are the tables of c1 c2."""
    g1, g2 = char_group(c1), char_group(c2)
    exps2 = list(map(tuple, g2.exponent_vectors.tolist()))
    rows = np.abs(twisted_mult_table(g1, g2, units, f_values)).tolist()
    for e1, row in zip(g1.exponent_vectors.tolist(), rows):
        for e2, value in zip(exps2, row):
            yield value, (c1, c2, tuple(e1), e2)


def _product_tables(c: GaussianInt):
    """The unit table and F table of the product element c.  A canonical c
    is itself a modulus of the suite, and the pair (1, c), the first with
    product c, builds its group anyway: the group's tables serve."""
    if c == canonical_associate(c):
        grp = char_group(c)
        return grp.units, grp.f_values()
    units = unit_table(c)
    return units, f_sum_values(c, units)


def _suite_twisted(max_norm: float, tol: float) -> SuiteResult:
    # the pairs c1 < c2 grouped by the element c1 c2, in order of first
    # appearance: each product's unit table and F table serve all its pairs
    moduli = [ideal.gen for ideal in ideals_up_to_norm(max_norm)]
    by_product: dict[GaussianInt, list[tuple[GaussianInt, GaussianInt]]] = {}
    for i, c1 in enumerate(moduli):
        for c2 in moduli[i + 1 :]:
            if c1.norm * c2.norm > max_norm:
                break  # the moduli come in order of norm
            if is_coprime(c1, c2):
                by_product.setdefault(c1 * c2, []).append((c1, c2))
    checks = (
        check
        for c, pairs in by_product.items()
        for units, f_values in [_product_tables(c)]
        for c1, c2 in pairs
        for check in _twisted_checks(c1, c2, units, f_values)
    )
    return _tally("twisted", checks, tol, "moduli {},{} exps {},{} residual {:.3e}")


def lemma_pass(max_norm: float, tol: float) -> tuple[SuiteResult, list[tuple]]:
    """|fhat| against the case formulas at every prime-power modulus.

    Returns the suite verdict and, per character, the row (modulus,
    exps, class, |fhat|, "=" or "<=", predicted value, within tolerance).
    """
    if not max_norm >= 2:  # also rejects NaN
        raise DomainError("lemma-check needs max_norm >= 2")
    worst, fails, rows = 0.0, [], []
    for ideal in prime_power_ideals_up_to_norm(max_norm):
        grp = char_group(ideal.gen)
        modulus = str(grp.element)
        values, is_bound = local_prediction(grp)
        got = np.array([abs(f) for f in grp.fhat_table().tolist()])
        res = np.where(is_bound, np.maximum(0.0, got - values), np.abs(got - values))
        worst = max(worst, float(res.max()))
        for exps, cls, g, v, bound, r in zip(
            grp.exponent_vectors.tolist(),
            grp.classes(),
            got.tolist(),
            values.tolist(),
            is_bound.tolist(),
            res.tolist(),
        ):
            rel = "<=" if bound else "="
            if r > tol:
                fails.append(
                    f"modulus {modulus} exps {tuple(exps)}: |fhat| = {g:.6f}, "
                    f"case formula says {rel} {v:.6f}"
                )
            rows.append((modulus, ":".join(map(str, exps)), cls, g, rel, v, r <= tol))
    return SuiteResult("lemma", len(rows), worst, fails), rows


def _suite_lemma(max_norm: float, tol: float) -> SuiteResult:
    return lemma_pass(max_norm, tol)[0]


def _small_grid_checks(identity, max_norm: float) -> Iterator[tuple[float, tuple]]:
    """(|value|, (m, n, c)) of identity(small, small, c) with N(m), N(n) <= 10
    and N(c) <= max_norm, c outermost."""
    small = [ideal.gen for ideal in ideals_up_to_norm(10)]
    return (
        (value, (m, n, ideal.gen))
        for ideal in ideals_up_to_norm(max_norm)
        for m, row in zip(small, np.abs(identity(small, small, ideal.gen)).tolist())
        for n, value in zip(small, row)
    )


def _suite_selberg(max_norm: float, tol: float) -> SuiteResult:
    checks = _small_grid_checks(selberg_residuals, max_norm)
    return _tally("selberg", checks, tol, "(m,n,c)=({},{},{}) residual {:.3e}")


def _suite_shift(max_norm: float, tol: float) -> SuiteResult:
    cap = max_norm * 40.0  # budget for N(c) * N(g)^2 * N(q)
    # one sorted list serves every range: ideals_up_to_norm(x) is its prefix
    # of the ideals of norm <= x
    ideals = ideals_up_to_norm(cap)
    norms = [ideal.norm for ideal in ideals]
    gens = [ideal.gen for ideal in ideals]

    def upto(limit: float) -> int:
        return bisect.bisect_right(norms, limit)

    def sums(c):  # S(q^2, 1; c) at the longest q-range, g = 1; each g reads a prefix
        squares = [q * q for q in gens[: upto(cap / c.norm)]]
        return kloosterman_matrix(squares, [ONE], c.gen, unit_table(c.gen))[:, 0]

    checks = (
        (value, (q * g.gen, c.gen, g.gen))
        for c in ideals[: upto(max_norm)]
        for sums_c in [sums(c)]
        for g in ideals[: upto(math.sqrt(cap / c.norm))]
        for qs in [gens[: upto(cap / (c.norm * g.norm**2))]]
        for q, value in zip(qs, np.abs(shift_residuals(qs, c.gen, g.gen, sums_c)).tolist())
    )
    return _tally("shift", checks, tol, "(w,c,g)=({},{},{}) residual {:.3e}")


def _suite_weil(max_norm: float, tol: float) -> SuiteResult:
    checks = _small_grid_checks(weil_ratios, max_norm)
    return _tally("weil", checks, 2.0 + tol, "(m,n,c)=({},{},{}) ratio {:.6f}")


def _bessel_spread(z: complex) -> tuple[float, tuple]:
    tf = TestFunction(1.0, 1.0)
    vals = [
        rep(z, tf, DEFAULT_QUADRATURE)
        for rep in (bessel_integral_spectral, bessel_integral_deriv, bessel_integral_weighted)
    ]
    return (max(vals) - min(vals)) / max(abs(v) for v in vals), (z, vals)


def _suite_bessel(max_norm: float, tol: float) -> SuiteResult:
    checks = map(_bessel_spread, (1.0 + 0.0j, 0.5 + 0.5j))
    return _tally("bessel", checks, max(tol, 1e-12), "z={}: representations {} spread {:.3e}")


def _plancherel_error(T: float, P: float) -> tuple[float, tuple]:
    tf = TestFunction(T, P)
    closed = plancherel_integral(tf)
    quad = plancherel_integral_quadrature(tf, DEFAULT_QUADRATURE)
    return abs(closed - quad) / closed, (T, P, closed, quad)


def _suite_plancherel(max_norm: float, tol: float) -> SuiteResult:
    checks = (_plancherel_error(T, P) for T, P in ((1.0, 1.0), (2.0, 1.0), (1.5, 2.5)))
    message = "T={},P={}: closed {!r} vs quadrature {!r}"
    return _tally("plancherel", checks, max(tol, 1e-13), message)


#: Suite registry; "charsum" groups the character-transform identities,
#: "all" is every suite.  The "lemma" suite honestly reports the known
#: failures of the prime-power case formulas at dyadic moduli of norm
#: >= 64, which is why the default verify range stops at 60 (the full
#: range runs in lemma-check and the acceptance tests).
SUITES: dict[str, Callable[[float, float], SuiteResult]] = {
    "mellin": _suite_mellin,
    "parseval": _suite_parseval,
    "twisted": _suite_twisted,
    "lemma": _suite_lemma,
    "selberg": _suite_selberg,
    "shift": _suite_shift,
    "weil": _suite_weil,
    "bessel": _suite_bessel,
    "plancherel": _suite_plancherel,
}

SUITE_GROUPS = {
    "all": tuple(SUITES),
    "charsum": ("mellin", "parseval", "twisted"),
}

DEFAULT_VERIFY_NORM = 60.0


def verify_all(max_norm: float, tolerance: float, names: Sequence[str] = ("all",)) -> list[SuiteResult]:
    """Run the named identity suites (default all) up to max_norm."""
    if not max_norm >= 2:  # also rejects NaN
        raise DomainError("verify needs max_norm >= 2")
    selected: list[str] = []
    for name in names:
        for expanded in SUITE_GROUPS.get(name, (name,)):
            if expanded not in SUITES:
                raise DomainError(f"unknown suite {name!r}")
            if expanded not in selected:
                selected.append(expanded)
    return [SUITES[name](max_norm, tolerance) for name in selected]
