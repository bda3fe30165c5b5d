"""Identity suites: the exact identities of the package checked at scale.

Each suite takes (max_norm, tolerance) and returns a SuiteResult with the
number of checks, the worst residual, and one message per failure.
``verify_all`` runs a selection of them; the ``verify`` and
``lemma-check`` commands of the CLI report their results.  Most suites
work on whole tables: mellin and parseval on a group's fhat table,
twisted on one twisted_mult_table per coprime pair of moduli, lemma on
the arrays of local_prediction, and selberg, shift and weil on one
array of residuals per modulus.

The suites that read character groups (mellin, parseval, twisted, and
lemma, which reads the prime powers other than (1)) run as visitors of
one pass over the moduli: each group is built once per call, read by
every selected suite, and dropped before the next modulus.  Only the
twisted visitor keeps groups: at modulus c2 it checks the pairs (c1, c2)
with c1 earlier and N(c1) N(c2) <= max_norm, so it holds the groups of
norm <= sqrt(max_norm).  Its failure messages come in pass order, by c2
and then c1.  A suite run alone, and ``lemma_pass``, is the pass with
that one suite.  No suite reads the shared groups of
``characters.char_group``.
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
from .characters import CharGroup, local_prediction, twisted_mult_table
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
    ideals_up_to_norm,
    is_coprime,
    prime_power_ideals_up_to_norm,
    unit_table,
    unit_tables,
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


class _Tally:
    """A SuiteResult built one check at a time: a check fails when its value
    exceeds limit, and is reported as message.format(*fields, value)."""

    def __init__(self, name: str, limit: float, message: str):
        self.name, self.limit, self.message = name, limit, message
        self.worst, self.checked, self.failures = 0.0, 0, []

    def add(self, value: float, fields: tuple) -> None:
        self.worst = max(self.worst, value)
        self.checked += 1
        if value > self.limit:
            self.failures.append(self.message.format(*fields, value))

    def result(self) -> SuiteResult:
        return SuiteResult(self.name, self.checked, self.worst, self.failures)


def _tally(
    name: str, checks: Iterable[tuple[float, tuple]], limit: float, message: str
) -> SuiteResult:
    tally = _Tally(name, limit, message)
    for value, fields in checks:
        tally.add(value, fields)
    return tally.result()


def _mellin_checks(grp: CharGroup) -> Iterator[tuple[float, tuple]]:
    """max |F - (inverse transform of fhat)| over the units."""
    recon = grp.inverse_transform(grp.fhat_table())
    yield float(np.max(np.abs(recon - grp.f_values()))), (grp.element,)


def _parseval_checks(grp: CharGroup) -> Iterator[tuple[float, tuple]]:
    """|sum |fhat|^2 - (sum |F|^2) / phi|."""
    fhat_mass = float(np.sum(np.abs(grp.fhat_table()) ** 2))
    residual = abs(fhat_mass - float(np.sum(np.abs(grp.f_values()) ** 2)) / grp.order)
    yield residual, (grp.element,)


def _lemma_checks(grp: CharGroup) -> Iterator[tuple[float, tuple]]:
    """|fhat| against the case formulas of local_prediction, per character:
    (residual, (modulus, exps, |fhat|, "=" or "<=", predicted value, class))."""
    modulus = str(grp.element)
    values, is_bound = local_prediction(grp)
    got = np.array([abs(f) for f in grp.fhat_table().tolist()])
    res = np.where(is_bound, np.maximum(0.0, got - values), np.abs(got - values))
    for exps, cls, g, v, bound, r in zip(
        grp.exponent_vectors.tolist(),
        grp.classes(),
        got.tolist(),
        values.tolist(),
        is_bound.tolist(),
        res.tolist(),
    ):
        yield r, (modulus, tuple(exps), g, "<=" if bound else "=", v, cls)


class _ModulusSuite(NamedTuple):
    """A suite that reads one character group per modulus: visitor(max_norm)
    gives the checks of one group for one pass, the failure message, and
    whether it reads the prime powers other than (1) alone."""

    name: str
    visitor: Callable[[float], Callable[[CharGroup], Iterable[tuple[float, tuple]]]]
    message: str
    prime_powers: bool = False


def _twisted_checks(grp1, grp2, units, f_values) -> Iterator[tuple[float, tuple]]:
    """The twisted residuals of every character pair of (grp1, grp2), from
    one table, chi1 outermost; units and f_values are the tables of c1 c2."""
    c1, c2 = grp1.element, grp2.element
    exps2 = list(map(tuple, grp2.exponent_vectors.tolist()))
    rows = np.abs(twisted_mult_table(grp1, grp2, units, f_values)).tolist()
    for e1, row in zip(grp1.exponent_vectors.tolist(), rows):
        for e2, value in zip(exps2, row):
            yield value, (c1, c2, tuple(e1), e2)


def _twisted_visitor(max_norm: float) -> Callable[[CharGroup], Iterator[tuple[float, tuple]]]:
    """At c2, the pairs (c1, c2) with c1 every earlier coprime modulus and
    N(c1) N(c2) <= max_norm, c1 in pass order.  Such a c1 has norm <=
    sqrt(max_norm), so only those groups are held (the first is (1)); the
    products c1 c2 of the others take their unit tables from one run."""
    small: list[CharGroup] = []

    def checks(grp2: CharGroup) -> Iterator[tuple[float, tuple]]:
        c2 = grp2.element
        if small:  # the pair (1, c2): its product is c2, whose tables grp2 holds
            yield from _twisted_checks(small[0], grp2, grp2.units, grp2.f_values())
        others = [
            grp1
            for grp1 in small[1:]
            if grp1.element.norm * c2.norm <= max_norm and is_coprime(grp1.element, c2)
        ]
        if c2.norm**2 <= max_norm:
            small.append(grp2)
        products = [grp1.element * c2 for grp1 in others]
        for grp1, c, units in zip(others, products, unit_tables(products)):
            yield from _twisted_checks(grp1, grp2, units, f_sum_values(c, units))

    return checks


_MODULUS_SUITES = {
    suite.name: suite
    for suite in (
        _ModulusSuite("mellin", lambda _: _mellin_checks, "modulus {} residual {:.3e}"),
        _ModulusSuite("parseval", lambda _: _parseval_checks, "modulus {} residual {:.3e}"),
        _ModulusSuite("twisted", _twisted_visitor, "moduli {},{} exps {},{} residual {:.3e}"),
        _ModulusSuite(
            "lemma",
            lambda _: _lemma_checks,
            "modulus {} exps {}: |fhat| = {:.6f}, case formula says {} {:.6f}",
            prime_powers=True,
        ),
    )
}


def _modulus_pass(
    max_norm: float, tol: float, suites: Sequence[_ModulusSuite]
) -> list[SuiteResult]:
    """The given suites in one pass over the moduli of norm <= max_norm,
    each with its own tally: the group of each modulus is built once, read
    by every suite that takes it, and dropped before the next modulus
    unless a visitor keeps it."""
    if not suites:
        return []
    tallies = [_Tally(suite.name, tol, suite.message) for suite in suites]
    visits = [suite.visitor(max_norm) for suite in suites]
    prime_powers = (
        set(prime_power_ideals_up_to_norm(max_norm))
        if any(suite.prime_powers for suite in suites)
        else set()
    )
    for ideal in ideals_up_to_norm(max_norm):
        readers = [
            (visit, tally)
            for suite, visit, tally in zip(suites, visits, tallies)
            if not suite.prime_powers or ideal in prime_powers
        ]
        if readers:
            grp = CharGroup(ideal.gen)
            for visit, tally in readers:
                for value, fields in visit(grp):
                    tally.add(value, fields)
    return [tally.result() for tally in tallies]


def _one_modulus_suite(suite: _ModulusSuite) -> Callable[[float, float], SuiteResult]:
    return lambda max_norm, tol: _modulus_pass(max_norm, tol, [suite])[0]


def lemma_pass(max_norm: float, tol: float) -> tuple[SuiteResult, list[tuple]]:
    """|fhat| against the case formulas at every prime-power modulus.

    Returns the suite verdict and, per character, the row (modulus,
    exps, class, |fhat|, "=" or "<=", predicted value, within tolerance).
    """
    if not max_norm >= 2:  # also rejects NaN
        raise DomainError("lemma-check needs max_norm >= 2")
    rows = []

    def checks(grp: CharGroup) -> Iterator[tuple[float, tuple]]:
        for r, fields in _lemma_checks(grp):
            modulus, exps, g, rel, v, cls = fields
            rows.append((modulus, ":".join(map(str, exps)), cls, g, rel, v, r <= tol))
            yield r, fields

    lemma = _MODULUS_SUITES["lemma"]._replace(visitor=lambda _: checks)
    return _modulus_pass(max_norm, tol, [lemma])[0], rows


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
    "mellin": _one_modulus_suite(_MODULUS_SUITES["mellin"]),
    "parseval": _one_modulus_suite(_MODULUS_SUITES["parseval"]),
    "twisted": _one_modulus_suite(_MODULUS_SUITES["twisted"]),
    "lemma": _one_modulus_suite(_MODULUS_SUITES["lemma"]),
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
    # the per-modulus suites share one pass; the others run on their own
    per_modulus = [_MODULUS_SUITES[name] for name in selected if name in _MODULUS_SUITES]
    results = {r.name: r for r in _modulus_pass(max_norm, tolerance, per_modulus)}
    return [results[name] if name in results else SUITES[name](max_norm, tolerance) for name in selected]
