"""Identity suites: the exact identities of the package checked at scale.

Each suite takes (max_norm, tolerance), a finite tolerance >= 0, and
returns a SuiteResult with the number of checks, the worst residual, and
one message per failure.  ``verify_all`` runs a selection of them; the
``verify`` and ``lemma-check`` commands of the CLI report their results.

The suites over the moduli (mellin, parseval, twisted, lemma, selberg,
shift and weil) are visitors of one pass over the moduli of norm <=
max_norm.  The pass takes each modulus's unit table from a run of
unit_tables and builds its character group at most once, for the first
suite that reads it (selberg, shift and weil read none; lemma reads only
the prime powers other than (1)); both are dropped before the next
modulus.  Only the twisted visitor keeps groups: at c2 it checks the
pairs (c1, c2) with c1 earlier and N(c1) N(c2) <= max_norm, holding the
groups of norm <= sqrt(max_norm), so its messages come by c2, then c1.
Shift and the right side of selberg read expsums.kloosterman_tables;
shift builds the table of each element c g once per call, and holds only
the sums of later visits of the elements it has read.  A suite run
alone, and ``lemma_pass``, is the pass with that one suite.
Each visitor tallies whole arrays of residuals.  A check fails unless its
value is at most the limit, so a NaN fails, and only a failing check has
its message fields made.
"""

from __future__ import annotations

import bisect
import math
from functools import cache, partial
from typing import Callable, Iterator, NamedTuple, Sequence

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
    kloosterman_table,
    selberg_residuals,
    shift_sums,
    weil_ratios,
)
from .gauss import (
    MAX_UNIT_NORM,
    ONE,
    DomainError,
    GaussianInt,
    GIdeal,
    UnitTable,
    ideals_up_to_norm,
    is_coprime,
    moebius,
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
    """A SuiteResult built from arrays of checks: check k of an array fails
    unless its value is at most limit (so a NaN fails, and makes the worst
    NaN), and is reported as message.format(*fields(k), value); fields is
    called only for a failure."""

    def __init__(self, name: str, limit: float, message: str):
        self.name, self.limit, self.message = name, limit, message
        self.worst, self.checked, self.failures = 0.0, 0, []

    def add(self, values, fields: Callable[[int], tuple]) -> None:
        values = np.ravel(values)  # C order: the last axis innermost
        self.checked += values.size
        top = values.max(initial=-np.inf)
        if top > self.worst or top != top:
            self.worst = float(top)
        if not top <= self.limit:  # a check fails, or is NaN
            for k in np.flatnonzero(~(values <= self.limit)).tolist():
                self.failures.append(self.message.format(*fields(k), values[k].item()))

    def result(self) -> SuiteResult:
        return SuiteResult(self.name, self.checked, self.worst, self.failures)


def _tally(name: str, checks: list[tuple], limit: float, message: str) -> SuiteResult:
    tally = _Tally(name, limit, message)
    tally.add([value for value, _ in checks], lambda k: checks[k][1])
    return tally.result()


def _mellin_checks(c: GaussianInt, units: UnitTable, group) -> Iterator[tuple]:
    """max |F - (inverse transform of fhat)| over the units."""
    grp = group()
    recon = grp.inverse_transform(grp.fhat_table())
    yield np.max(np.abs(recon - grp.f_values())), lambda _: (c,)


def _parseval_checks(c: GaussianInt, units: UnitTable, group) -> Iterator[tuple]:
    """|sum |fhat|^2 - (sum |F|^2) / phi|."""
    grp = group()
    fhat_mass = float(np.sum(np.abs(grp.fhat_table()) ** 2))
    yield abs(fhat_mass - float(np.sum(np.abs(grp.f_values()) ** 2)) / grp.order), lambda _: (c,)


def _lemma_checks(c: GaussianInt, units: UnitTable, group) -> Iterator[tuple]:
    """|fhat| against the case formulas of local_prediction, per character,
    with fields (modulus, exps, |fhat|, "=" or "<=", predicted value)."""
    grp = group()
    values, is_bound = local_prediction(grp)
    got = np.array([abs(f) for f in grp.fhat_table().tolist()])
    res = np.where(is_bound, np.maximum(0.0, got - values), np.abs(got - values))
    exps, got_k, values_k = grp.exponent_vectors.tolist(), got.tolist(), values.tolist()
    relation = ["<=" if bound else "=" for bound in is_bound.tolist()]
    yield res, lambda k: (c, tuple(exps[k]), got_k[k], relation[k], values_k[k])


def _twisted_checks(grp1, grp2, units, f_values) -> tuple:
    """The twisted residuals of every character pair of (grp1, grp2), from
    one table, chi1 outermost; units and f_values are the tables of c1 c2."""
    exps1, exps2 = grp1.exponent_vectors, grp2.exponent_vectors

    def fields(k: int) -> tuple:
        i, j = divmod(k, len(exps2))
        return grp1.element, grp2.element, tuple(exps1[i].tolist()), tuple(exps2[j].tolist())

    return np.abs(twisted_mult_table(grp1, grp2, units, f_values)), fields


def _twisted_visitor(max_norm: float) -> Callable[..., Iterator[tuple]]:
    """At c2, the pairs (c1, c2) with c1 every earlier coprime modulus and
    N(c1) N(c2) <= max_norm, c1 in pass order.  Such a c1 has norm <=
    sqrt(max_norm), so only those groups are held (the first is (1)); the
    products c1 c2 of the others take their unit tables from one run."""
    small: list[CharGroup] = []

    def checks(c2: GaussianInt, units: UnitTable, group) -> Iterator[tuple]:
        grp2 = group()
        if small:  # the pair (1, c2): its product is c2, whose tables grp2 holds
            yield _twisted_checks(small[0], grp2, units, grp2.f_values())
        others = [
            grp1
            for grp1 in small[1:]
            if grp1.element.norm * c2.norm <= max_norm and is_coprime(grp1.element, c2)
        ]
        if c2.norm**2 <= max_norm:
            small.append(grp2)
        products = [grp1.element * c2 for grp1 in others]
        for grp1, c, table in zip(others, products, unit_tables(products)):
            yield _twisted_checks(grp1, grp2, table, f_sum_values(c, table))

    return checks


def _grid_visitor(identity, max_norm: float) -> Callable[..., Iterator[tuple]]:
    """identity(small, small, c, units) at each modulus c, small the ideals
    of norm <= 10: the check (m, n) has fields (m, n, c), m outermost."""
    small = [ideal.gen for ideal in ideals_up_to_norm(10)]

    def checks(c: GaussianInt, units: UnitTable, _) -> Iterator[tuple]:
        def fields(k: int) -> tuple:
            m, n = divmod(k, len(small))
            return small[m], small[n], c

        yield np.abs(identity(small, small, c, units)), fields

    return checks


def _shift_visitor(max_norm: float) -> Callable[..., Iterator[tuple]]:
    """At c, the triples (q g, c, g) with N(c) N(g)^2 N(q) <= 40 max_norm,
    g outermost: S((q g)^2, 1; c g) read off the kloosterman_table of the
    element c g, and S(q^2, 1; c) is the visit (c, 1), whose prefix each g
    reads.  An element recurs (c g = g c), so the visits are listed up
    front by element: at its first visit its table is built (on the pass's
    unit table if it is c), read for every visit of it and dropped; only
    the later visits' sums are held until they are tallied."""
    cap = max_norm * 40.0
    # one sorted list serves every range: ideals_up_to_norm(x) is its prefix
    # of the ideals of norm <= x
    ideals = ideals_up_to_norm(cap)
    norms = [ideal.norm for ideal in ideals]
    gens = [ideal.gen for ideal in ideals]
    qx = np.array([q.re for q in gens], dtype=np.int64)
    qy = np.array([q.im for q in gens], dtype=np.int64)

    def upto(limit: float) -> int:
        return bisect.bisect_right(norms, limit)

    def shifts(c: GaussianInt) -> list[tuple[GaussianInt, int]]:  # each g at c, and its q-range
        return [(g, upto(cap / (c.norm * g.norm**2))) for g in gens[: upto(math.sqrt(cap / c.norm))]]

    visits: dict[GaussianInt, list[tuple]] = {}
    for c in gens[: upto(max_norm)]:
        for g, count in shifts(c):
            visits.setdefault(c * g, []).append((c, g, count))
    held: dict[tuple, np.ndarray] = {}

    def checks(c: GaussianInt, units: UnitTable, _) -> Iterator[tuple]:
        for g, count in shifts(c):
            if (c, g) not in held:  # the first visit of the element c g
                e = c * g
                table = kloosterman_table(e, units if e == c else unit_table(e))
                for c2, g2, count2 in visits.pop(e):
                    held[c2, g2] = shift_sums(qx[:count2], qy[:count2], g2, e, table)
                del table
            sums = held.pop((c, g))
            if g == ONE:
                sums_c = sums
            if is_coprime(c, g):  # S((q g)^2, 1; c g) = mu((g)) S(q^2, 1; c)
                sums = sums - moebius(GIdeal.of(g)) * sums_c[:count]
            qs = gens[:count]
            yield np.abs(sums), lambda k: (qs[k] * g, c, g)

    return checks


class _ModulusSuite(NamedTuple):
    """A suite run as a visitor of the pass over the moduli: visitor(max_norm)
    gives, for one pass, its checks at c from c, c's unit table and group(),
    which builds c's character group once per pass.  They are pairs (values,
    fields) for _Tally.add, each tallied before the next is drawn.  A check
    fails unless within bound + tol; prime_powers: the suite reads only the
    prime powers other than (1)."""

    name: str
    visitor: Callable[[float], Callable[..., Iterator[tuple]]]
    message: str
    bound: float
    prime_powers: bool = False


_MODULUS_SUITES = {
    suite.name: suite
    for suite in (
        _ModulusSuite("mellin", lambda _: _mellin_checks, "modulus {} residual {:.3e}", 0.0),
        _ModulusSuite("parseval", lambda _: _parseval_checks, "modulus {} residual {:.3e}", 0.0),
        _ModulusSuite("twisted", _twisted_visitor, "moduli {},{} exps {},{} residual {:.3e}", 0.0),
        _ModulusSuite(
            "lemma",
            lambda _: _lemma_checks,
            "modulus {} exps {}: |fhat| = {:.6f}, case formula says {} {:.6f}",
            0.0,
            prime_powers=True,
        ),
        _ModulusSuite(
            "selberg", partial(_grid_visitor, selberg_residuals), "(m,n,c)=({},{},{}) residual {:.3e}", 0.0
        ),
        _ModulusSuite("shift", _shift_visitor, "(w,c,g)=({},{},{}) residual {:.3e}", 0.0),
        _ModulusSuite("weil", partial(_grid_visitor, weil_ratios), "(m,n,c)=({},{},{}) ratio {:.6f}", 2.0),
    )
}


def _modulus_pass(
    max_norm: float, tol: float, suites: Sequence[_ModulusSuite]
) -> list[SuiteResult]:
    """The given suites in one pass over the moduli of norm <= max_norm,
    each with its own tally.  The unit table of each modulus comes from a
    run of unit_tables, and its group is built once, on that table, if a
    suite reads it; both are dropped before the next modulus unless a
    visitor keeps them."""
    if not suites:
        return []
    tallies = [_Tally(suite.name, suite.bound + tol, suite.message) for suite in suites]
    visits = [suite.visitor(max_norm) for suite in suites]
    prime_powers = (
        set(prime_power_ideals_up_to_norm(max_norm))
        if any(suite.prime_powers for suite in suites)
        else set()
    )
    # the moduli with a reader: the prime powers if every suite reads only those
    every = not all(suite.prime_powers for suite in suites)
    ideals = [ideal for ideal in ideals_up_to_norm(max_norm) if every or ideal in prime_powers]
    for ideal, units in zip(ideals, unit_tables([ideal.gen for ideal in ideals])):
        group = cache(partial(CharGroup, ideal.gen, units))
        for suite, visit, tally in zip(suites, visits, tallies):
            if not suite.prime_powers or ideal in prime_powers:
                for values, fields in visit(ideal.gen, units, group):
                    tally.add(values, fields)
    return [tally.result() for tally in tallies]


def _one_modulus_suite(suite: _ModulusSuite) -> Callable[[float, float], SuiteResult]:
    return lambda max_norm, tol: _modulus_pass(max_norm, tol, [suite])[0]


def _check_range(command: str, max_norm: float, tol: float) -> None:
    """DomainError unless 2 <= max_norm < MAX_UNIT_NORM and tol is finite and >= 0."""
    if not 2 <= max_norm < MAX_UNIT_NORM:  # also rejects NaN
        raise DomainError(f"{command} needs max_norm >= 2 and below {MAX_UNIT_NORM}")
    if not 0 <= tol < math.inf:  # also rejects NaN
        raise DomainError(f"{command} needs a finite tolerance >= 0 (--tolerance), got {tol}")


def lemma_pass(max_norm: float, tol: float) -> tuple[SuiteResult, list[tuple]]:
    """|fhat| against the case formulas at every prime-power modulus.

    Returns the suite verdict and, per character, the row (modulus,
    exps, class, |fhat|, "=" or "<=", predicted value, within tolerance).
    """
    _check_range("lemma-check", max_norm, tol)
    rows = []

    def checks(c: GaussianInt, units: UnitTable, group) -> Iterator[tuple]:
        for res, fields in _lemma_checks(c, units, group):
            for k, (cls, r) in enumerate(zip(group().classes(), res.tolist())):
                modulus, exps, g, rel, v = fields(k)
                rows.append((str(modulus), ":".join(map(str, exps)), cls, g, rel, v, r <= tol))
            yield res, fields

    lemma = _MODULUS_SUITES["lemma"]._replace(visitor=lambda _: checks)
    return _modulus_pass(max_norm, tol, [lemma])[0], rows


def _bessel_spread(z: complex) -> tuple[float, tuple]:
    tf = TestFunction(1.0, 1.0)
    vals = [
        rep(z, tf, DEFAULT_QUADRATURE)
        for rep in (bessel_integral_spectral, bessel_integral_deriv, bessel_integral_weighted)
    ]
    return (max(vals) - min(vals)) / max(abs(v) for v in vals), (z, vals)


def _suite_bessel(max_norm: float, tol: float) -> SuiteResult:
    checks = [_bessel_spread(z) for z in (1.0 + 0.0j, 0.5 + 0.5j)]
    return _tally("bessel", checks, max(tol, 1e-12), "z={}: representations {} spread {:.3e}")


def _plancherel_error(T: float, P: float) -> tuple[float, tuple]:
    tf = TestFunction(T, P)
    closed = plancherel_integral(tf)
    quad = plancherel_integral_quadrature(tf, DEFAULT_QUADRATURE)
    return abs(closed - quad) / closed, (T, P, closed, quad)


def _suite_plancherel(max_norm: float, tol: float) -> SuiteResult:
    checks = [_plancherel_error(T, P) for T, P in ((1.0, 1.0), (2.0, 1.0), (1.5, 2.5))]
    message = "T={},P={}: closed {!r} vs quadrature {!r}"
    return _tally("plancherel", checks, max(tol, 1e-13), message)


#: Suite registry; "charsum" groups the character-transform identities,
#: "all" is every suite.  The "lemma" suite honestly reports the known
#: failures of the prime-power case formulas at dyadic moduli of norm
#: >= 64, which is why the default verify range stops at 60 (the full
#: range runs in lemma-check and the acceptance tests).
SUITES: dict[str, Callable[[float, float], SuiteResult]] = {
    **{name: _one_modulus_suite(suite) for name, suite in _MODULUS_SUITES.items()},
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
    _check_range("verify", max_norm, tolerance)
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
