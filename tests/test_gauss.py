"""Arithmetic of Z[i]: elements, ideals, factorization, enumeration."""

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import engine_moduli, with_edge_moduli
import gisieve
from gisieve import gauss
from gisieve.gauss import (
    DomainError,
    Factorization,
    GaussianInt,
    GIdeal,
    NotInvertibleError,
    ONE,
    UNIT_IDEAL,
    ZERO,
    canonical_associate,
    divides,
    divides_points,
    divisor_count,
    divmod_nearest,
    euler_phi,
    exact_div,
    factor,
    gcd,
    ideal_divisors,
    ideals_up_to_norm,
    is_coprime,
    mod_inverse,
    moebius,
    multiplicative_functions,
    prime_power_ideals_up_to_norm,
    reduce_mod,
    residue_box,
    unit_residues,
    unit_positions,
    unit_runs,
    unit_table,
    unit_tables,
)

I = GaussianInt(0, 1)


def residues(c):
    """All N(c) residue classes mod c, in the (y, x) raster order of the
    Hermite box: the order of unit_residues and the unit table."""
    d, _, g = residue_box(c)
    return [GaussianInt(x, y) for y in range(g) for x in range(d)]


small = st.integers(min_value=-9, max_value=9)
gints = st.builds(GaussianInt, small, small)
nonzero = gints.filter(lambda z: not z.is_zero())


# ---------------------------------------------------------------------------
# Element arithmetic
# ---------------------------------------------------------------------------


@given(gints, gints)
def test_norm_multiplicative(a, b):
    assert (a * b).norm == a.norm * b.norm


@given(gints)
def test_conj_involution_and_norm(z):
    assert z.conj().conj() == z
    assert (z * z.conj()) == GaussianInt(z.norm, 0)


@given(gints)
def test_times_i(z):
    assert z.times_i() == I * z
    assert z.times_i().times_i() == -z


@given(gints)
def test_complex_conversion(z):
    assert complex(z) == complex(z.re, z.im)


@given(gints)
def test_parse_str_round_trip(z):
    assert GaussianInt.parse(str(z)) == z


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", ZERO),
        ("i", I),
        ("-i", GaussianInt(0, -1)),
        ("3-4i", GaussianInt(3, -4)),
        ("-2+i", GaussianInt(-2, 1)),
        ("7", GaussianInt(7, 0)),
    ],
)
def test_parse_literals(text, expected):
    assert GaussianInt.parse(text) == expected


def test_parse_rejects_garbage():
    for text in ("", "2.5", "1+2j+3", "i+i"):
        with pytest.raises(DomainError):
            GaussianInt.parse(text)


UNITS = (ONE, I, -ONE, -I)


def test_units_are_fourth_roots():
    assert len(set(UNITS)) == 4
    for u in UNITS:
        assert u.is_unit() and u.norm == 1
        assert u**4 == ONE


@given(nonzero)
def test_canonical_associate(z):
    w = canonical_associate(z)
    assert w.norm == z.norm
    assert any(w == u * z for u in UNITS)
    # canonical representative lies in the first quadrant, positive real axis
    assert w.re > 0 and w.im >= 0
    assert canonical_associate(w) == w


# ---------------------------------------------------------------------------
# Division, gcd
# ---------------------------------------------------------------------------


@given(gints, nonzero)
def test_divmod_nearest(a, b):
    q, r = divmod_nearest(a, b)
    assert q * b + r == a
    assert r.norm * 2 <= b.norm  # nearest-lattice remainder


@given(gints, nonzero)
def test_exact_div_round_trip(a, b):
    assert exact_div(a * b, b) == a


def test_exact_div_rejects_nondivisor():
    with pytest.raises(DomainError):
        exact_div(GaussianInt(1, 0), GaussianInt(1, 1))


@given(gints, gints)
def test_gcd_divides_both(a, b):
    if a.is_zero() and b.is_zero():
        return
    g = gcd(a, b)
    assert divides(g, a) and divides(g, b)
    assert g == canonical_associate(g)


@given(gints, nonzero, nonzero)
def test_gcd_common_factor(a, b, c):
    # c divides both ab*c-multiples, so it divides their gcd
    g = gcd(a * c, b * c)
    if not (a.is_zero() and b.is_zero()):
        assert divides(c, g)


@given(nonzero)
def test_gcd_with_zero(z):
    assert gcd(z, ZERO) == canonical_associate(z)
    assert gcd(ZERO, z) == canonical_associate(z)


@given(gints, gints, nonzero)
def test_reduce_mod_is_congruence(a, b, c):
    assert reduce_mod(a, c) == reduce_mod(a + b * c, c)
    assert divides(c, a - reduce_mod(a, c))


# ---------------------------------------------------------------------------
# Residue systems and inverses
# ---------------------------------------------------------------------------


@given(nonzero)
def test_residue_system_complete(c):
    reps = residues(c)
    assert len(reps) == c.norm
    assert len({(reduce_mod(r, c).re, reduce_mod(r, c).im) for r in reps}) == c.norm


@given(nonzero)
def test_unit_residues_match_phi(c):
    units = unit_residues(c)
    assert len(units) == euler_phi(GIdeal.of(c))
    for u in units:
        assert is_coprime(u, c)


@given(nonzero)
def test_mod_inverse(c):
    if c.is_unit():
        return
    for a in unit_residues(c)[:12]:
        inv = mod_inverse(a, c)
        assert reduce_mod(a * inv, c) == reduce_mod(ONE, c)


def test_mod_inverse_rejects_noncoprime():
    with pytest.raises(NotInvertibleError):
        mod_inverse(GaussianInt(1, 1), GaussianInt(2, 0))


@with_edge_moduli
@given(engine_moduli)
def test_unit_table_against_gcd_and_euclid(c):
    # the numpy mask and the power-map inverses against gcd and extended
    # Euclid, and the position map: each residue's index in unit_residues(c)
    # or -1, also after a shift by multiples of N(c) to near the int64 limit
    index = {a: i for i, a in enumerate(unit_residues(c))}
    res = residues(c)
    x = np.array([r.re for r in res], dtype=np.int64)
    y = np.array([r.im for r in res], dtype=np.int64)
    want = [index.get(r, -1) for r in res]
    table = unit_table(c)
    assert unit_positions(c, table, x, y).tolist() == want
    far = (2**62 // c.norm) * c.norm
    assert unit_positions(c, table, x + far, y - far).tolist() == want
    if c.is_unit():
        assert unit_residues(c) == (ZERO,)
        return
    assert unit_residues(c) == tuple(r for r in residues(c) if is_coprime(r, c))
    inverses = [GaussianInt(x, y) for x, y in zip(table.inv_x.tolist(), table.inv_y.tolist())]
    assert inverses == [mod_inverse(a, c) for a in unit_residues(c)]


@with_edge_moduli
@given(engine_moduli)
def test_divides_points_matches_divides(g):
    # a grid of points with negative coordinates, the unit modulus 1 among
    # the edge moduli; the mask against the scalar Euclidean test
    points = [GaussianInt(a, b) for a in range(-12, 13) for b in range(-12, 13)]
    x = np.array([z.re for z in points], dtype=np.int64)
    y = np.array([z.im for z in points], dtype=np.int64)
    assert divides_points(g, x, y).tolist() == [divides(g, z) for z in points]


def test_unit_table_inverses_at_every_modulus_up_to_2000():
    # every ideal of norm <= 2000 and its four associates, which share the
    # box and the unit order but not the shifts a + t c.  An inverse is
    # checked exactly at every unit: a b = 1 mod c with b in the box is
    # what makes b = mod_inverse(a, c).  mod_inverse itself is called where
    # N(a) is not prime to d, so that the table shifted a, and at both ends
    shifted_moduli = 0
    for ideal in ideals_up_to_norm(2000):
        for c in (ideal.gen, ideal.gen.times_i(), -ideal.gen, -ideal.gen.times_i()):
            table = unit_table(c)
            d, _, g = residue_box(c)
            ax, ay, bx, by = table.x, table.y, table.inv_x, table.inv_y
            assert ((bx >= 0) & (bx < d) & (by >= 0) & (by < g)).all()
            assert divides_points(c, ax * bx - ay * by - 1, ax * by + ay * bx).all()
            shifted = np.gcd(ax * ax + ay * ay, d) > 1
            shifted_moduli += bool(shifted.any())
            for k in [0, len(ax) - 1, *np.flatnonzero(shifted).tolist()]:
                inverse = mod_inverse(GaussianInt(int(ax[k]), int(ay[k])), c)
                assert (int(bx[k]), int(by[k])) == (inverse.re, inverse.im)
    assert shifted_moduli > 2000  # 2,112 of the 6,292 moduli


def _oracle_units(c):
    """The unit mask of c's box from its Gaussian primes (factor and
    divides_points), independent of the rational structure that the
    tables read it from."""
    d, _, g = residue_box(c)
    y, x = np.divmod(np.arange(d * g, dtype=np.int64), d)
    unit = np.ones(d * g, dtype=bool)
    for p, _ in factor(c).factors:
        unit &= ~divides_points(p.gen, x, y)
    return x, y, unit


def _same_table(got, want):
    return all(
        a.dtype == b.dtype and a.flags.writeable == b.flags.writeable and np.array_equal(a, b)
        for a, b in zip(got, want)
    )


def test_unit_tables_against_prime_oracle_to_norm_2000():
    # the run-built tables of every ideal of norm <= 2000 and its four
    # associates: the units are the box points that no Gaussian prime of c
    # divides, in raster order, and each inverse b is in the box with
    # a b = 1 mod c, which makes b = mod_inverse(a, c); mod_inverse itself
    # is called at both ends of every 50th table.  Each table equals the
    # one-modulus unit_table(c)
    moduli = [
        c
        for ideal in ideals_up_to_norm(2000)
        for c in (ideal.gen, ideal.gen.times_i(), -ideal.gen, -ideal.gen.times_i())
    ]
    for k, (c, table) in enumerate(zip(moduli, unit_tables(moduli), strict=True)):
        x, y, unit = _oracle_units(c)
        d, _, g = residue_box(c)
        position = np.where(unit, np.cumsum(unit) - 1, -1)
        assert np.array_equal(table.x, x[unit]) and np.array_equal(table.y, y[unit])
        assert np.array_equal(table.position, position)
        ax, ay, bx, by = table.x, table.y, table.inv_x, table.inv_y
        assert ((bx >= 0) & (bx < d) & (by >= 0) & (by < g)).all()
        assert divides_points(c, ax * bx - ay * by - 1, ax * by + ay * bx).all()
        if k % 50 == 0 and not c.is_unit():
            for i in (0, len(ax) - 1):
                inverse = mod_inverse(GaussianInt(int(ax[i]), int(ay[i])), c)
                assert (int(bx[i]), int(by[i])) == (inverse.re, inverse.im)
        if k % 7 == 0:
            assert _same_table(table, unit_table(c))
        assert all(a.dtype == np.int64 and not a.flags.writeable for a in table)


def test_unit_runs_split_at_the_residue_budget():
    # a run closes before its count times its largest norm passes
    # RUN_RESIDUES; a modulus above the budget is a run of its own, also
    # between small ones; the unit modulus and conjugates ride along, and
    # every table equals its one-modulus build
    budget = gauss.RUN_RESIDUES
    big = GaussianInt(91, 5)
    assert big.norm > budget
    near = [ideal.gen for ideal in ideals_up_to_norm(budget // 3) if ideal.norm > budget // 3 - 40]
    moduli = [ONE, GaussianInt(2, 1), *near, big, GaussianInt(3, 3), GaussianInt(1, -2), big.conj()]
    runs = list(unit_runs(moduli))
    assert [c for run in runs for c in run.moduli] == moduli
    for run in runs:
        top = max(c.norm for c in run.moduli)
        assert len(run.moduli) == 1 or len(run.moduli) * top <= budget
    assert (big,) in [run.moduli for run in runs]
    assert (big.conj(),) in [run.moduli for run in runs]
    assert len(runs) >= 4
    for c, table in zip(moduli, (t for run in runs for t in run.tables), strict=True):
        assert _same_table(table, unit_table(c))
    assert [a.tolist() for a in unit_table(ONE)] == [[0]] * 5
    assert list(unit_runs([])) == [] and list(unit_tables([])) == []


def test_unit_tables_do_not_depend_on_order_or_split():
    # a list cut in two, reversed, or interleaved with other moduli gives
    # every modulus the same table bit for bit
    moduli = [c for ideal in ideals_up_to_norm(300) for c in (ideal.gen, ideal.gen.conj())]
    whole = dict(zip(moduli, unit_tables(moduli)))
    cut = len(moduli) // 3
    parts = [*unit_tables(moduli[:cut]), *unit_tables(moduli[cut:])]
    reverse = list(unit_tables(moduli[::-1]))[::-1]
    shuffled = [moduli[k] for k in np.random.default_rng(5).permutation(len(moduli))]
    for c, table in zip(moduli, parts):
        assert _same_table(table, whole[c])
    for c, table in zip(moduli, reverse):
        assert _same_table(table, whole[c])
    for c, table in zip(shuffled, unit_tables(shuffled)):
        assert _same_table(table, whole[c])


def test_unit_tables_reject_zero_and_oversized_moduli():
    with pytest.raises(DomainError):
        list(unit_tables([ONE, ZERO]))
    with pytest.raises(DomainError):
        list(unit_tables([GaussianInt(2, 1), GaussianInt(46341, 0)]))


@pytest.mark.parametrize("c,a", [((4, 2), (8, 1)), ((2, 16), (34, 1))])
def test_unit_table_inverse_needs_a_shift_by_c(c, a):
    # c = 2 (2+i) and a = 8+i = (2-i)(3+2i): a is a unit mod c, but
    # N(a) = 65 shares 5 with d = 10, so the table inverts the norm of
    # a + c.  At c = 2+16i (d = 130) and a = 34+i, N(a) = 13 * 89 and
    # N(a + c) = 5 * 317: it takes a + 2c
    c, a = GaussianInt(*c), GaussianInt(*a)
    table = unit_table(c)
    assert math.gcd(a.norm, residue_box(c)[0]) > 1
    assert a in unit_residues(c)  # a is its own box representative
    inverses = [GaussianInt(x, y) for x, y in zip(table.inv_x.tolist(), table.inv_y.tolist())]
    assert inverses == [mod_inverse(u, c) for u in unit_residues(c)]


def test_unit_table_rejects_norm_that_could_overflow():
    big = GaussianInt(46341, 0)  # N = 2147488281 >= 2^31
    assert big.norm >= gauss.MAX_UNIT_NORM
    with pytest.raises(DomainError):
        unit_table(big)


def test_module_caches_are_bounded():
    modules = [
        importlib.import_module(f"gisieve.{info.name}")
        for info in pkgutil.iter_modules(gisieve.__path__)
    ]
    caches = {
        f"{module.__name__}.{name}": obj
        for module in modules
        for name, obj in vars(module).items()
        if hasattr(obj, "cache_parameters") and obj.__module__ == module.__name__
    }
    assert "gisieve.characters.char_group" in caches
    assert "gisieve.spectral._grid_weights" in caches
    assert "gisieve.spectral._kuznetsov_h" in caches
    assert [name for name, obj in caches.items() if obj.cache_parameters()["maxsize"] is None] == []


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


@given(nonzero)
def test_factor_reconstructs(z):
    fac = factor(z)
    assert isinstance(fac, Factorization)
    assert fac.unit.is_unit()
    value = fac.unit
    for p, e in fac.factors:
        value = value * p.gen**e
    assert value == z


@given(nonzero)
def test_factor_primes_are_prime(z):
    for p, e in factor(z).factors:
        assert e >= 1
        assert p.gen == canonical_associate(p.gen)
        assert divisor_count(p) == 2  # exactly (1) and itself


def test_factor_ramified_and_split():
    # 2 = -i (1+i)^2 and 5 = (2+i)(2-i) up to units
    two = factor(GaussianInt(2, 0))
    assert [(p.norm, e) for p, e in two.factors] == [(2, 2)]
    five = factor(GaussianInt(5, 0))
    assert sorted((p.norm, e) for p, e in five.factors) == [(5, 1), (5, 1)]
    # 3 is inert: a single prime of norm 9
    three = factor(GaussianInt(3, 0))
    assert [(p.norm, e) for p, e in three.factors] == [(9, 1)]


@given(nonzero)
def test_ideal_divisors_complete(z):
    n = GIdeal.of(z)
    divs = ideal_divisors(n)
    assert len(divs) == divisor_count(n)
    assert len(set(divs)) == len(divs)
    assert divs == sorted(divs)
    assert UNIT_IDEAL in divs and n in divs
    for d in divs:
        assert divides(d.gen, n.gen)


# ---------------------------------------------------------------------------
# Multiplicative functions
# ---------------------------------------------------------------------------


@given(nonzero, nonzero)
def test_multiplicative_on_coprime(a, b):
    if not is_coprime(a, b):
        return
    na, nb, nab = GIdeal.of(a), GIdeal.of(b), GIdeal.of(a * b)
    fa, fb, fab = (multiplicative_functions(x) for x in (na, nb, nab))
    assert fab.tau == fa.tau * fb.tau
    assert fab.phi == fa.phi * fb.phi
    assert fab.mu == fa.mu * fb.mu


@given(nonzero)
def test_moebius_sum(z):
    n = GIdeal.of(z)
    total = sum(moebius(d) for d in ideal_divisors(n))
    assert total == (1 if n == UNIT_IDEAL else 0)


@given(nonzero)
def test_phi_sum(z):
    n = GIdeal.of(z)
    assert sum(euler_phi(d) for d in ideal_divisors(n)) == n.norm


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _ideal_count_by_hand(limit):
    # count pairs (a, b), a >= 1, b >= 0 with a^2 + b^2 <= limit: one
    # canonical generator per nonzero ideal
    count = 0
    top = int(math.isqrt(int(limit)))
    for a in range(1, top + 1):
        count += int(math.isqrt(int(limit) - a * a)) + 1
    return count


@pytest.mark.parametrize("limit", [1, 2, 10, 57, 200])
def test_ideals_up_to_norm(limit):
    ideals = ideals_up_to_norm(limit)
    assert len(ideals) == _ideal_count_by_hand(limit)
    assert ideals == sorted(ideals)
    assert len(set(ideals)) == len(ideals)
    for n in ideals:
        assert 1 <= n.norm <= limit
        assert n.gen == canonical_associate(n.gen)


@pytest.mark.parametrize("limit", [0.5, 1, 2, 40, 1000.7, 10**4])
def test_ideals_up_to_norm_against_lt_sorted_oracle(limit):
    # sorted by sort_key, the list is the one GIdeal.__lt__ sorts
    want = [
        GIdeal(GaussianInt(a, b))
        for a in range(1, math.isqrt(int(limit)) + 1)
        for b in range(math.isqrt(int(limit) - a * a) + 1)
    ]
    assert ideals_up_to_norm(limit) == sorted(want)


@pytest.mark.parametrize("limit", [math.nan, math.inf])
def test_ideals_up_to_norm_rejects_non_finite_limits(limit):
    with pytest.raises(DomainError, match="finite limit"):
        ideals_up_to_norm(limit)


def test_ideals_up_to_norm_of_minus_infinity_is_empty():
    assert ideals_up_to_norm(-math.inf) == []


def test_prime_power_ideals():
    pps = prime_power_ideals_up_to_norm(100)
    for n in pps:
        assert len(factor(n.gen).factors) == 1
    norms = sorted(n.norm for n in pps)
    # norms of prime powers: 2,4,8,...,64 (ramified), 5,25 (split, both
    # primes above 5), 9,81 (inert 3), 13, 17, 29, 37, 41, 49, ...
    assert norms.count(2) == 1 and norms.count(4) == 1
    assert norms.count(5) == 2 and norms.count(25) == 2
    assert norms.count(9) == 1 and norms.count(81) == 1
    assert norms.count(49) == 1  # inert 7 squared
    assert all(n <= 100 for n in norms)


def test_gideal_identity_and_order():
    a = GIdeal.of(GaussianInt(1, 2))
    b = GIdeal.of(GaussianInt(2, 1))  # conjugate ideal, same norm
    assert a != b and a.norm == b.norm == 5
    assert (a < b) != (b < a)
    assert a * UNIT_IDEAL == a
    assert GIdeal.of(GaussianInt(-2, 1)) == GIdeal.of(GaussianInt(1, 2))
