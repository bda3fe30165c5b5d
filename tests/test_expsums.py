"""Exponential sums over Z[i]: Kloosterman sums and the twisted sum F.

The brute-force oracle below shares nothing with the library internals:
residues are found by scanning an integer box, inverses by scanning,
and phases are assembled from integer data directly.  The F table, which
the library builds with one FFT, is also checked against the direct
O(phi^2) double sum that it replaced, the Kloosterman matrix against the
real part of the scalar loop that it replaced, and the per-modulus
Selberg, shift and Weil arrays against the scalar functions that they
replaced, all bit for bit.
"""

import cmath
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EDGE_MODULI, engine_moduli, with_edge_moduli
from gisieve.expsums import (
    _exp_table,
    f_sum,
    f_sum_values,
    kloosterman,
    kloosterman_matrix,
    kloosterman_sums,
    selberg_residuals,
    shift_residuals,
    weil_ratios,
)
from gisieve.gauss import (
    ONE,
    DomainError,
    GaussianInt,
    GIdeal,
    divisor_count,
    exact_div,
    gcd,
    ideal_divisors,
    ideals_up_to_norm,
    is_coprime,
    mod_inverse,
    moebius,
    unit_residues,
    unit_table,
)
from test_gauss import residues

small = st.integers(min_value=-7, max_value=7)
gints = st.builds(GaussianInt, small, small)
nonzero = gints.filter(lambda z: not z.is_zero())
moduli = gints.filter(lambda z: z.norm > 1)


# ---------------------------------------------------------------------------
# Independent brute-force oracle
# ---------------------------------------------------------------------------


def brute_residue_classes(c):
    """One (x, y) representative per class of Z[i]/(c), by box scan.

    z and w are congruent mod c exactly when z*conj(c) and w*conj(c)
    agree coordinatewise mod N(c); that key needs no division.
    """
    n = c.re * c.re + c.im * c.im
    seen = {}
    for x in range(n):
        for y in range(n):
            key = ((x * c.re + y * c.im) % n, (y * c.re - x * c.im) % n)
            if key not in seen:
                seen[key] = (x, y)
            if len(seen) == n:
                return list(seen.values())
    return list(seen.values())


def brute_kloosterman(m, n, c):
    """S(m, n; c) from first principles: e[z] = exp(2 pi i Re(z))."""
    big_n = c.re * c.re + c.im * c.im
    classes = brute_residue_classes(c)

    def mul(u, v):
        return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def key(u):
        return ((u[0] * c.re + u[1] * c.im) % big_n, (u[1] * c.re - u[0] * c.im) % big_n)

    one = key((1, 0))
    inverses = {}
    for a in classes:
        for b in classes:
            if key(mul(a, b)) == one:
                inverses[a] = b
                break
    total = 0j
    for a, ainv in inverses.items():
        # Re((a*m + ainv*n) * conj(c)) / N(c), kept as an exact integer ratio
        zm = mul(a, (m.re, m.im))
        zn = mul(ainv, (n.re, n.im))
        num = (zm[0] + zn[0]) * c.re + (zm[1] + zn[1]) * c.im
        total += cmath.exp(2j * cmath.pi * (num % big_n) / big_n)
    return total


def _brute_f_table(c):
    """F(a; c) for unit residues a, in the library's residue order,
    but with values assembled from the brute-force Kloosterman sum."""
    out = []
    for a in unit_residues(c):
        s = brute_kloosterman(a * a, GaussianInt(1, 0), c)
        num = 2 * (a.re * c.re + a.im * c.im)
        out.append(s * cmath.exp(2j * cmath.pi * (num % c.norm) / c.norm))
    return np.array(out)


def _loop_f_table(c):
    """F(a; c) for unit residues a by the direct double sum
    S(a^2, 1; c) = sum_b e[(b a^2 + b^{-1})/c], whose exponent is
    Re(b cbar) Re(a^2) - Im(b cbar) Im(a^2) + Re(b^{-1} cbar)  (mod N(c)),
    with inverses from the scalar extended Euclid."""
    units = unit_residues(c)
    invs = [a if c.is_unit() else mod_inverse(a, c) for a in units]
    big_n = c.norm
    tab = _exp_table(big_n)
    cbar = c.conj()
    p_arr = np.array([(b * cbar).re for b in units], dtype=np.int64)
    q_arr = np.array([(b * cbar).im for b in units], dtype=np.int64)
    r_arr = np.array([(binv * cbar).re for binv in invs], dtype=np.int64)
    s_arr = np.array([(a * a).re for a in units], dtype=np.int64)
    t_arr = np.array([(a * a).im for a in units], dtype=np.int64)
    tw_idx = np.array([(2 * (a * cbar).re) % big_n for a in units], dtype=np.int64)
    idx = (p_arr[:, None] * s_arr[None, :] - q_arr[:, None] * t_arr[None, :] + r_arr[:, None]) % big_n
    return tab[idx].sum(axis=0) * tab[tw_idx]


@lru_cache(maxsize=256)
def _loop_units(c):
    """(a, a^{-1}) for the units a mod c in raster order, by gcd and the
    extended Euclid."""
    return [(a, a if c.is_unit() else mod_inverse(a, c)) for a in residues(c) if is_coprime(a, c)]


def _loop_kloosterman(m, n, c):
    """S(m, n; c) by the scalar loop over the units in raster order, each
    term read from the shared root-of-unity table: the same additions, in
    the same order, as the library's array sum."""
    big_n = c.norm
    tab = _exp_table(big_n)
    mc = m * c.conj()
    nc = n * c.conj()
    total = 0j
    for a, ainv in _loop_units(c):
        total += tab[((a * mc).re + (ainv * nc).re) % big_n]
    return complex(total)


#: Kloosterman arguments, most of norm far beyond every engine modulus, so
#: the reduction of m*conj(c) and n*conj(c) before the int64 products counts.
LOOP_ARGS = (GaussianInt(0, 0), GaussianInt(2, 1), GaussianInt(-123, 57), GaussianInt(250, -199))


@with_edge_moduli
@given(engine_moduli)
def test_kloosterman_against_loop_oracle(c):
    # S is real: the real parts of the same terms, in the same order, for
    # the matrix, its 1 x 1 case, and the associates -c and ic
    for cc in (c, -c, c.times_i()):
        matrix = kloosterman_matrix(LOOP_ARGS, LOOP_ARGS, cc, unit_table(cc)).tolist()
        for m, row in zip(LOOP_ARGS, matrix):
            for n, value in zip(LOOP_ARGS, row):
                want = _loop_kloosterman(m, n, cc).real
                assert value == want
                assert kloosterman(m, n, cc) == want


@with_edge_moduli
@given(engine_moduli)
def test_kloosterman_associate_symmetries(c):
    # a -> -a gives S(m, n; -c) = S(m, n; c), and a -> ia gives
    # S(m, n; ic) = S(m, -n; c): the Kuznetsov sum takes two sums per ideal
    for m in LOOP_ARGS:
        for n in LOOP_ARGS:
            assert abs(kloosterman(m, n, -c) - kloosterman(m, n, c)) < 1e-9
            assert abs(kloosterman(m, n, c.times_i()) - kloosterman(m, -n, c)) < 1e-9


def _cumsum_oracle(ms, ns, c):
    """S(m_i, n_j; c) as one cumulative sum per modulus over its own unit
    table, the real parts of _exp_table in the residue order: the sums as
    they were taken before moduli were summed together."""
    units, big_n = unit_table(c), c.norm
    sides = []
    for xs, ux, uy in ((ms, units.x, units.y), (ns, units.inv_x, units.inv_y)):
        xc = np.array([[(x * c.conj()).re % big_n, (x * c.conj()).im % big_n] for x in xs])
        sides.append(ux * xc[:, :1] - uy * xc[:, 1:])
    k = (sides[0][:, None, :] + sides[1][None, :, :]) % big_n
    return np.cumsum(_exp_table(big_n).real[k], axis=-1)[..., -1]


@pytest.mark.parametrize(
    "m,n", [(GaussianInt(1, 0), GaussianInt(2, 1)), (GaussianInt(2, 2), GaussianInt(6, 0))]
)
def test_kloosterman_sums_of_runs_equal_per_modulus_sums(m, n):
    # every ideal of norm <= 400 and its associate ic, which has g > 1
    # where c has; the pair (2+2i, 6) shares 1+i with half the moduli.
    # Runs pad each modulus's row after its last term: the sums equal the
    # one-modulus cumulative sums bit for bit, and so does the one-modulus
    # case kloosterman_matrix
    moduli = [cc for ideal in ideals_up_to_norm(400) for cc in (ideal.gen, ideal.gen.times_i())]
    assert any(math.gcd(c.re, c.im) > 1 for c in moduli)
    sums = kloosterman_sums([m, n], [n, -n, ONE], moduli)
    assert sums.shape == (len(moduli), 2, 3)
    for c, got in zip(moduli, sums):
        want = _cumsum_oracle([m, n], [n, -n, ONE], c)
        assert got.tobytes() == want.tobytes()
        assert kloosterman_matrix([m, n], [n, -n, ONE], c, unit_table(c)).tobytes() == want.tobytes()
    assert kloosterman_sums([m], [n], []).shape == (0, 1, 1)


@pytest.mark.parametrize(
    "c",
    [
        GaussianInt(2, 1),
        GaussianInt(3, 0),
        GaussianInt(1, 1),
        GaussianInt(2, 2),
        GaussianInt(4, 0),
        GaussianInt(3, 2),
        GaussianInt(5, 1),
    ],
)
def test_kloosterman_against_brute_force(c):
    for m, n in [(1, 1), (1, 2), (2, 3), (0, 1)]:
        mm, nn = GaussianInt(m, 1), GaussianInt(n, -1)
        lib = kloosterman(mm, nn, c)
        ora = brute_kloosterman(mm, nn, c)
        assert abs(lib - ora) < 1e-10


def test_kloosterman_hand_value():
    # modulus 2+i: the residue field is F_5 via a -> a, and the additive
    # character is a -> e(2a/5) since Re(a*(2-i)) = 2a.  Hence
    # S(1,1;2+i) = sum_{a=1..4} e(2(a + a^{-1})/5) = 2 + 2 cos(2 pi / 5).
    expected = 2.0 + 2.0 * math.cos(2.0 * math.pi / 5.0)
    got = kloosterman(GaussianInt(1, 0), GaussianInt(1, 0), GaussianInt(2, 1))
    assert got.real == pytest.approx(expected, abs=1e-12)
    assert abs(got.imag) < 1e-12


def test_kloosterman_zero_modulus():
    with pytest.raises(DomainError):
        kloosterman(GaussianInt(1, 0), GaussianInt(1, 0), GaussianInt(0, 0))


@given(gints, gints, moduli)
def test_kloosterman_symmetric_and_real(m, n, c):
    s1 = kloosterman(m, n, c)
    s2 = kloosterman(n, m, c)
    # alpha -> alpha^{-1} swaps the roles of m and n
    assert abs(s1 - s2) < 1e-9
    # alpha -> -alpha fixes the sum; pairing alpha with conj shows realness
    assert abs(s1.imag) < 1e-9


@given(gints, gints, moduli, gints)
def test_kloosterman_periodic(m, n, c, k):
    assert abs(kloosterman(m, n, c) - kloosterman(m + k * c, n, c)) < 1e-9
    assert abs(kloosterman(m, n, c) - kloosterman(m, n + k * c, c)) < 1e-9


@given(gints, gints, moduli, st.integers(min_value=0, max_value=30))
def test_kloosterman_unit_substitution(m, n, c, idx):
    units = unit_residues(c)
    u = units[idx % len(units)]
    shifted = kloosterman(u * m, mod_inverse(u, c) * n, c)
    assert abs(kloosterman(m, n, c) - shifted) < 1e-9


# ---------------------------------------------------------------------------
# Weil bound
# ---------------------------------------------------------------------------


@given(gints, gints, moduli)
def test_weil_ratio_bounded(m, n, c):
    assert weil_ratios([m], [n], c)[0, 0] <= 2.0 + 1e-9


def test_weil_ratio_attained():
    # the unit modulus gives |S| = 1 = tau * sqrt(N(c)), ratio exactly 1
    one = GaussianInt(1, 0)
    assert weil_ratios([GaussianInt(3, 1)], [one], one)[0, 0] == pytest.approx(1.0)
    # prime moduli come close to square-root size: ratio 0.9653 at c = 1+4i
    near = weil_ratios([one], [GaussianInt(3, 1)], GaussianInt(1, 4))[0, 0]
    assert 0.9 < near <= 2.0


# ---------------------------------------------------------------------------
# F(w; c) and its value table
# ---------------------------------------------------------------------------


def test_f_sum_needs_coprime():
    with pytest.raises(DomainError):
        f_sum(GaussianInt(1, 1), GaussianInt(2, 0))


@given(moduli)
def test_f_sum_values_match_scalar(c):
    table = f_sum_values(c, unit_table(c))
    units = unit_residues(c)
    assert table.shape == (len(units),)
    for idx in (0, len(units) // 2, len(units) - 1):
        assert abs(table[idx] - f_sum(units[idx], c)) < 1e-10


@with_edge_moduli
@given(engine_moduli)
def test_f_table_against_loop_oracle(c):
    table = f_sum_values(c, unit_table(c))
    assert not table.flags.writeable  # a group shares its table with its callers
    assert np.max(np.abs(table - _loop_f_table(c))) < 1e-10


@pytest.mark.parametrize("c", [c for c in EDGE_MODULI if c.norm <= 50])
def test_f_table_against_brute_force(c):
    assert np.max(np.abs(f_sum_values(c, unit_table(c)) - _brute_f_table(c))) < 1e-10


def test_f_table_accuracy_against_fsum():
    # F at every 97th unit, summed term by term with exactly rounded math.fsum
    c = GaussianInt(90, 27)
    big_n = c.norm
    units = unit_residues(c)
    invs = [mod_inverse(b, c) for b in units]
    cbar = c.conj()
    table = f_sum_values(c, unit_table(c))
    worst = 0.0
    for i in range(0, len(units), 97):
        a = units[i]
        m = a * a * cbar
        k = np.array(
            [((b * m).re + (binv * cbar).re) % big_n for b, binv in zip(units, invs)],
            dtype=np.float64,
        )
        s = complex(
            math.fsum(np.cos(2.0 * np.pi * k / big_n)), math.fsum(np.sin(2.0 * np.pi * k / big_n))
        )
        want = s * cmath.exp(2j * cmath.pi * ((2 * (a * cbar).re) % big_n) / big_n)
        worst = max(worst, abs(table[i] - want))
    assert worst <= 1e-11


@given(moduli, gints)
def test_f_sum_periodic_in_w(c, k):
    w = GaussianInt(1, 0)
    if not is_coprime(w + k * c, c):
        return
    assert abs(f_sum(w, c) - f_sum(w + k * c, c)) < 1e-9


def test_f_sum_brute_force():
    # F(w; c) = S(w^2, 1; c) e[2w/c] straight from the brute-force sum
    c = GaussianInt(3, 2)
    for w in (GaussianInt(1, 0), GaussianInt(2, 1), GaussianInt(0, 1)):
        s = brute_kloosterman(w * w, GaussianInt(1, 0), c)
        num = 2 * (w.re * c.re + w.im * c.im)
        phase = cmath.exp(2j * cmath.pi * (num % c.norm) / c.norm)
        assert abs(f_sum(w, c) - s * phase) < 1e-10


# ---------------------------------------------------------------------------
# Exact identities
# ---------------------------------------------------------------------------


def scalar_selberg_residual(m, n, c):
    """S(m^2, n^2; c) - sum_{d | (m^2, n^2, c)} N(d) S((mn/d)^2, 1; c/d),
    one pair at a time, with the divisors of the triple gcd."""
    lhs = kloosterman(m * m, n * n, c)
    g = gcd(gcd(m * m, n * n), c)
    rhs = 0j
    mn = m * n
    for d in ideal_divisors(GIdeal.of(g)):
        w = exact_div(mn, d.gen)
        rhs += d.norm * kloosterman(w * w, ONE, exact_div(c, d.gen))
    return lhs - rhs


def scalar_shift_residual(w, c, g):
    """S(w^2, 1; c g), less mu((g)) S((w/g)^2, 1; c) when gcd(c, g) = (1)."""
    q = exact_div(w, g)
    lhs = kloosterman(w * w, ONE, c * g)
    if not is_coprime(c, g):
        return lhs
    rhs = moebius(GIdeal.of(g)) * kloosterman(q * q, ONE, c)
    return lhs - rhs


def scalar_weil_ratio(m, n, c):
    """|S(m, n; c)| / (tau((c)) * sqrt(N((m,n,c))) * sqrt(N(c))), with the
    triple gcd by the Euclidean algorithm."""
    g3 = gcd(gcd(m, n), c) if not (m.is_zero() and n.is_zero()) else gcd(c, c)
    val = abs(kloosterman(m, n, c))
    tau = divisor_count(GIdeal.of(c))
    return val / (tau * math.sqrt(g3.norm) * math.sqrt(c.norm))


#: The suites' argument grid: the nine ideals of norm <= 10.
SMALL = [ideal.gen for ideal in ideals_up_to_norm(10)]


def sums_mod(qs, c):
    """S(q^2, 1; c) for q of qs, the sums_c of shift_residuals."""
    return kloosterman_matrix([q * q for q in qs], [ONE], c, unit_table(c))[:, 0]


@with_edge_moduli
@given(engine_moduli)
def test_identity_arrays_against_scalar_oracles(c):
    selberg = selberg_residuals(SMALL, SMALL, c).tolist()
    weil = weil_ratios(SMALL, SMALL, c).tolist()
    for i, m in enumerate(SMALL):
        for j, n in enumerate(SMALL):
            assert selberg[i][j] == scalar_selberg_residual(m, n, c).real
            assert weil[i][j] == scalar_weil_ratio(m, n, c)
    for g in SMALL:
        shift = shift_residuals(SMALL, c, g, sums_mod(SMALL, c)).tolist()
        assert shift == [scalar_shift_residual(q * g, c, g) for q in SMALL]


@given(nonzero, nonzero, moduli)
def test_selberg_identity(m, n, c):
    assert abs(selberg_residuals([m], [n], c)[0, 0]) < 1e-9


@given(nonzero, nonzero, moduli)
def test_shift_vanishing(q, g, c):
    assert abs(shift_residuals([q], c, g, sums_mod([q], c))[0]) < 1e-9


# ---------------------------------------------------------------------------
# Divisor structure
# ---------------------------------------------------------------------------


def test_divisor_structure_used_by_selberg():
    # anchor for the identity's divisor sums: (6) = (1+i)^2 (3), so
    # tau((6)) = tau((1+i)^2) tau((3)) = 3 * 2
    assert divisor_count(GIdeal.of(GaussianInt(6, 0))) == 6
