"""Dirichlet characters mod c in Z[i] and the transform fhat.

The array construction of each group's generators and discrete-log grid
is checked against the scalar construction it replaced (tuple arithmetic
and a dict of discrete logs), kept here as the oracle, and the inverses
of each group's unit table against its discrete-log grid, on which the
inverse of the unit at k is the unit at -k.  Also includes an
independent transform oracle (characters applied to the brute-force F
table from test_expsums) and a frozen truth table for |fhat| at the
powers of (1+i), where the values were established by that brute-force
route.  The all-at-once fhat tables, conductors, classes and case-formula
predictions are checked against the per-character dot product, conductor
searches, class rule and case analysis they replaced.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gisieve.characters import (
    CharGroup,
    char_group,
    f_sum_hat,
    local_prediction,
    twisted_mult_residual,
    twisted_mult_table,
)
from gisieve.expsums import f_sum_values
from gisieve.gauss import (
    ONE,
    DomainError,
    GaussianInt,
    GIdeal,
    UNIT_IDEAL,
    divides,
    divides_points,
    euler_phi,
    factor,
    factor_int,
    ideal_divisors,
    ideals_up_to_norm,
    is_coprime,
    mod_inverse,
    prime_power_ideals_up_to_norm,
    reduce_mod,
    reduce_pair,
    residue_box,
    unit_residues,
    unit_table,
    unit_tables,
)

from conftest import EDGE_MODULI, engine_moduli, ramified_power, with_edge_moduli
from test_expsums import _brute_f_table, _loop_f_table

small = st.integers(min_value=-7, max_value=7)
moduli = st.builds(GaussianInt, small, small).filter(lambda z: z.norm > 1)


def _trivial(grp):
    return grp.character((0,) * len(grp.gen_orders))


# ---------------------------------------------------------------------------
# Group structure
# ---------------------------------------------------------------------------


@given(moduli)
def test_group_order_is_phi(c):
    grp = char_group(c)
    assert grp.order == euler_phi(GIdeal.of(c))
    assert sum(1 for _ in grp.characters()) == grp.order
    assert math.prod(grp.gen_orders) == grp.order


@given(moduli)
def test_character_orthogonality(c):
    grp = char_group(c)
    mat = grp.value_matrix()
    gram = mat @ np.conj(mat.T)  # sum over residues of chi_j conj(chi_k)
    assert np.allclose(gram, grp.order * np.eye(grp.order), atol=1e-9)


@given(moduli)
def test_residue_orthogonality(c):
    grp = char_group(c)
    mat = grp.value_matrix()
    gram = np.conj(mat.T) @ mat  # sum over characters of conj(chi(a)) chi(b)
    assert np.allclose(gram, grp.order * np.eye(grp.order), atol=1e-9)


@given(moduli)
def test_value_matrix_rows(c):
    grp = char_group(c)
    mat = grp.value_matrix()
    units = unit_residues(c)
    for j, chi in enumerate(grp.characters()):
        for i in (0, grp.order - 1):
            assert mat[j, i] == pytest.approx(chi(units[i]), abs=1e-12)


@given(moduli)
def test_characters_multiplicative(c):
    grp = char_group(c)
    chars = list(grp.characters())
    chi = chars[len(chars) // 2]
    units = unit_residues(c)
    a, b = units[0], units[-1]
    assert chi(a * b) == pytest.approx(chi(a) * chi(b), abs=1e-12)


@given(moduli)
def test_character_vanishes_off_units(c):
    grp = char_group(c)
    chi = next(iter(grp.characters()))
    assert chi(c) == 0j  # shares a factor with the modulus
    assert chi(GaussianInt(0, 0)) == 0j


def test_group_product_and_conjugate():
    # chi(a) conj(chi(a)) = 1 on the units, and chi(a^-1) = conj(chi(a)):
    # the weights of a and of its inverse add up to 0 mod the exponent
    grp = char_group(GaussianInt(5, 0))
    a = unit_residues(grp.element)[-1]
    a_inv = mod_inverse(a, grp.element)
    for chi in list(grp.characters())[:4]:
        w = grp.weights([chi.exps], [a.re, a_inv.re], [a.im, a_inv.im])
        assert w.min() >= 0 and w.sum() % grp.exponent == 0
        assert chi(a) * chi(a).conjugate() == pytest.approx(1.0, abs=1e-12)
        assert chi(a_inv) == pytest.approx(chi(a).conjugate(), abs=1e-12)


# ---------------------------------------------------------------------------
# Generators and discrete logs against the scalar construction
# ---------------------------------------------------------------------------




def _pow(x, k, mul, one):
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        x = mul(x, x)
        k >>= 1
    return out


def _abelian_generators(keys, mul, one):
    """Direct-product generators [(g, order)] of an abelian group.

    `keys` is the full (hashable, sortable) element list.  The first
    generator has maximal order = the group exponent; each further one is
    a maximal-order element of the successive quotient, corrected by the
    standard lemma so that its order in the full group equals its order
    in the quotient.  The internal direct product of the results is the
    whole group.
    """
    n = len(keys)
    if n == 1:
        return []
    qs = [p for p, _ in factor_int(n)]

    def elem_order(x):
        o = n
        for q in qs:
            while o % q == 0 and _pow(x, o // q, mul, one) == one:
                o //= q
        return o

    best_order = 0
    best = one
    for x in keys:
        o = elem_order(x)
        if o > best_order or (o == best_order and x < best):
            best_order, best = o, x
    g = best
    if best_order == n:
        return [(g, n)]

    # subgroup <g> and coset labels (smallest member, found by sorted sweep)
    cyc = [one]
    p = g
    while p != one:
        cyc.append(p)
        p = mul(p, g)
    label = {}
    for x in sorted(keys):
        if x in label:
            continue
        for h in cyc:
            label[mul(x, h)] = x
    qkeys = sorted(set(label.values()))

    def qmul(u, v):
        return label[mul(u, v)]

    sub = _abelian_generators(qkeys, qmul, label[one])

    gdlog = {h: j for j, h in enumerate(cyc)}
    gens = [(g, best_order)]
    for h, m in sub:
        j = gdlog[_pow(h, m, mul, one)]  # h^m lies in <g> since its label is trivial
        assert j % m == 0, "maximal-order peeling violated the lifting lemma"
        corr = _pow(g, (best_order - j // m) % best_order, mul, one)
        gens.append((mul(h, corr), m))
    return gens


def _scalar_group(c):
    """(gen_elements, gen_orders, exponent_vectors, _flat, _dlog_matrix) of
    the group mod c, by tuple arithmetic and a dict of discrete logs."""
    units = unit_table(c)
    box = residue_box(c)
    keys = list(zip(units.x.tolist(), units.y.tolist()))

    def mul(u, v):
        return reduce_pair(u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0], box)

    one = reduce_pair(1, 0, box)
    gens = _abelian_generators(keys, mul, one)
    table = {one: ()}
    for gk, n in gens:
        step = {}
        p = one
        for j in range(n):
            for k, v in table.items():
                step[mul(k, p)] = v + (j,)
            p = mul(p, gk)
        table = step
    assert len(table) == len(keys), "generators do not span the unit group"

    orders = tuple(n for _, n in gens)
    exponent = math.lcm(*orders) if gens else 1
    logs = [table[k] for k in keys]
    flat = []
    for v in logs:
        i = 0
        for a, n in zip(v, orders):
            i = i * n + a
        flat.append(i)
    exps = np.indices(orders, dtype=np.int64).reshape(len(gens), len(keys)).T
    dlog = np.array(logs, dtype=np.int64).reshape(len(keys), len(gens)) * np.array(
        [exponent // n for n in orders], dtype=np.int64
    )
    return tuple(GaussianInt(*gk) for gk, _ in gens), orders, exps, flat, dlog


def _assert_matches_scalar(c):
    grp = CharGroup(c, unit_table(c))
    elements, orders, exps, flat, dlog = _scalar_group(c)
    assert grp.gen_elements == elements, c
    assert grp.gen_orders == orders, c
    assert grp.exponent_vectors.tolist() == exps.tolist(), c
    assert grp._flat.tolist() == flat, c
    assert grp._flat.dtype == np.int64 and grp._dlog_matrix.dtype == np.int64
    assert np.array_equal(grp._dlog_matrix, dlog) and grp._dlog_matrix.shape == dlog.shape, c


def test_basis_matches_scalar_oracle_to_norm_300():
    # one generator per ideal: the group data depends only on the ideal
    for ideal in ideals_up_to_norm(300):
        _assert_matches_scalar(ideal.gen)


@with_edge_moduli
@given(engine_moduli)
def test_basis_matches_scalar_oracle(c):
    _assert_matches_scalar(c)


def _assert_inverses_negate_logs(grp):
    # the oracle: the inverse of the unit at log point k is the unit at -k
    unit_at = np.empty(grp.order, dtype=np.int64)
    unit_at[grp._flat] = np.arange(grp.order)  # the unit at each grid point
    negated = np.zeros(grp.order, dtype=np.int64)  # the grid point of -k
    for a, n in zip(grp.exponent_vectors.T, grp._grid):
        negated = negated * n + (-a) % n
    inverse = unit_at[negated[grp._flat]]
    units = grp.units
    assert np.array_equal(units.inv_x, units.x[inverse]), grp.element
    assert np.array_equal(units.inv_y, units.y[inverse]), grp.element
    assert all(arr.dtype == np.int64 and not arr.flags.writeable for arr in units)


def test_group_inverses_negate_discrete_logs_to_norm_2000():
    # the norm-map inverses of the unit tables against the group's
    # discrete-log grid, at every generator of every ideal, (1) and the
    # moduli with gcd(re c, im c) > 1 among them
    moduli = [
        c
        for ideal in ideals_up_to_norm(2000)
        for c in (ideal.gen, ideal.gen.times_i(), -ideal.gen, -ideal.gen.times_i())
    ]
    for c, units in zip(moduli, unit_tables(moduli)):
        _assert_inverses_negate_logs(CharGroup(c, units))


def test_group_guard_at_int64_limit():
    # N(46341) = 46341^2 >= 2^31: the int64 products would not stay exact
    with pytest.raises(DomainError, match="too large"):
        char_group(GaussianInt(46341, 0))


def test_group_construction_memory_is_linear():
    # phi(231) = 46,080: a phi x phi table would take gigabytes; every
    # array of the construction has phi entries
    c = GaussianInt(231, 0)
    tracemalloc.start()
    try:
        grp = CharGroup(c, unit_table(c))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grp.order == 46080 and grp.gen_orders == (240, 24, 8)
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# Conductor and classes
# ---------------------------------------------------------------------------


@given(moduli)
def test_conductor_divides_modulus(c):
    grp = char_group(c)
    for chi, cls in zip(grp.characters(), grp.classes()):
        cond = chi.conductor()
        assert divides(cond.gen, grp.modulus.gen)
        assert (cls == "primitive") == (cond == grp.modulus)


def test_trivial_character_conductor():
    grp = char_group(GaussianInt(4, 2))
    assert _trivial(grp).conductor() == UNIT_IDEAL
    assert grp.classes()[grp.index(_trivial(grp).exps)] == "trivial"


def test_char_classes_partition():
    grp = char_group(GaussianInt(5, 0).times_i() * GaussianInt(1, 1))  # norm 50
    classes = grp.classes()
    assert len(classes) == grp.order
    assert set(classes) <= {"trivial", "primitive", "semi-primitive", "mixed"}


def _oracle_class(chi):
    """The class of one character, from its conductor's factorization."""
    cond = chi.conductor()
    if cond == UNIT_IDEAL:
        return "trivial"
    if cond == chi.group.modulus:
        return "primitive"
    cond_exp = {p: e for p, e in factor(cond.gen).factors}
    if all(1 <= cond_exp.get(p, 0) < e for p, e in factor(chi.group.modulus.gen).factors):
        return "semi-primitive"
    return "mixed"


def test_classes_against_per_character_oracle():
    for ideal in ideals_up_to_norm(300):
        grp = char_group(ideal.gen)
        assert grp.classes() == tuple(_oracle_class(chi) for chi in grp.characters())


def _search_conductor(chi):
    """The first divisor d of the modulus, in ideal_divisors order, on whose
    subgroup {a = 1 mod d} every weight of chi vanishes."""
    grp = chi.group
    for d in ideal_divisors(grp.modulus):
        if all(
            chi(a) == 1
            for a in unit_residues(grp.element)
            if reduce_mod(a - ONE, d.gen).is_zero()
        ):
            return d
    raise AssertionError("the modulus itself always works")


def _weight_search_conductors(grp):
    """The conductors of every character by the weight search that the
    transform per divisor replaced: for each divisor d in ideal_divisors
    order, the characters still open whose weights vanish on {a = 1 mod d},
    a characters x subgroup matrix taken in row blocks of bounded size."""
    units = unit_table(grp.element)
    found = [None] * grp.order
    open_ = np.arange(grp.order)
    for d in ideal_divisors(grp.modulus):
        sub = divides_points(d.gen, units.x - 1, units.y)
        x, y = units.x[sub], units.y[sub]
        step = max(1, (1 << 20) // len(x))
        trivial = np.concatenate([
            ~grp.weights(grp.exponent_vectors[open_[i : i + step]], x, y).any(axis=1)
            for i in range(0, len(open_), step)
        ])
        for j in open_[trivial].tolist():
            found[j] = d
        open_ = open_[~trivial]
        if not len(open_):
            break
    assert not len(open_), "the modulus itself resolves every character"
    return tuple(found)


def test_conductors_against_weight_search_to_norm_600():
    for ideal in ideals_up_to_norm(600):
        grp = char_group(ideal.gen)
        assert grp.conductors() == _weight_search_conductors(grp), ideal


def test_conductors_memory_is_linear():
    # phi(100+3i) = 10,008: a characters x subgroup weight matrix at d = (1)
    # is phi x phi; one transform per divisor keeps every array at phi entries
    c = GaussianInt(100, 3)
    grp = CharGroup(c, unit_table(c))
    tracemalloc.start()
    try:
        conds = grp.conductors()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grp.order == 10008 and conds.count(UNIT_IDEAL) == 1
    assert peak < 4 * 2**20


@with_edge_moduli
@given(engine_moduli)
def test_conductors_against_search(c):
    grp = char_group(c)
    assert [chi.conductor() for chi in grp.characters()] == [
        _search_conductor(chi) for chi in grp.characters()
    ]


def test_conductor_factors_through():
    # the quadratic character mod (2+i) lifts to modulus (2+i)(1+i):
    # its conductor is (2+i) again
    lift_mod = GaussianInt(2, 1) * GaussianInt(1, 1)
    grp = char_group(lift_mod)
    conds = [chi.conductor().norm for chi in grp.characters()]
    assert sorted(conds) == [1, 5, 5, 5]  # phi = 4: trivial + three lifts


# ---------------------------------------------------------------------------
# The transform against an independent oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "c",
    [
        GaussianInt(3, 0),       # inert prime
        GaussianInt(2, 1),       # split prime
        GaussianInt(1, 1),       # ramified prime
        GaussianInt(2, 2),       # (1+i)^3
        GaussianInt(3, 2),       # split prime, norm 13
        GaussianInt(5, 0),       # product of conjugate primes
        GaussianInt(0, 4),       # (1+i)^4 times a unit
    ],
)
def test_f_hat_against_brute_force(c):
    grp = char_group(c)
    brute = _brute_f_table(c)
    assert np.max(np.abs(brute - grp.f_values())) < 1e-9
    for chi, row in zip(grp.characters(), grp.value_matrix()):
        direct = complex(np.conj(row) @ brute / grp.order)
        assert abs(f_sum_hat(chi) - direct) < 1e-9


@with_edge_moduli
@given(engine_moduli)
def test_f_hat_table_against_dot_product(c):
    for element in (c, c.times_i()):
        grp = char_group(element)
        values = _loop_f_table(element)
        table = grp.fhat_table()
        for chi, row, got in zip(grp.characters(), grp.value_matrix(), table):
            direct = complex(np.conj(row) @ values / grp.order)
            assert abs(got - direct) < 1e-10
            assert f_sum_hat(chi) == got
        assert np.max(np.abs(grp.inverse_transform(table) - values)) < 1e-10


@with_edge_moduli
@given(engine_moduli)
def test_dlog_reconstructs_each_unit(c):
    # prod g_i^{v_i} = a mod c for the exponent vector v of a, by scalar
    # Gaussian-integer arithmetic; non-units have no dlog.  The weight of a
    # under the character with exponent vector e_i is v_i * exponent / n_i.
    grp = char_group(c)
    one = reduce_mod(ONE, c)
    units = unit_residues(c)
    basis = np.eye(len(grp.gen_orders), dtype=np.int64)
    weights = grp.weights(basis, [a.re for a in units], [a.im for a in units])
    steps = np.array([grp.exponent // n for n in grp.gen_orders], dtype=np.int64)
    assert (weights % steps[:, None] == 0).all()
    dlogs = (weights // steps[:, None]).T.tolist()

    def pow_mod(g, v):
        out = one
        for bit in bin(v)[2:]:
            out = reduce_mod(out * out, c)
            if bit == "1":
                out = reduce_mod(out * g, c)
        return out

    for a, v in zip(units, dlogs):
        prod = one
        for g, vi in zip(grp.gen_elements, v):
            prod = reduce_mod(prod * pow_mod(g, vi), c)
        assert prod == reduce_mod(a, c)
    if not c.is_unit():
        zero_row = np.zeros((1, len(grp.gen_orders)), dtype=np.int64)
        assert grp.weights(zero_row, [c.re], [c.im]).tolist() == [[-1]]


@given(moduli, moduli)
def test_weights_at_unreduced_points_match_reductions(c, k):
    # the units of a multiple c*k lie outside the residue box of c; each
    # weighs as its reduction mod c, under the first and last characters
    grp = char_group(c)
    exps = grp.exponent_vectors[[0, -1]]
    points = unit_residues(c * k)
    reduced = [reduce_mod(a, c) for a in points]
    got = grp.weights(exps, [a.re for a in points], [a.im for a in points])
    want = grp.weights(exps, [a.re for a in reduced], [a.im for a in reduced])
    assert got.min() >= 0
    assert got.tolist() == want.tolist()


@given(moduli, st.integers(min_value=0, max_value=3))
def test_f_hat_generator_invariance(c, k):
    # any generator of the same ideal gives the same magnitudes
    grp = char_group(c)
    other = c
    for _ in range(k):
        other = other.times_i()
    assoc = char_group(other)
    # associates have the same generators, so equal exponents are one character
    assert assoc.gen_elements == grp.gen_elements
    for chi in list(grp.characters())[:3]:
        assert abs(f_sum_hat(assoc.character(chi.exps))) == pytest.approx(
            abs(f_sum_hat(chi)), abs=1e-9
        )


# ---------------------------------------------------------------------------
# Frozen truth table at the ramified prime
# ---------------------------------------------------------------------------

# |fhat| over all characters mod (1+i)^k, grouped by conductor exponent
# kstar.  Every entry was established against the brute-force transform
# (the parametrized test above re-derives k <= 4 live; k = 5..8 are too
# slow to brute-force on every run and are pinned here as regression
# values from the same oracle).  Entries: {kstar: set of |fhat|}.
#
# Nonzero mass exists only at kstar = 0 and kstar = 2 for even k (value
# 2^{k/2}), at (k, kstar) = (5, 3) (value 2^{5/2}), and at (8, 4) where
# the two non-quadratic characters give 2^{k/2} while the two quadratic
# ones vanish.
RAMIFIED_TRUTH = {
    2: {0: {2.0}, 2: {0.0}},
    3: {0: {0.0}, 2: {0.0}, 3: {0.0}},
    4: {0: {4.0}, 2: {4.0}, 3: {0.0}, 4: {0.0}},
    5: {0: {0.0}, 2: {0.0}, 3: {2.0**2.5}, 4: {0.0}, 5: {0.0}},
    6: {0: {8.0}, 2: {8.0}, 3: {0.0}, 4: {0.0}, 5: {0.0}, 6: {0.0}},
    7: {0: {0.0}, 2: {0.0}, 3: {0.0}, 4: {0.0}, 5: {0.0}, 6: {0.0}, 7: {0.0}},
    8: {
        0: {16.0},
        2: {16.0},
        3: {0.0},
        4: {16.0, 0.0},
        5: {0.0},
        6: {0.0},
        7: {0.0},
        8: {0.0},
    },
}


@pytest.mark.parametrize("k", sorted(RAMIFIED_TRUTH))
def test_ramified_truth_table(k):
    grp = char_group(ramified_power(k))
    seen = {}
    for chi in grp.characters():
        cond = chi.conductor()
        kstar = 0 if cond == UNIT_IDEAL else round(math.log2(cond.norm))
        seen.setdefault(kstar, set()).add(round(abs(f_sum_hat(chi)), 9))
    expected = {
        ks: {round(v, 9) for v in vals} for ks, vals in RAMIFIED_TRUTH[k].items()
    }
    assert seen == expected


def test_ramified_nonzero_counts():
    # characters with full-size |fhat| = 2^{k/2} and nontrivial conductor:
    # k = 6 has just the quadratic one of conductor exponent 2; k = 8 adds
    # the two non-quadratic characters of conductor exponent 4
    for k, expect, count, kstars in ((6, 8.0, 1, {2}), (8, 16.0, 3, {2, 4})):
        grp = char_group(ramified_power(k))
        big = [
            chi
            for chi in grp.characters()
            if abs(abs(f_sum_hat(chi)) - expect) < 1e-9
            and chi.conductor() != UNIT_IDEAL
        ]
        assert len(big) == count
        assert {round(math.log2(chi.conductor().norm)) for chi in big} == kstars


# ---------------------------------------------------------------------------
# Case formulas (the green range; the dyadic defect is exercised by the
# acceptance suite, which documents the failing characters)
# ---------------------------------------------------------------------------


def _oracle_prediction(chi):
    """(value, is_bound) of the case formulas for one character of a
    prime-power modulus, from its conductor and its exponents."""
    fac = factor(chi.group.modulus.gen).factors
    if not fac:
        return 1.0, False
    (p, k), = fac
    q = p.norm
    cond = chi.conductor()
    kstar = 0 if cond == UNIT_IDEAL else factor(cond.gen).factors[0][1]
    quadratic = all((2 * a) % n == 0 for a, n in zip(chi.exps, chi.group.gen_orders))
    if kstar == 0:
        if k == 1:
            return 1.0 / (q - 1), False
        return float(q) ** (k // 2) if k % 2 == 0 else 0.0, False
    if kstar == k:
        if q == 2:
            return 0.0, False
        if quadratic:
            return math.sqrt(q) / (q - 1), False
        return q / (q - 1), False
    if (k - kstar) % 2 == 1:
        return 0.0, False
    if quadratic:
        return float(q) ** (k / 2.0), True
    if q == 2 and k == kstar + 2:
        return 2.0 ** 2.5, False
    return 0.0, False


def test_local_prediction_against_per_character_oracle():
    for ideal in [UNIT_IDEAL, *prime_power_ideals_up_to_norm(400)]:
        grp = char_group(ideal.gen)
        values, is_bound = local_prediction(grp)
        want = [_oracle_prediction(chi) for chi in grp.characters()]
        assert values.tolist() == [v for v, _ in want]
        assert is_bound.tolist() == [b for _, b in want]
        assert grp.classes() == tuple(_oracle_class(chi) for chi in grp.characters())


def test_local_prediction_green_range():
    for ideal in prime_power_ideals_up_to_norm(60):
        grp = char_group(ideal.gen)
        values, is_bound = local_prediction(grp)
        got = np.abs(grp.fhat_table())
        assert (got[is_bound] <= values[is_bound] + 1e-9).all()
        assert np.allclose(got[~is_bound], values[~is_bound], rtol=0, atol=1e-9)


def test_local_prediction_unit_modulus():
    values, is_bound = local_prediction(char_group(GaussianInt(1, 0)))
    assert values.tolist() == [1.0] and is_bound.tolist() == [False]


def test_local_prediction_rejects_composite():
    with pytest.raises(DomainError):
        local_prediction(char_group(GaussianInt(3, 0) * GaussianInt(2, 1)))


def test_primitive_magnitudes_odd_prime():
    # mod an odd prime there are phi - 1 = q - 2 primitive characters:
    # the quadratic one gives sqrt(q)/(q-1), the other q - 3 give q/(q-1)
    q = 13
    grp = char_group(GaussianInt(3, 2))
    mags = sorted(
        round(abs(f_sum_hat(chi)), 9)
        for chi in grp.characters()
        if chi.conductor() == grp.modulus
    )
    assert len(mags) == q - 2
    assert mags.count(round(math.sqrt(q) / (q - 1), 9)) == 1
    assert mags.count(round(q / (q - 1), 9)) == q - 3


# ---------------------------------------------------------------------------
# Twisted multiplicativity
# ---------------------------------------------------------------------------


@given(moduli, moduli)
def test_twisted_multiplicativity(c1, c2):
    if not is_coprime(c1, c2):
        return
    if c1.norm * c2.norm > 2000:
        return
    g1, g2 = char_group(c1), char_group(c2)
    pairs = [
        (list(g1.characters())[0], list(g2.characters())[-1]),
        (list(g1.characters())[-1], list(g2.characters())[0]),
    ]
    for chi1, chi2 in pairs:
        assert abs(twisted_mult_residual(chi1, chi2)) < 1e-9


def _scalar_twist_residual(chi1, chi2):
    """twisted_mult_residual with the twists read by scalar character calls."""
    c1, c2 = chi1.group.element, chi2.group.element
    units = unit_table(c1 * c2)
    points = [GaussianInt(x, y) for x, y in zip(units.x.tolist(), units.y.tolist())]
    phase = np.array([chi1(z) * chi2(z) for z in points])
    lhs = np.conj(phase) @ f_sum_values(c1 * c2, units) / len(phase)
    rhs = chi1(c2).conjugate() * chi2(c1).conjugate() * f_sum_hat(chi1) * f_sum_hat(chi2)
    return complex(lhs - rhs)


def test_twisted_residual_matches_scalar_twists():
    # the unit modulus 1 and the ramified moduli 1+i and 4 included
    pairs = [((1, 1), (3, 0)), ((2, 1), (3, 2)), ((1, 0), (2, 3)), ((4, 0), (1, 2))]
    for c1, c2 in pairs:
        c1, c2 = GaussianInt(*c1), GaussianInt(*c2)
        for chi1 in char_group(c1).characters():
            for chi2 in list(char_group(c2).characters())[:4]:
                # the table's left side is an FFT, the oracle's a dot product
                got = twisted_mult_residual(chi1, chi2)
                assert abs(got - _scalar_twist_residual(chi1, chi2)) < 1e-12


def product_tables(c1, c2):
    """The unit table and F table of c1 c2, as twisted_mult_table takes them."""
    units = unit_table(c1 * c2)
    return units, f_sum_values(c1 * c2, units)


#: Coprime pairs of edge moduli small enough for the scalar oracle at
#: every character pair: phi(c1) phi(c2) <= 64.  They include the units 1
#: and i, the powers (1+i)^k up to k = 7, and 3(1+i), 3(1+2i), 3(2+i).
EDGE_PAIRS = [
    (c1, c2)
    for i, c1 in enumerate(EDGE_MODULI)
    for c2 in EDGE_MODULI[i + 1 :]
    if is_coprime(c1, c2) and euler_phi(GIdeal.of(c1)) * euler_phi(GIdeal.of(c2)) <= 64
]


@pytest.mark.parametrize("c1, c2", EDGE_PAIRS, ids=str)
def test_twisted_table_against_scalar_oracle(c1, c2):
    g1, g2 = char_group(c1), char_group(c2)
    table = twisted_mult_table(g1, g2, *product_tables(c1, c2))
    assert table.shape == (g1.order, g2.order)
    for j1, chi1 in enumerate(g1.characters()):
        for j2, chi2 in enumerate(g2.characters()):
            assert abs(table[j1, j2] - _scalar_twist_residual(chi1, chi2)) < 1e-12


@given(engine_moduli, engine_moduli, st.integers(0, 10**6), st.integers(0, 10**6))
def test_twisted_table_entry_against_scalar_oracle(c1, c2, j1, j2):
    assume(is_coprime(c1, c2) and c1.norm * c2.norm <= 1000)
    g1, g2 = char_group(c1), char_group(c2)
    j1, j2 = j1 % g1.order, j2 % g2.order
    chi1 = g1.character(g1.exponent_vectors[j1].tolist())
    chi2 = g2.character(g2.exponent_vectors[j2].tolist())
    got = twisted_mult_table(g1, g2, *product_tables(c1, c2))[j1, j2]
    assert abs(got - _scalar_twist_residual(chi1, chi2)) < 1e-12
    assert twisted_mult_residual(chi1, chi2) == got


def test_twisted_needs_coprime():
    g = char_group(GaussianInt(2, 0))
    with pytest.raises(DomainError):
        twisted_mult_residual(_trivial(g), _trivial(g))
