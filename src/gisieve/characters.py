"""Dirichlet characters on (Z[i]/c)^x and the character transform of F.

The unit group mod c is a finite abelian group.  We decompose it into a
direct product of cyclic factors by the classical basis construction:
take a maximal-order generator, recurse on the quotient, and lift the
quotient generators back.  This works uniformly for split, inert and the
ramified prime (1+i), where the local unit groups have different shapes,
without any case analysis.  It runs on int64 arrays over the positions
of the unit table of c, which the caller builds (unit_table, or a run of
unit_tables): the maps x -> x^q for the primes q | phi(c) are index
arrays, so the order of every coset at once is a few compositions and
membership tests; the coset labels of each quotient (the smallest (x, y)
of each coset) come by pointer doubling along x -> x g; and the
discrete-log grid is the product of the generators' power arrays.
Every array has phi(c) entries.  A group keeps its unit table, the roots
of unity of its exponent and, once asked for, its table of F and the
transform of it; nothing else holds them, so they go with the group.

A character is an exponent vector (a_1, ..., a_r) against the stored
generators: chi(g_i) = exp(2*pi*i*a_i/n_i).  Values are exact roots of
unity looked up in the group's table of the roots of unity of its
exponent, so orthogonality, Fourier inversion and Parseval hold to
~1e-12 at desk scale.

The transform of interest is the finite Fourier coefficient

    fhat(chi) = (1/phi(c)) * sum over units a mod c of conj(chi(a)) F(a; c),

whose modulus, for prime-power moduli, is pinned by an exact local case
analysis (local_prediction below).  fhat depends mildly on which
generator of the modulus ideal is used inside F; the magnitude does not.
Each group uses its own element c, and associates share their group, so
char_group(i*c).fhat_table() is the transform with F(.; i*c).

Over all characters at once, fhat is one fftn of F placed on the
discrete-log grid Z/n_1 x ... x Z/n_r (CharGroup.transform).  One such
transform per divisor d, of the indicator of {a = 1 mod d}, gives the
conductors as indices into ideal_divisors(c), and CharGroup.classes and
local_prediction read one class and one case formula per divisor by
them.  Twisted multiplicativity

    fhat(chi1 chi2 mod c1 c2) = conj(chi1(c2) chi2(c1)) fhat(chi1) fhat(chi2)

is one table per pair of coprime moduli (twisted_mult_table): by CRT
the units mod c1 c2 fill the product of the two discrete-log grids, so
one fftn of F(.; c1 c2) there gives every left side.  The unit table and
F table of c1 c2 come from the caller, which can share them among the
pairs with that product.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .expsums import _exp_table, f_sum_values
from .gauss import (
    DomainError,
    GIdeal,
    GaussianInt,
    UNIT_IDEAL,
    UnitTable,
    divides_points,
    factor,
    factor_int,
    ideal_divisors,
    is_coprime,
    residue_box,
    unit_positions,
    unit_table,
)

__all__ = [
    "CharGroup",
    "DirichletChar",
    "char_group",
    "f_sum_hat",
    "local_prediction",
    "twisted_mult_residual",
    "twisted_mult_table",
]


# ---------------------------------------------------------------------------
# Abelian group decomposition
# ---------------------------------------------------------------------------


def _unit_mul(x, y, position, box):
    """The product of unit positions (ints or int arrays, broadcast), by
    exact int64 arithmetic on the box coordinates of a unit table and the
    Hermite box reduction of reduce_pair."""
    d, e, g = box

    def mul(p, q):
        ax, ay, bx, by = x[p], y[p], x[q], y[q]
        im = ax * by + ay * bx
        k = im // g
        return position[(im - k * g) * d + (ax * bx - ay * by - k * e) % d]

    return mul


def _basis(x, y, mul, one: int) -> list[tuple[int, int]]:
    """Direct-product generators [(position, order)] of the unit group.

    The first generator has maximal order, the group exponent; each
    further one is a maximal-order element of the quotient by the
    generators so far, corrected by the standard lemma so that its order
    in the full group equals its order in the quotient.  Ties go to the
    smallest (x, y), and the quotient by H is represented by the smallest
    (x, y) of each coset xH.  The internal direct product of the results
    is the whole group.

    Units are positions in the unit order.  Every power is composed from
    the maps x -> x^q, q prime, each one index array; the coset labels of
    <H, g> come from those of H by pointer doubling along x -> x g.
    """
    phi = len(x)
    if phi == 1:
        return []
    every = np.arange(phi)
    square = mul(every, every)
    sigma = {}
    for q, _ in factor_int(phi):
        sq = every
        for bit in bin(q)[3:]:  # square-and-multiply from the leading bit
            sq = square[sq]
            if bit == "1":
                sq = mul(sq, every)
        sigma[q] = sq

    def power(y, m):  # y^m for m | phi, composed from the prime power maps
        for q, v in factor_int(m):
            for _ in range(v):
                y = sigma[q][y]
        return y

    by_rank = np.lexsort((y, x))  # smallest (x, y) first
    # label[x] = rank of the smallest (x, y) in the coset xH
    label = np.empty(phi, dtype=np.int64)
    label[by_rank] = every
    # per quotient G/H, H growing: its generator g, the order of g mod H,
    # the map x -> x g (None at the last quotient), and the labels of H
    levels = []
    n = phi
    while True:
        reps = by_rank[label[by_rank] == every]
        in_h = label == label[one]
        # the order mod H of each coset: its q-part is the number of
        # y^(q^t), t < v_q(n), outside H, where y = x^(n / q^v_q(n))
        orders = np.ones(len(reps), dtype=np.int64)
        for q, v in factor_int(n):
            y = power(reps, n // q**v)
            for _ in range(v):
                orders[~in_h[y]] *= q
                y = sigma[q][y]
        best = int(np.argmax(orders))  # the first maximum has the smallest (x, y)
        g, o = int(reps[best]), int(orders[best])
        if o == n:
            levels.append((g, o, None, label))
            break
        step = mul(every, g)
        levels.append((g, o, step, label))
        # min over x g^j, j < 2^s: the labels repeat with period o in j
        for _ in range((o - 1).bit_length()):
            label = np.minimum(label, label[step])
            step = step[step]
        n //= o

    # unwind the quotient levels, correcting each deeper generator h of
    # order m: h^m = g^j mod H, and h g^(-j/m) has order m mod H
    gens: list[tuple[int, int]] = []
    for g, o, step, label in reversed(levels):
        lifted = [(g, o)]
        if gens:
            powers = _orbit(step, np.array([one]), o)[:, 0]
            cyc = label[powers]
        for h, m in gens:
            j = int(np.argmax(cyc == label[power(h, m)]))
            assert j % m == 0, "maximal-order peeling violated the lifting lemma"
            lifted.append((int(by_rank[label[mul(h, powers[(o - j // m) % o])]]), m))
        gens = lifted
    return gens


def _orbit(step: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
    """Row j is the permutation step applied j times to start, j < n; the
    rows are doubled and step is squared, in ceil(log2 n) rounds."""
    out = start[None, :]
    while len(out) < n:
        out = np.concatenate([out, step[out]])
        step = step[step]
    return out[:n]


# ---------------------------------------------------------------------------
# Character groups
# ---------------------------------------------------------------------------


class CharGroup:
    """The character group of (Z[i]/(c))^x for a fixed generator element c.

    The group data (residues, generators, discrete logs) depends only on
    the ideal (c); the element is kept because the transform F(.; c) does
    depend on it.  units is the unit_table of element, from the caller.
    """

    def __init__(self, element: GaussianInt, units: UnitTable):
        self.element = element
        self.modulus = GIdeal.of(element)
        #: the unit table of element, kept with the group and read by its methods
        self.units = units
        x, y = units.x, units.y
        mul = _unit_mul(x, y, units.position, residue_box(element))
        one = 0  # the unit 1 comes first in the (y, x) raster of the box
        gens = _basis(x, y, mul, one)

        self.gen_elements = tuple(GaussianInt(int(x[g]), int(y[g])) for g, _ in gens)
        self.gen_orders = tuple(n for _, n in gens)
        self.exponent = math.lcm(*self.gen_orders) if gens else 1
        #: exp(2 pi i k / exponent), the values of every character
        self.roots = _exp_table(self.exponent)
        # the unit at each point of the discrete-log grid, last generator
        # varying fastest; _flat, its inverse, places each unit on the
        # C-order flattened grid
        every = np.arange(len(x))
        grid = np.array([one])
        for g, n in gens:
            grid = _orbit(mul(every, g), grid, n).T.ravel()
        assert (np.bincount(grid, minlength=len(x)) == 1).all(), (
            "generators do not span the unit group"
        )
        self._grid = self.gen_orders or (1,)
        self._flat = np.empty(len(grid), dtype=np.int64)
        self._flat[grid] = np.arange(len(grid))
        #: exponent vectors of all characters, one row each in characters() order
        self.exponent_vectors = np.indices(self.gen_orders, dtype=np.int64).reshape(
            len(gens), len(grid)
        ).T
        self.exponent_vectors.setflags(write=False)
        # dlog matrix in residue enumeration order, pre-scaled to /exponent:
        # row t of exponent_vectors is the grid point t
        scale = [self.exponent // n for n in self.gen_orders]
        self._dlog_matrix = self.exponent_vectors[self._flat] * np.array(scale, dtype=np.int64)
        self._f: np.ndarray | None = None
        self._fhat: np.ndarray | None = None
        self._conductors: tuple[list[GIdeal], np.ndarray] | None = None

    # -- basic views ---------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._flat)

    def weights(self, exps, x, y) -> np.ndarray:
        """w[j, k] with chi_j(x_k + i y_k) = exp(2*pi*i*w[j, k]/exponent), where
        chi_j has the exponent vector exps[j]; -1 where a point is not a unit.

        exps is 2-D, one row per character; the points x, y are int
        sequences or int64 arrays, reduced mod c here.  Every character
        value in this module is read from these weights.
        """
        pos = unit_positions(self.element, self.units, x, y)
        w = (np.asarray(exps, dtype=np.int64) @ self._dlog_matrix[pos].T) % self.exponent
        w[:, pos < 0] = -1
        return w

    # -- characters ------------------------------------------------------

    def character(self, exps: Sequence[int]) -> "DirichletChar":
        if len(exps) != len(self.gen_orders):
            raise DomainError("exponent vector has wrong length")
        exps = tuple(a % n for a, n in zip(exps, self.gen_orders))
        return DirichletChar(self, exps)

    def characters(self) -> Iterator["DirichletChar"]:
        """All phi(c) characters, exponent vectors in lexicographic order."""
        for exps in self.exponent_vectors.tolist():
            yield DirichletChar(self, tuple(exps))

    def index(self, exps: Sequence[int]) -> int:
        """Position of the character with these (reduced) exponents in characters()."""
        i = 0
        for a, n in zip(exps, self.gen_orders):
            i = i * n + a
        return i

    # -- transforms over all characters ---------------------------------------

    def transform(self, values: np.ndarray) -> np.ndarray:
        """(1/phi) sum_a conj(chi(a)) values[a] for every chi, in characters() order.

        values are given on the residues; placed on the log grid, the sum
        over a is one fftn (the C-order flatten is the lexicographic order).
        """
        grid = np.zeros(self.order, dtype=np.complex128)
        grid[self._flat] = values
        return np.fft.fftn(grid.reshape(self._grid)).ravel() / self.order

    def inverse_transform(self, fhat: np.ndarray) -> np.ndarray:
        """sum_chi fhat[chi] chi(a) for every residue a: the inverse of transform."""
        grid = np.fft.ifftn(np.reshape(fhat, self._grid)).ravel() * self.order
        return grid[self._flat]

    def f_values(self) -> np.ndarray:
        """F(a; element) at every unit a, in residue order; computed once
        and read-only."""
        if self._f is None:
            self._f = f_sum_values(self.element, self.units)
        return self._f

    def fhat_table(self) -> np.ndarray:
        """fhat(chi) for every chi in characters() order, with F(.; element);
        computed once and read-only."""
        if self._fhat is None:
            self._fhat = self.transform(self.f_values())
            self._fhat.setflags(write=False)
        return self._fhat

    def _conductor_table(self) -> tuple[list[GIdeal], np.ndarray]:
        """ideal_divisors(modulus), and the index there of the conductor of
        every character, in characters() order.

        By orthogonality, phi * transform(indicator of {a = 1 mod d}) is the
        size of that subgroup at the characters trivial on it and 0 at the
        others.  The conductor is the first such d; the last divisor, the
        modulus, leaves only {1}, on which every character is trivial.
        """
        if self._conductors is None:
            divisors = ideal_divisors(self.modulus)
            trivial = []
            for d in divisors:
                sub = divides_points(d.gen, self.units.x - 1, self.units.y)
                trivial.append(np.rint(self.transform(sub).real * self.order) == sub.sum())
            index = np.argmax(trivial, axis=0)  # the first divisor that is trivial
            index.setflags(write=False)
            self._conductors = divisors, index
        return self._conductors

    def conductors(self) -> tuple[GIdeal, ...]:
        """The conductor of every character, in characters() order."""
        divisors, index = self._conductor_table()
        return tuple(divisors[i] for i in index.tolist())

    def classes(self) -> tuple[str, ...]:
        """The class of every character, in characters() order, one of
        'trivial', 'primitive', 'semi-primitive', 'mixed':

        trivial        <=> conductor = (1)   (takes precedence at modulus (1))
        primitive      <=> conductor = modulus
        semi-primitive <=> 1 <= v_p(conductor) < v_p(modulus) at every prime p
        """
        fac = factor(self.modulus.gen).factors

        def classify(cond: GIdeal) -> str:
            if cond == UNIT_IDEAL:
                return "trivial"
            if cond == self.modulus:
                return "primitive"
            cond_exp = dict(factor(cond.gen).factors)
            if all(1 <= cond_exp.get(p, 0) < e for p, e in fac):
                return "semi-primitive"
            return "mixed"

        divisors, index = self._conductor_table()
        labels = [classify(d) for d in divisors]
        return tuple(labels[i] for i in index.tolist())

    def value_matrix(self) -> np.ndarray:
        """Matrix X[j, i] = chi_j(alpha_i) over all characters/residues."""
        return self.roots[
            self.weights(self.exponent_vectors, self.units.x, self.units.y)
        ]


class DirichletChar:
    """A character of (Z[i]/(c))^x given by exponents against the group basis."""

    __slots__ = ("group", "exps")

    def __init__(self, group: CharGroup, exps: tuple[int, ...]):
        self.group = group
        self.exps = exps

    def __call__(self, z: GaussianInt) -> complex:
        """chi(z), and 0 where z is not a unit."""
        w = int(self.group.weights([self.exps], [z.re], [z.im])[0, 0])
        return 0j if w < 0 else complex(self.group.roots[w])

    def conductor(self) -> GIdeal:
        """Smallest ideal d | (c) such that chi factors through (Z[i]/d)^x."""
        divisors, index = self.group._conductor_table()
        return divisors[index[self.group.index(self.exps)]]


@lru_cache(maxsize=1024)
def char_group(element: GaussianInt) -> CharGroup:
    """The group of element, shared across calls.  A group owns its unit
    table and F table, so the bound on the count is what bounds the
    memory; the identity suites build and drop their own groups instead."""
    return CharGroup(element, unit_table(element))


# ---------------------------------------------------------------------------
# The transform fhat and its local predictions
# ---------------------------------------------------------------------------


def f_sum_hat(chi: DirichletChar) -> complex:
    """fhat(chi) = (1/phi) sum_a conj(chi(a)) F(a; c), c the group's element."""
    grp = chi.group
    return complex(grp.fhat_table()[grp.index(chi.exps)])


def local_prediction(grp: CharGroup) -> tuple[np.ndarray, np.ndarray]:
    """Exact |fhat| (or an upper bound) for every character of a
    prime-power modulus p^k, in characters() order: the arrays (values,
    is_bound), where is_bound marks the 'upper bound only' cases.

    Cases, with q = N(p), kstar = v_p(conductor):
      trivial chi:      1/(q-1) if k = 1;  q^{k/2} if k even;  0 otherwise
      primitive:        0 if q = 2; else sqrt(q)/(q-1) if chi^2 trivial,
                        q/(q-1) otherwise
      semi-primitive:   0 if kstar != k (mod 2); else
                        bound q^{k/2} if chi^2 trivial;
                        2^{5/2} iff q = 2 and k = kstar + 2, else 0
    The unit modulus (1) carries only the trivial character, with fhat = 1.
    """
    fac = factor(grp.modulus.gen).factors
    if not fac:
        return np.array([1.0]), np.array([False])
    if len(fac) > 1:
        raise DomainError("local prediction needs a prime-power modulus")
    p, k = fac[0]
    q = p.norm

    def case(kstar: int, quadratic: bool) -> tuple[float, bool]:
        if kstar == 0:  # trivial character mod p^k
            if k == 1:
                return 1.0 / (q - 1), False
            return (float(q) ** (k // 2) if k % 2 == 0 else 0.0), False
        if kstar == k:  # primitive
            if q == 2:
                return 0.0, False
            return (math.sqrt(q) / (q - 1) if quadratic else q / (q - 1)), False
        # semi-primitive: 1 <= kstar < k
        if (k - kstar) % 2 == 1:
            return 0.0, False
        if quadratic:
            return float(q) ** (k / 2.0), True
        return (2.0 ** 2.5 if q == 2 and k == kstar + 2 else 0.0), False

    cases = np.array([[case(kstar, quad) for quad in (False, True)] for kstar in range(k + 1)])
    # the divisors of p^k in ideal_divisors order are p^0, ..., p^k, so the
    # conductor index is kstar; chi^2 is trivial iff 2 a_i = 0 mod n_i on every axis
    kstar = grp._conductor_table()[1]
    quadratic = ((2 * grp.exponent_vectors) % grp.gen_orders == 0).all(axis=1)
    values, is_bound = cases[kstar, quadratic.astype(np.intp)].T
    return values, is_bound.astype(bool)


def twisted_mult_table(
    grp1: CharGroup, grp2: CharGroup, units: UnitTable, f_values: np.ndarray
) -> np.ndarray:
    """r[j1, j2] = fhat(chi1 chi2 mod c1 c2) - conj(chi1(c2) chi2(c1)) fhat(chi1) fhat(chi2)
    for chi1, chi2 the characters j1 of grp1 and j2 of grp2, in characters() order.

    units is the unit_table of the product c1 c2 and f_values its
    f_sum_values; the caller builds them once for every pair of groups
    with that product.  The product modulus element is literally c1*c2
    with the same c1, c2 used in the unit twists, which is what makes
    this an exact identity.  By CRT, each unit mod c1 c2 sits at one
    point of the product of the two discrete-log grids, so one fftn gives
    every left side.
    """
    c1, c2 = grp1.element, grp2.element
    if not is_coprime(c1, c2):
        raise DomainError("moduli must be coprime")
    grid = np.zeros((grp1.order, grp2.order), dtype=np.complex128)
    grid[
        grp1._flat[unit_positions(c1, grp1.units, units.x, units.y)],
        grp2._flat[unit_positions(c2, grp2.units, units.x, units.y)],
    ] = f_values
    lhs = np.fft.fftn(grid.reshape(grp1._grid + grp2._grid)).reshape(grid.shape) / grid.size
    # the other modulus is a unit, since the moduli are coprime
    twist1 = grp1.roots[grp1.weights(grp1.exponent_vectors, [c2.re], [c2.im])[:, 0]]
    twist2 = grp2.roots[grp2.weights(grp2.exponent_vectors, [c1.re], [c1.im])[:, 0]]
    return lhs - np.outer(np.conj(twist1) * grp1.fhat_table(), np.conj(twist2) * grp2.fhat_table())


def twisted_mult_residual(chi1: DirichletChar, chi2: DirichletChar) -> complex:
    """The entry of twisted_mult_table at the pair (chi1, chi2)."""
    grp1, grp2 = chi1.group, chi2.group
    c = grp1.element * grp2.element
    units = unit_table(c)
    table = twisted_mult_table(grp1, grp2, units, f_sum_values(c, units))
    return complex(table[grp1.index(chi1.exps), grp2.index(chi2.exps)])
