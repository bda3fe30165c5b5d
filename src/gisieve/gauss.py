"""Exact arithmetic in the ring of Gaussian integers Z[i].

The ring Z[i] is Euclidean with norm N(a+bi) = a^2 + b^2, has the four
units {1, i, -1, -i}, and every nonzero ideal is principal.  We identify
an ideal with its unique generator in the half-open quadrant

    re > 0, im >= 0,

("canonical associate").  Residue systems for a modulus c are taken in
the Hermite box of the lattice spanned by c and i*c:

    { x + yi : 0 <= x < N(c)/g, 0 <= y < g },   g = gcd(re c, im c),

which makes every reduction exact integer arithmetic and gives a fixed,
deterministic enumeration order used by all downstream sums.

Everything here is pure and exact; floats never appear.  The unit table
works on int64 arrays, whose products stay exact below MAX_UNIT_NORM; it
inverts the units through the norm map into Z/d, c cap Z = dZ, and is
not cached.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np


class DomainError(ValueError):
    """An argument lies outside an operation's domain (e.g. zero input)."""


class NotInvertibleError(DomainError):
    """Asked to invert a residue class that is not a unit."""


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

# either "a", "a+bi"/"a-bi" (sign on the imaginary part mandatory), or "bi"
_LITERAL = _re.compile(r"(?:(?P<re>[+-]?\d+)(?P<im>[+-]\d*i)?|(?P<im_only>[+-]?\d*i))$")


@dataclass(frozen=True, slots=True)
class GaussianInt:
    """An element a + bi of Z[i], immutable and hashable."""

    re: int
    im: int

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianInt") -> "GaussianInt":
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, int):
            return GaussianInt(self.re * other, self.im * other)
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self) -> "GaussianInt":
        return GaussianInt(-self.re, -self.im)

    def __pow__(self, k: int) -> "GaussianInt":
        if k < 0:
            raise DomainError("negative powers are not Gaussian integers")
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def times_i(self) -> "GaussianInt":
        return GaussianInt(-self.im, self.re)

    def conj(self) -> "GaussianInt":
        return GaussianInt(self.re, -self.im)

    # -- predicates and views -----------------------------------------------

    @property
    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm == 1

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im == 1:
            tail = "i"
        elif self.im == -1:
            tail = "-i"
        else:
            tail = f"{self.im}i"
        if self.re == 0:
            return tail
        return f"{self.re}+{tail}" if self.im > 0 else f"{self.re}{tail}"

    @classmethod
    def parse(cls, text: str) -> "GaussianInt":
        """Parse literals of the form ``a+bi`` / ``a-bi`` (no spaces).

        Pure forms are accepted too: ``3``, ``-2``, ``i``, ``-i``, ``4i``.
        """
        s = text.strip()
        m = _LITERAL.fullmatch(s) if s else None
        if not m:
            raise DomainError(f"not a Gaussian integer literal: {text!r}")
        re_part = int(m.group("re")) if m.group("re") else 0
        imag = m.group("im") or m.group("im_only")
        im_part = 0
        if imag is not None:
            body = imag[:-1]  # strip the trailing 'i'
            if body in ("", "+"):
                im_part = 1
            elif body == "-":
                im_part = -1
            else:
                im_part = int(body)
        return cls(re_part, im_part)


ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)


def canonical_associate(z: GaussianInt) -> GaussianInt:
    """The unique associate of z with re > 0, im >= 0."""
    if z.is_zero():
        raise DomainError("zero has no canonical associate")
    for _ in range(4):
        if z.re > 0 and z.im >= 0:
            return z
        z = z.times_i()
    raise AssertionError("unreachable: i-rotations cover all associates")


# ---------------------------------------------------------------------------
# Euclidean structure
# ---------------------------------------------------------------------------


def _round_div(x: int, n: int) -> int:
    # nearest integer to x/n for n > 0, ties rounded up; |x/n - result| <= 1/2
    return (2 * x + n) // (2 * n)


def divmod_nearest(a: GaussianInt, b: GaussianInt) -> tuple[GaussianInt, GaussianInt]:
    """Quotient/remainder with N(r) <= N(b)/2 (nearest-lattice rounding)."""
    if b.is_zero():
        raise DomainError("division by zero")
    n = b.norm
    w = a * b.conj()
    q = GaussianInt(_round_div(w.re, n), _round_div(w.im, n))
    return q, a - q * b


def exact_div(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    """a / b when b | a; raises DomainError otherwise."""
    q, r = divmod_nearest(a, b)
    if not r.is_zero():
        raise DomainError(f"{b} does not divide {a}")
    return q


def divides(b: GaussianInt, a: GaussianInt) -> bool:
    if b.is_zero():
        return a.is_zero()
    return divmod_nearest(a, b)[1].is_zero()


def divides_points(g: GaussianInt, x, y) -> np.ndarray:
    """The mask of g | x + iy, g != 0, over int64 arrays x and y (broadcast):
    (x + iy) conj(g) = 0 mod N(g), exact while x g and y g fit in int64."""
    n = g.norm
    return ((x * g.re + y * g.im) % n == 0) & ((y * g.re - x * g.im) % n == 0)


def gcd(a: GaussianInt, b: GaussianInt) -> GaussianInt:
    """Greatest common divisor, returned as a canonical associate."""
    if a.is_zero() and b.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, divmod_nearest(a, b)[1]
    return canonical_associate(a)


def is_coprime(a: GaussianInt, b: GaussianInt) -> bool:
    return gcd(a, b).is_unit()


def _ext_gcd_int(x: int, y: int) -> tuple[int, int, int]:
    # returns (g, u, v) with u*x + v*y = g = gcd(x, y) >= 0
    old_r, r = x, y
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


# ---------------------------------------------------------------------------
# Residue systems mod c  (Hermite box of the lattice {c, ic})
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def residue_box(c: GaussianInt) -> tuple[int, int, int]:
    """(d, e, g): the lattice c*Z[i] has Hermite basis (d, 0), (e, g).

    g = gcd(re c, im c), d = N(c)/g, 0 <= e < d.  The half-open box
    [0, d) x [0, g) is then an exact fundamental domain for Z[i]/(c).
    """
    if c.is_zero():
        raise DomainError("zero modulus")
    a, b = c.re, c.im
    g, u, v = _ext_gcd_int(b, a)  # u*b + v*a = g; lattice y-components are g*Z
    d = c.norm // g
    e = (u * a - v * b) % d
    return d, e, g


def reduce_mod(z: GaussianInt, c: GaussianInt) -> GaussianInt:
    """The representative of z + (c) inside the Hermite box of c."""
    return GaussianInt(*reduce_pair(z.re, z.im, residue_box(c)))


def reduce_pair(x, y, box: tuple[int, int, int]):
    """Tuple-level reduce_mod for hot loops (same box convention).

    x and y may be ints or int64 arrays; arrays are not modified.
    """
    d, e, g = box
    k = y // g
    x = x - k * e
    y = y - k * g
    return x - (x // d) * d, y


#: Unit-table arithmetic multiplies coordinates mod d = N(c)/g in int64;
#: every product stays below d^2 < 2^62, which is exact for N(c) below this.
MAX_UNIT_NORM = 2**31


class UnitTable(NamedTuple):
    """The unit residues of c and their inverses as read-only int64 arrays,
    in the (y, x) raster order of the Hermite box, and the map from box
    index y*d + x to the position of that residue in this order (-1 off
    the units).  It is built per modulus, by unit_table or by a CharGroup
    (which inverts on its discrete-log grid), and lives as long as its
    owner: a CharGroup, or one loop over the moduli."""

    x: np.ndarray
    y: np.ndarray
    inv_x: np.ndarray
    inv_y: np.ndarray
    position: np.ndarray


def unit_points(c: GaussianInt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x, y and position arrays of unit_table(c), without the inverses.

    A residue a is a unit when no Gaussian prime p | c divides it
    (divides_points).  The arrays are read-only int64; a CharGroup takes
    its inverses from its discrete-log grid instead.
    """
    if c.is_zero():
        raise DomainError("zero modulus")
    if c.norm >= MAX_UNIT_NORM:
        raise DomainError(
            f"modulus norm {c.norm} is too large for exact unit arithmetic "
            f"(needs N(c) < {MAX_UNIT_NORM})"
        )
    d, _, g = residue_box(c)
    y, x = np.divmod(np.arange(d * g, dtype=np.int64), d)
    unit = np.ones(d * g, dtype=bool)
    for p, _ in factor(c).factors:
        unit &= ~divides_points(p.gen, x, y)
    position = np.cumsum(unit) - 1
    position[~unit] = -1
    points = x[unit], y[unit], position
    for arr in points:
        arr.setflags(write=False)
    return points


def unit_table(c: GaussianInt) -> UnitTable:
    """Units mod c (unit_points) and their inverses, by exact int64 array
    arithmetic.

    The inverse comes from the norm map: with c cap Z = dZ, a^{-1} =
    conj(a) N(a)^{-1}, N(a) inverted mod d as N(a)^(phi(d) - 1).  An
    integer is a unit mod c iff it is prime to d, and N(a) = a conj(a)
    fails that only where a split prime p | c has conj(p) | a; such an a
    is replaced by a + t c, t = 1, 2, ..., the same class, until its norm
    is prime to d.  Coordinates are taken mod d, so every product stays
    below d^2; the inverse is then reduced into the Hermite box, where it
    is unique.  For a unit modulus the single class [0] is its own
    inverse.  Nothing is cached.
    """
    x, y, position = unit_points(c)
    box = residue_box(c)
    d, _, g = box
    fac_d = factor_int(d)
    phi_d = math.prod(p ** (e - 1) * (p - 1) for p, e in fac_d)

    def shares_a_prime_with_d(n):
        bad = np.zeros(n.shape, dtype=bool)
        for p, _ in fac_d:
            bad |= n % p == 0
        return bad

    # 0 <= x < d and 0 <= y < g <= d, so x^2 + y^2 < 2 d^2 < 2^63.  At
    # g = 1 every residue is an integer x, and x^2 is prime to d with x
    ax, ay, n = x, y, (x * x + y * y) % d
    while g > 1 and (bad := shares_a_prime_with_d(n)).any():
        # a + t c is the same class, and at each split p, conj(p) divides
        # it for one class of t mod N(p) only: a few rounds of t -> t + 1
        ax = np.where(bad, (ax + c.re) % d, ax)
        ay = np.where(bad, (ay + c.im) % d, ay)
        n = (ax * ax + ay * ay) % d

    inv, k = np.ones_like(n) % d, phi_d - 1
    while k:
        if k & 1:
            np.remainder(np.multiply(inv, n, out=inv), d, out=inv)
        k >>= 1
        if k:
            np.remainder(np.multiply(n, n, out=n), d, out=n)
    inv_x, inv_y = reduce_pair(ax * inv % d, (d - ay) * inv % d, box)
    inv_x.setflags(write=False)
    inv_y.setflags(write=False)
    return UnitTable(x, y, inv_x, inv_y, position)


def unit_positions(c: GaussianInt, units: UnitTable, x, y) -> np.ndarray:
    """Positions of the points x + iy in the unit order of units, the
    unit_table of c, -1 where a point is not a unit mod c.  x and y are
    int sequences or int64 arrays of any int64 values."""
    box = residue_box(c)
    # N(c) = c conj(c) lies in (c): reducing by it first keeps the box
    # reduction's products below N(c)^2, inside int64
    n = c.norm
    x = np.asarray(x, dtype=np.int64) % n
    y = np.asarray(y, dtype=np.int64) % n
    rx, ry = reduce_pair(x, y, box)
    return units.position[ry * box[0] + rx]


def unit_residues(c: GaussianInt) -> tuple[GaussianInt, ...]:
    """Residues coprime to c, in the same deterministic order.

    For a unit modulus the quotient is the zero ring and its single class
    [0] counts as invertible, so the result is (0,) of length 1 = phi((1)).
    """
    units = unit_table(c)
    return tuple(GaussianInt(x, y) for x, y in zip(units.x.tolist(), units.y.tolist()))


def mod_inverse(a: GaussianInt, c: GaussianInt) -> GaussianInt:
    """The inverse of a mod c, reduced to the Hermite box.

    Raises NotInvertibleError when gcd(a, c) is not a unit.
    """
    if c.is_zero():
        raise DomainError("zero modulus")
    r0, s0 = a, ONE
    r1, s1 = c, ZERO
    while not r1.is_zero():
        q, r = divmod_nearest(r0, r1)
        r0, s0, r1, s1 = r1, s1, r, s0 - q * s1
    if not r0.is_unit():
        raise NotInvertibleError(f"{a} is not invertible mod {c}")
    return reduce_mod(s0 * r0.conj(), c)


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GIdeal:
    """A nonzero ideal of Z[i], stored by its canonical generator."""

    gen: GaussianInt

    @classmethod
    def of(cls, z: GaussianInt) -> "GIdeal":
        return cls(canonical_associate(z))

    @property
    def norm(self) -> int:
        return self.gen.norm

    def sort_key(self) -> tuple[int, int, int]:
        return (self.gen.norm, self.gen.re, self.gen.im)

    def __lt__(self, other: "GIdeal") -> bool:
        return self.sort_key() < other.sort_key()

    def __mul__(self, other: "GIdeal") -> "GIdeal":
        return GIdeal.of(self.gen * other.gen)

    def is_unit_ideal(self) -> bool:
        return self.gen == ONE

    def __str__(self) -> str:
        return f"({self.gen})"


UNIT_IDEAL = GIdeal(ONE)


class Factorization(NamedTuple):
    """unit * prod(p^e) with primes as canonical ideals in (norm, re, im) order."""

    unit: GaussianInt
    factors: tuple[tuple[GIdeal, int], ...]


@lru_cache(maxsize=4096)
def factor_int(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive rational integer by trial division."""
    if n <= 0:
        raise DomainError("can only factor positive integers")
    out: list[tuple[int, int]] = []
    for p in range(2, math.isqrt(n) + 1):
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _sqrt_minus_one(p: int) -> int:
    # square root of -1 mod a prime p = 1 (mod 4), via a quadratic nonresidue
    for r in range(2, p):
        if pow(r, (p - 1) // 2, p) == p - 1:
            return pow(r, (p - 1) // 4, p)
    raise AssertionError(f"no nonresidue found mod {p}")


@lru_cache(maxsize=4096)
def _gaussian_primes_above(p: int) -> tuple[GaussianInt, ...]:
    """Canonical Gaussian primes dividing the rational prime p."""
    if p == 2:
        return (GaussianInt(1, 1),)
    if p % 4 == 3:
        return (GaussianInt(p, 0),)
    x = _sqrt_minus_one(p)
    pi = canonical_associate(gcd(GaussianInt(p, 0), GaussianInt(x, 1)))
    return tuple(sorted({pi, canonical_associate(pi.conj())}, key=lambda z: (z.re, z.im)))


@lru_cache(maxsize=4096)
def factor(z: GaussianInt) -> Factorization:
    """Factor z into a unit times canonical Gaussian prime powers."""
    if z.is_zero():
        raise DomainError("cannot factor zero")
    rest = z
    found: list[tuple[GIdeal, int]] = []
    for p, _ in factor_int(z.norm):
        for q in _gaussian_primes_above(p):
            e = 0
            while divides(q, rest):
                rest = exact_div(rest, q)
                e += 1
            if e:
                found.append((GIdeal(q), e))
    assert rest.is_unit(), f"factorization of {z} left non-unit {rest}"
    found.sort(key=lambda t: t[0].sort_key())
    return Factorization(rest, tuple(found))


def ideal_divisors(n: GIdeal) -> list[GIdeal]:
    """All ideal divisors of n, sorted by (norm, re, im) of the generator."""
    out = [UNIT_IDEAL]
    for p, e in factor(n.gen).factors:
        out = [d * GIdeal.of(p.gen**k) for d in out for k in range(e + 1)]
    out.sort()
    return out


class MultiplicativeValues(NamedTuple):
    tau: int
    phi: int
    mu: int


def multiplicative_functions(n: GIdeal) -> MultiplicativeValues:
    """(tau, phi, mu) of an ideal: divisor count, totient, Moebius."""
    tau = phi = 1
    mu = 1
    for p, e in factor(n.gen).factors:
        q = p.norm
        tau *= e + 1
        phi *= q ** (e - 1) * (q - 1)
        mu = 0 if e > 1 else -mu
    return MultiplicativeValues(tau, phi, mu)


def divisor_count(n: GIdeal) -> int:
    return multiplicative_functions(n).tau


def euler_phi(n: GIdeal) -> int:
    return multiplicative_functions(n).phi


def moebius(n: GIdeal) -> int:
    return multiplicative_functions(n).mu


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def ideals_up_to_norm(limit: float) -> list[GIdeal]:
    """All nonzero ideals of norm <= limit, sorted by (norm, re, im)."""
    if not limit < math.inf:  # also rejects NaN
        raise DomainError(f"ideals_up_to_norm needs a finite limit, got {limit}")
    if limit < 1:
        return []
    top = math.isqrt(int(limit))
    out = []
    for a in range(1, top + 1):
        bmax = math.isqrt(int(limit) - a * a)
        out.extend(GIdeal(GaussianInt(a, b)) for b in range(bmax + 1))
    out.sort(key=GIdeal.sort_key)
    return out


def prime_power_ideals_up_to_norm(limit: float) -> list[GIdeal]:
    """Ideals p^k (k >= 1) of norm <= limit, sorted."""
    out = []
    for ideal in ideals_up_to_norm(limit):
        fac = factor(ideal.gen).factors
        if len(fac) == 1 and not ideal.is_unit_ideal():
            out.append(ideal)
    return out
