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

Everything here is pure and exact; floats never appear.  The unit tables
work on int64 arrays, whose products stay exact below MAX_UNIT_NORM, and
are built for a run of consecutive moduli at once (unit_runs) from the
rational structure of Z[i]/(c): the units from coprimality tables over
the rational primes of N(c), and their inverses through the norm map into
Z/d, c cap Z = dZ, from one integer inverse table per d.  unit_table is
the run of one modulus.  Nothing of them is cached.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple

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

#: unit_tables builds the tables of consecutive moduli together, as long
#: as their count times their largest norm stays at most this many
#: residues; a modulus of larger norm is a run of its own.  It bounds the
#: arrays of one run, and the padded rows of its Kloosterman sums.
RUN_RESIDUES = 2**13


class UnitTable(NamedTuple):
    """The unit residues of c and their inverses as read-only int64 arrays,
    in the (y, x) raster order of the Hermite box, and the map from box
    index y*d + x to the position of that residue in this order (-1 off
    the units).  unit_tables builds the tables of a run of moduli at once,
    and a table's arrays are views of its run's arrays; unit_table is the
    run of one modulus.  A table lives as long as its owner: the CharGroup
    it is handed to, or one loop over the moduli."""

    x: np.ndarray
    y: np.ndarray
    inv_x: np.ndarray
    inv_y: np.ndarray
    position: np.ndarray


class UnitRun(NamedTuple):
    """The unit tables of consecutive moduli as one array per field: the
    units of moduli[k] and their inverses are x, y, inv_x and inv_y at
    bounds[k]:bounds[k + 1], and tables[k] is its UnitTable."""

    moduli: tuple[GaussianInt, ...]
    bounds: list[int]
    x: np.ndarray
    y: np.ndarray
    inv_x: np.ndarray
    inv_y: np.ndarray
    tables: tuple[UnitTable, ...]


def _runs(moduli) -> Iterator[list[GaussianInt]]:
    """The moduli in consecutive runs of RUN_RESIDUES residues or one modulus."""
    run: list[GaussianInt] = []
    top = 0
    for c in moduli:
        if c.is_zero():
            raise DomainError("zero modulus")
        if c.norm >= MAX_UNIT_NORM:
            raise DomainError(
                f"modulus norm {c.norm} is too large for exact unit arithmetic "
                f"(needs N(c) < {MAX_UNIT_NORM})"
            )
        if run and (len(run) + 1) * max(top, c.norm) > RUN_RESIDUES:
            yield run
            run, top = [], 0
        run.append(c)
        top = max(top, c.norm)
    if run:
        yield run


def _tables(sizes, build) -> tuple[np.ndarray, list[int]]:
    """build(n) for each distinct n of sizes, concatenated, and the offset
    of the table of each entry of sizes."""
    at: dict[int, int] = {}
    parts = []
    for n in sizes:
        if n not in at:
            at[n] = sum(map(len, parts))
            parts.append(build(n))
    return (parts[0] if len(parts) == 1 else np.concatenate(parts)), [at[n] for n in sizes]


def _spreader(counts):
    """spread(values) repeats the k-th value counts[k] times, as int64; one
    count keeps its value as a scalar, which broadcasts the same."""
    if len(counts) == 1:
        return lambda values: values[0]
    owner = np.repeat(np.arange(len(counts)), counts)
    return lambda values: np.asarray(values, dtype=np.int64)[owner]


def _coprime_table(n: int) -> np.ndarray:
    """Whether r is prime to n, for 0 <= r < n, sieved over the primes of n."""
    table = np.ones(n, dtype=bool)
    for p, _ in factor_int(n):
        table[::p] = False
    return table


def _primitive_root(p: int, e: int) -> int:
    """A generator of (Z/p^e)^x for an odd prime p."""
    cofactors = [(p - 1) // q for q, _ in factor_int(p - 1)]
    r = next(r for r in range(2, p) if all(pow(r, k, p) != 1 for k in cofactors))
    # a root mod p generates mod every p^e unless r^(p-1) = 1 mod p^2
    return r + p if e > 1 and pow(r, p - 1, p * p) == 1 else r


def _inverse_table(d: int) -> np.ndarray:
    """r^{-1} mod d for 0 <= r < d prime to d, and 0 at the other r.

    For an odd prime power q = p^e, with r the powers of a primitive root
    taken by doubling, the inverse of r^k is r^{-k}; for q = 2^e, Newton's
    steps b -> b (2 - a b) double the bits of b = a^{-1} mod 8.  The
    prime powers of d are joined by the CRT.  Every product stays below
    d^2 < 2^62.
    """
    parts = []
    for p, e in factor_int(d):
        q = p**e
        inverse = np.zeros(q, dtype=np.int64)
        if p == 2:
            a = np.arange(1, q, 2, dtype=np.int64)
            b, bits = a, 3  # a a = 1 mod 8 for odd a
            while bits < e:
                b, bits = b * (2 - a * b % q) % q, 2 * bits
            inverse[a] = b
        else:
            phi = q // p * (p - 1)
            powers = np.empty(phi, dtype=np.int64)
            powers[0], done, step = 1, 1, _primitive_root(p, e)
            while done < phi:
                k = min(done, phi - done)
                np.remainder(powers[:k] * step, q, out=powers[done : done + k])
                done, step = done + k, step * step % q
            inverse[powers] = np.concatenate((powers[:1], powers[:0:-1]))
        parts.append((q, inverse))
    if len(parts) < 2:
        return parts[0][1] if parts else np.zeros(1, dtype=np.int64)
    # the CRT idempotents m (m^{-1} mod q) are below d, and the q below
    # d sum to at most d, so the sum stays below d^2 before its reduction
    r = np.arange(d, dtype=np.int64)
    out = np.zeros(d, dtype=np.int64)
    for q, inverse in parts:
        m = d // q
        out += inverse[r % q] * (m * pow(m, -1, q) % d)
    out %= d
    for p, _ in factor_int(d):
        out[::p] = 0
    return out


def _run_points(run: list[GaussianInt], boxes):
    """The units of each modulus of a run, from the rational structure.

    With g = gcd(re c, im c) and c = g c', c' is primitive, so Z[i]/(c')
    is Z/N' (N' = N(c')) with i -> j = -re(c') im(c')^{-1} mod N'.  A box
    point x + iy is a unit mod c iff x + jy is prime to N' and
    x^2 + y^2 = N(x + iy) is prime to g (an odd inert prime, or 1 + i,
    divides x + iy iff it divides its norm; a split p iff its conjugate
    divides the norm of x - iy); both are read from coprimality tables.
    Where every g is 1 the box is Z/N(c), y = 0 and the first test alone
    reads x.  Returns the units x and y and the positions, each
    concatenated over the run, and the bounds of each modulus in the units.
    """
    sizes = [c.norm for c in run]
    starts = [0, *accumulate(sizes)]
    spread = _spreader(sizes)
    gs = [g for _, _, g in boxes]
    cores = [d // g for d, _, g in boxes]
    local = np.arange(starts[-1], dtype=np.int64) - spread(starts)
    y, x = np.divmod(local, spread([d for d, _, _ in boxes]))
    cop, at = _tables(cores, _coprime_table)
    if max(gs) == 1:
        unit = cop[spread(at) + x]
    else:
        roots = [
            -(c.re // g) * pow(c.im // g, -1, n) % n if n > 1 else 0
            for c, g, n in zip(run, gs, cores)
        ]
        unit = cop[spread(at) + (x + spread(roots) * y) % spread(cores)]
        cop, at = _tables(gs, _coprime_table)
        unit &= cop[spread(at) + (x * x + y * y) % spread(gs)]
    count = np.cumsum(unit)
    bounds = [0, *count[[s - 1 for s in starts[1:]]].tolist()]
    position = count - 1 - spread(bounds[:-1])
    position[~unit] = -1
    points = x[unit], y[unit], position
    for arr in points:
        arr.setflags(write=False)
    return points, bounds


#: A unit a has a + t c with N(a + t c) prime to d for some t < 10: each
#: split prime p | d forbids one class of t mod p >= 5, and d < 2^31 has
#: at most six of them.  A longer search means a non-unit got in.
_MAX_SHIFTS = 16


def _run_inverses(run: list[GaussianInt], boxes, x, y, bounds):
    """The inverses of the units x + iy of a run (_run_points), by the norm map.

    With c cap Z = dZ, a^{-1} = conj(a) N(a)^{-1}, N(a) inverted mod d by
    one _inverse_table per distinct d.  An integer is a unit mod c iff it
    is prime to d, and N(a) = a conj(a) fails that only where a split
    prime p | c has conj(p) | a; such an a is replaced by a + t c, t = 1,
    2, ..., the same class, until its norm is prime to d.  Coordinates are
    taken mod d, so every product stays below d^2; the inverse is then
    reduced into the Hermite box, where it is unique.  Where every g is 1
    a unit is an integer x, and its inverse is read off the table.  For a
    unit modulus the single class [0] is its own inverse.
    """
    spread = _spreader([b - a for a, b in zip(bounds, bounds[1:])])
    ds, es, gs = zip(*boxes)
    table, at = _tables(ds, _inverse_table)
    at = spread(at)
    if max(gs) == 1:
        inv_x, inv_y = table[at + x], y
    else:
        d = spread(ds)
        # 0 <= x < d and 0 <= y < g <= d, so x^2 + y^2 < 2 d^2 < 2^63
        ax, ay = x, y
        inv = table[at + (x * x + y * y) % d]
        # the table reads 0 off the units of Z/d, except at d = 1
        bad = (inv == 0) & (d > 1)
        for _ in range(_MAX_SHIFTS):
            if not bad.any():
                break
            # a + t c is the same class, and at each split p, conj(p)
            # divides it for one class of t mod N(p) only: a few rounds
            ax = np.where(bad, (ax + spread([c.re for c in run])) % d, ax)
            ay = np.where(bad, (ay + spread([c.im for c in run])) % d, ay)
            inv = table[at + (ax * ax + ay * ay) % d]
            bad = (inv == 0) & (d > 1)
        if bad.any():
            raise AssertionError(f"no a + t c with t <= {_MAX_SHIFTS} has a norm prime to d")
        # the box reduction of (X, Y) is ((X - (Y // g) e) mod d, Y mod g)
        shift, inv_y = np.divmod((d - ay) * inv % d, spread(gs))
        inv_x = (ax * inv - shift * spread(es)) % d
    for arr in (inv_x, inv_y):
        arr.setflags(write=False)
    return inv_x, inv_y


def _unit_run(run: list[GaussianInt]) -> tuple[list[int], UnitTable]:
    """The bounds of each modulus of a run in its units, and the run's
    units, inverses and positions as one UnitTable."""
    boxes = [residue_box(c) for c in run]
    (x, y, position), bounds = _run_points(run, boxes)
    return bounds, UnitTable(x, y, *_run_inverses(run, boxes, x, y, bounds), position)


def unit_runs(moduli) -> Iterator[UnitRun]:
    """The unit tables of moduli, in order, built a run of consecutive
    moduli at a time (RUN_RESIDUES); a zero modulus, or one of norm
    MAX_UNIT_NORM or more, raises DomainError when its run is reached.
    No Gaussian factorisation is made and nothing is cached."""
    for run in _runs(moduli):
        bounds, (x, y, inv_x, inv_y, position) = _unit_run(run)
        starts = [0, *accumulate(c.norm for c in run)]
        tables = tuple(
            UnitTable(x[a:b], y[a:b], inv_x[a:b], inv_y[a:b], position[s:t])
            for a, b, s, t in zip(bounds, bounds[1:], starts, starts[1:])
        )
        yield UnitRun(tuple(run), bounds, x, y, inv_x, inv_y, tables)


def unit_tables(moduli) -> Iterator[UnitTable]:
    """The unit_table of each modulus of moduli, in order (unit_runs)."""
    for run in unit_runs(moduli):
        yield from run.tables


def unit_table(c: GaussianInt) -> UnitTable:
    """Units mod c and their inverses, by exact int64 array arithmetic: the
    one-modulus case of unit_tables, a run of its own.  Nothing is cached."""
    (run,) = _runs([c])
    return _unit_run(run)[1]


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
