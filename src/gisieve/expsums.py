"""Kloosterman sums over Z[i] and the exact identities they satisfy.

With e[z] = exp(2*pi*i*Re(z)), the Kloosterman sum for a modulus c is

    S(m, n; c) = sum over units a mod c of e[(a*m + a^{-1}*n) / c],

and the twisted variant feeding the character transforms is

    F(w; c) = S(w^2, 1; c) * e[2*w/c],        gcd(w, c) = (1).

Every exponent Re((...)*conj(c))/N(c) is an exact rational with integer
numerator, so each value is a sum of N(c)-th roots of unity looked up in
a shared table.  Two expressions that agree in the algebra then agree
numerically to ~1e-13, which is what lets the identity tests run at 1e-9.
The table of F over all units (f_sum_values) is one FFT of such
roots per modulus and agrees with the direct sums to ~1e-12.

For a unit modulus the quotient is the zero ring, its one residue class
is invertible, and every sum degenerates to the single term 1.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .gauss import (
    ONE,
    DomainError,
    GIdeal,
    GaussianInt,
    divisor_count,
    exact_div,
    gcd,
    ideal_divisors,
    is_coprime,
    moebius,
    reduce_pair,
    residue_box,
    unit_table,
)

__all__ = [
    "kloosterman",
    "f_sum",
    "f_sum_values",
    "selberg_residual",
    "shift_vanishing_residual",
    "weil_ratio",
]


@lru_cache(maxsize=512)
def _exp_table(n: int) -> np.ndarray:
    """exp(2*pi*i*k/n) for k = 0..n-1; the shared root-of-unity table."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def kloosterman(m: GaussianInt, n: GaussianInt, c: GaussianInt) -> float:
    """S(m, n; c), which is real by a -> -a: the real parts of its terms,
    accumulated in the fixed residue order.

    With mc = m * conj(c) and nc = n * conj(c) reduced mod N(c), the
    exponent of each term is Re(a mc) + Re(a^{-1} nc) mod N(c); every
    int64 product stays below N(c)^2 < 2^62.
    """
    if c.is_zero():
        raise DomainError("Kloosterman sum needs a nonzero modulus")
    units = unit_table(c)  # rejects moduli too large before the N(c)-long table is built
    big_n = c.norm
    cbar = c.conj()
    mc = m * cbar
    nc = n * cbar
    k = (
        units.x * (mc.re % big_n)
        - units.y * (mc.im % big_n)
        + units.inv_x * (nc.re % big_n)
        - units.inv_y * (nc.im % big_n)
    ) % big_n
    return float(np.cumsum(_exp_table(big_n)[k].real)[-1])


def f_sum(w: GaussianInt, c: GaussianInt) -> complex:
    """F(w; c) = S(w^2, 1; c) * e[2w/c] for gcd(w, c) = (1)."""
    if not is_coprime(w, c):
        raise DomainError(f"f_sum needs gcd(w, c) = (1); got w={w}, c={c}")
    value = kloosterman(w * w, ONE, c)  # first, for its modulus-size check
    big_n = c.norm
    twist = _exp_table(big_n)[(2 * (w * c.conj()).re) % big_n]
    return complex(value * twist)


@lru_cache(maxsize=1024)
def f_sum_values(c: GaussianInt) -> np.ndarray:
    """F(alpha; c) for every unit residue alpha, in enumeration order.

    One additive Fourier transform gives S(m, 1; c) for every m at once.
    With (d, e, g) = residue_box(c), Z[i]/(c) is Z/d x Z/g in the
    coordinates X = (x - y e/g) mod d, Y = y, and for mc = m * conj(c)

        e[a m / c] = exp(2 pi i (k1 X / d + k2 Y / g)),
        k1 = Re(mc)/g mod d,   k2 = ((e/g) Re(mc) - Im(mc))/d mod g.

    So S(m, 1; c) = N(c) * ifft2(h)[k1, k2] with h = e[b^{-1}/c] at the
    units b and 0 elsewhere; F(a; c) reads it at m = a^2 and multiplies
    by e[2a/c].  The result is cached and read-only.
    """
    units = unit_table(c)
    box = residue_box(c)
    d, e, g = box
    big_n = c.norm
    tab = _exp_table(big_n)
    x, y = units.x, units.y
    # Re(z * conj(c)) = re(z) c.re + im(z) c.im,  Im(z * conj(c)) = im(z) c.re - re(z) c.im
    h = np.zeros((d, g), dtype=np.complex128)
    h[(x - y * (e // g)) % d, y] = tab[(units.inv_x * c.re + units.inv_y * c.im) % big_n]
    s = np.fft.ifft2(h) * big_n
    sx, sy = reduce_pair(x * x - y * y, 2 * x * y, box)
    mr = sx * c.re + sy * c.im
    mi = sy * c.re - sx * c.im
    k1 = (mr // g) % d
    k2 = (((e // g) * (mr % big_n) - mi) % big_n) // d  # (e/g) Re(mc) - Im(mc) is 0 mod d
    out = s[k1, k2] * tab[(2 * (x * c.re + y * c.im)) % big_n]
    out.setflags(write=False)
    return out


def selberg_residual(m: GaussianInt, n: GaussianInt, c: GaussianInt) -> complex:
    """S(m^2, n^2; c) - sum_{d | (m^2, n^2, c)} N(d) S((mn/d)^2, 1; c/d).

    Zero in exact arithmetic; the divisor sum is over ideals, and the
    summand is independent of the generator chosen for d.
    """
    lhs = kloosterman(m * m, n * n, c)
    g = gcd(gcd(m * m, n * n), c)
    rhs = 0j
    mn = m * n
    for d in ideal_divisors(GIdeal.of(g)):
        w = exact_div(mn, d.gen)
        rhs += d.norm * kloosterman(w * w, ONE, exact_div(c, d.gen))
    return lhs - rhs


def shift_vanishing_residual(w: GaussianInt, c: GaussianInt, g: GaussianInt) -> complex:
    """Residual of the shifted-argument identity for g | w:

    S(w^2, 1; c*g) = 0                      if gcd(c, g) != (1)
                   = mu((g)) S((w/g)^2, 1; c)  otherwise.
    """
    try:
        q = exact_div(w, g)
    except DomainError:
        raise DomainError(f"shift identity needs g | w; got w={w}, g={g}") from None
    lhs = kloosterman(w * w, ONE, c * g)
    if not is_coprime(c, g):
        return lhs
    rhs = moebius(GIdeal.of(g)) * kloosterman(q * q, ONE, c)
    return lhs - rhs


def weil_ratio(m: GaussianInt, n: GaussianInt, c: GaussianInt) -> float:
    """|S(m, n; c)| / (tau((c)) * sqrt(N((m,n,c))) * sqrt(N(c)))."""
    if c.is_zero():
        raise DomainError("weil_ratio needs a nonzero modulus")
    # triple gcd (m, n, c); gcd handles single zeros, m = n = 0 gives (c) itself
    g3 = gcd(gcd(m, n), c) if not (m.is_zero() and n.is_zero()) else gcd(c, c)
    val = abs(kloosterman(m, n, c))
    tau = divisor_count(GIdeal.of(c))
    return val / (tau * math.sqrt(g3.norm) * math.sqrt(c.norm))
