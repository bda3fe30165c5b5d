"""Kloosterman sums over Z[i] and the exact identities they satisfy.

With e[z] = exp(2*pi*i*Re(z)), the Kloosterman sum for a modulus c is

    S(m, n; c) = sum over units a mod c of e[(a*m + a^{-1}*n) / c],

and the twisted variant feeding the character transforms is

    F(w; c) = S(w^2, 1; c) * e[2*w/c],        gcd(w, c) = (1).

Every exponent Re((...)*conj(c))/N(c) is an exact rational with integer
numerator, so each value is a sum of N(c)-th roots of unity looked up in
one table of them, built for the sums and not kept.  Two expressions
that agree in the algebra then agree numerically to ~1e-13, which is
what lets the identity tests run at 1e-9.
kloosterman_sums sums S(m_i, n_j; c) for two lists of arguments at every
modulus of a list, a run of consecutive moduli at a time, each on a
zero-padded row of its own; kloosterman_matrix is its one-modulus case,
over the caller's unit table of c, and equal to it bit for bit.  The
identities take lists too; the table of F over all units (f_sum_values)
is one FFT per modulus, within ~1e-12 of the direct sums.

For a unit modulus the quotient is the zero ring, its one residue class
is invertible, and every sum degenerates to the single term 1.
"""

from __future__ import annotations

import numpy as np

from .gauss import (
    ONE,
    DomainError,
    GIdeal,
    GaussianInt,
    UnitRun,
    UnitTable,
    _tables,
    divides,
    exact_div,
    ideal_divisors,
    is_coprime,
    moebius,
    reduce_pair,
    residue_box,
    unit_runs,
    unit_table,
)

__all__ = [
    "kloosterman",
    "kloosterman_matrix",
    "kloosterman_sums",
    "f_sum",
    "f_sum_values",
    "selberg_residuals",
    "shift_residuals",
    "weil_ratios",
]


def _exp_table(n: int) -> np.ndarray:
    """exp(2*pi*i*k/n) for k = 0..n-1; built per use, O(n), not kept."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _exponent_rows(xs, ux, uy, moduli) -> np.ndarray:
    """Re(u x conj(c)) for each modulus c of moduli (axis 0), x of xs
    (axis 1) and the units u = ux + i uy of c (axis 2, padded), with
    x conj(c) reduced mod N(c) first."""
    xc = [
        [(x.re * c.re + x.im * c.im) % n, (x.im * c.re - x.re * c.im) % n]
        for c, n in zip(moduli, (c.norm for c in moduli))
        for x in xs
    ]
    xc = np.array(xc, dtype=np.int64).reshape(len(moduli), -1, 2)
    return ux[:, None, :] * xc[:, :, :1] - uy[:, None, :] * xc[:, :, 1:]


def _run_sums(ms, ns, run: UnitRun) -> np.ndarray:
    """S(m_i, n_j; c) for every modulus c of a run, as a float array of
    shape (moduli, ms, ns).

    S is real by a -> -a: each entry is the real parts of its terms,
    accumulated in the fixed residue order.  The exponent of a term is
    Re(a m conj(c)) + Re(a^{-1} n conj(c)) mod N(c), one int64 row per
    argument on each side; every product stays below N(c)^2 < 2^62.  Each
    modulus sums on a row of its own, padded after its last term with
    zeros up to the run's largest unit count (the padding reads a 0.0
    after the run's _exp_table cosines), so the cumulative sum at the
    row's end is its own sum bit for bit.
    """
    fields = run.x, run.y, run.inv_x, run.inv_y
    norms = [c.norm for c in run.moduli]
    if len(norms) == 1:
        ux, uy, vx, vy = (f[None, :] for f in fields)
    else:
        bounds = np.array(run.bounds)
        sizes = np.diff(bounds)
        column = np.arange(sizes.max())
        pad = column >= sizes[:, None]
        index = np.where(pad, 0, bounds[:-1, None] + column)
        ux, uy, vx, vy = (f[index] for f in fields)
    rows_m = _exponent_rows(ms, ux, uy, run.moduli)
    rows_n = _exponent_rows(ns, vx, vy, run.moduli)
    shape = len(norms), 1, 1, 1
    k = (rows_m[:, :, None, :] + rows_n[:, None, :, :]) % np.reshape(norms, shape)
    table, at = _tables(norms, lambda n: _exp_table(n).real)
    if len(norms) > 1:
        table = np.append(table, 0.0)
        k += np.reshape(at, shape)
        k[np.broadcast_to(pad[:, None, None, :], k.shape)] = table.size - 1
    # a copy, so that a kept sum does not keep the cumulative array
    return np.cumsum(table[k], axis=-1)[..., -1].copy()


def kloosterman_sums(ms, ns, moduli) -> np.ndarray:
    """S(m_i, n_j; c) for every c of moduli, m_i of ms and n_j of ns, as a
    float array of shape (moduli, ms, ns): kloosterman_matrix at each c,
    bit for bit, with the unit tables and the sums of a run of moduli
    built at once (gauss.unit_runs)."""
    sums = [_run_sums(ms, ns, run) for run in unit_runs(moduli)]
    return np.concatenate(sums) if sums else np.zeros((0, len(ms), len(ns)))


def kloosterman_matrix(ms, ns, c: GaussianInt, units: UnitTable) -> np.ndarray:
    """S(m_i, n_j; c) for every m_i of ms and n_j of ns, as a float array;
    units is the unit_table of c, built and kept by the caller for as long
    as it sums mod c.  The one-modulus case of kloosterman_sums."""
    run = UnitRun((c,), [0, len(units.x)], units.x, units.y, units.inv_x, units.inv_y, (units,))
    return _run_sums(ms, ns, run)[0]


def kloosterman(m: GaussianInt, n: GaussianInt, c: GaussianInt) -> float:
    """S(m, n; c): the 1 x 1 case of kloosterman_matrix."""
    return float(kloosterman_matrix([m], [n], c, unit_table(c))[0, 0])


def f_sum(w: GaussianInt, c: GaussianInt) -> complex:
    """F(w; c) = S(w^2, 1; c) * e[2w/c] for gcd(w, c) = (1)."""
    if not is_coprime(w, c):
        raise DomainError(f"f_sum needs gcd(w, c) = (1); got w={w}, c={c}")
    value = kloosterman(w * w, ONE, c)  # first, for its modulus checks
    big_n = c.norm
    twist = _exp_table(big_n)[(2 * (w * c.conj()).re) % big_n]
    return complex(value * twist)


def f_sum_values(c: GaussianInt, units: UnitTable) -> np.ndarray:
    """F(alpha; c) for every unit residue alpha of units, the unit_table
    of c, in enumeration order.

    One additive Fourier transform gives S(m, 1; c) for every m at once.
    With (d, e, g) = residue_box(c), Z[i]/(c) is Z/d x Z/g in the
    coordinates X = (x - y e/g) mod d, Y = y, and for mc = m * conj(c)

        e[a m / c] = exp(2 pi i (k1 X / d + k2 Y / g)),
        k1 = Re(mc)/g mod d,   k2 = ((e/g) Re(mc) - Im(mc))/d mod g.

    So S(m, 1; c) = N(c) * ifft2(h)[k1, k2] with h = e[b^{-1}/c] at the
    units b and 0 elsewhere; F(a; c) reads it at m = a^2 and multiplies
    by e[2a/c].  The result is read-only; the caller keeps it as long as
    it needs it (CharGroup.f_values keeps it with its group).
    """
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


def _common_divisors(divisors: list[GIdeal], ms, ns) -> np.ndarray:
    """Boolean array: [k, i, j] is whether divisors[k] divides ms[i] and ns[j]."""
    in_m = np.array([[divides(d.gen, m) for m in ms] for d in divisors], dtype=bool)
    in_n = np.array([[divides(d.gen, n) for n in ns] for d in divisors], dtype=bool)
    return in_m[:, :, None] & in_n[:, None, :]


def selberg_residuals(ms, ns, c: GaussianInt) -> np.ndarray:
    """S(m^2, n^2; c) - sum_{d | (m^2, n^2, c)} N(d) S((mn/d)^2, 1; c/d) for
    m of ms (rows) and n of ns (columns); zero in exact arithmetic.

    The divisors of (m^2, n^2, c) are those of c that divide m^2 and n^2,
    in the same order, so one divisor list serves every pair; a divisor
    that divides no pair adds nothing and builds no table.  The first
    divisor is (1), whose quotient is c itself: it reads the left side's
    unit table.
    """
    squares_m, squares_n = [m * m for m in ms], [n * n for n in ns]
    units = unit_table(c)
    lhs = kloosterman_matrix(squares_m, squares_n, c, units)
    divisors = ideal_divisors(GIdeal.of(c))
    rhs = np.zeros(lhs.shape)
    for d, common in zip(divisors, _common_divisors(divisors, squares_m, squares_n)):
        if not common.any():
            continue
        w2 = [exact_div(ms[i] * ns[j], d.gen) ** 2 for i, j in zip(*np.nonzero(common))]
        quotient = exact_div(c, d.gen)
        table = units if d.norm == 1 else unit_table(quotient)
        rhs[common] += d.norm * kloosterman_matrix(w2, [ONE], quotient, table)[:, 0]
    return lhs - rhs


def shift_residuals(qs, c: GaussianInt, g: GaussianInt, sums_c: np.ndarray) -> np.ndarray:
    """Residuals of the shifted-argument identity at w = q g, for each q of qs:

    S(w^2, 1; c*g) = 0                      if gcd(c, g) != (1)
                   = mu((g)) S(q^2, 1; c)   otherwise.

    sums_c holds S(q^2, 1; c) for a list of q that qs begins, so one
    array serves every g at c: the rows of kloosterman_matrix are
    independent, so its prefix equals the sums of qs alone.
    """
    cg = c * g
    lhs = kloosterman_matrix([(q * g) * (q * g) for q in qs], [ONE], cg, unit_table(cg))[:, 0]
    if not is_coprime(c, g):
        return lhs
    return lhs - moebius(GIdeal.of(g)) * sums_c[: len(qs)]


def weil_ratios(ms, ns, c: GaussianInt) -> np.ndarray:
    """|S(m, n; c)| / (tau((c)) sqrt(N((m,n,c))) sqrt(N(c))) for m of ms (rows)
    and n of ns (columns); N((m, n, c)) is the largest norm among the
    divisors of c that divide both m and n."""
    val = np.abs(kloosterman_matrix(ms, ns, c, unit_table(c)))
    divisors = ideal_divisors(GIdeal.of(c))
    norms = np.array([d.norm for d in divisors], dtype=np.int64)[:, None, None]
    g3 = np.max(np.where(_common_divisors(divisors, ms, ns), norms, 1), axis=0)
    return val / (len(divisors) * np.sqrt(g3) * np.sqrt(c.norm))
