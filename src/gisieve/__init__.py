"""gisieve: exponential sums, character transforms, and Bessel-integral
experiments over the Gaussian integers."""

from .gauss import (
    DomainError,
    Factorization,
    GIdeal,
    GaussianInt,
    NotInvertibleError,
    canonical_associate,
    divisor_count,
    euler_phi,
    factor,
    gcd,
    ideal_divisors,
    ideals_up_to_norm,
    mod_inverse,
    moebius,
    multiplicative_functions,
    unit_residues,
)

__version__ = "0.1.0"
