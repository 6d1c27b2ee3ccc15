"""High-precision scalar constants, taken from mpmath.

Exact Bernoulli numbers and Euler's constant.  Each is one mpmath call under
the package's precision policy, behind the domain checks the rest of the
package relies on; Gamma and the integer zeta values are taken from mpmath
directly (``mp.gamma``, ``mp.zeta``).  ``bernoulli_over_factorial`` gives
the cached coefficients B_n / n! of the lattice Euler-Maclaurin sum in
``evaluators``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import mp, mpf

from .errors import DomainError
from .precision import DEFAULT_POLICY, PrecisionPolicy


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (convention B_1 = -1/2)."""
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    return Fraction(*mp.bernfrac(n))


def _frac(q: Fraction):
    return mpf(q.numerator) / q.denominator


def bernoulli_over_factorial(n: int):
    """B_n / n! as an mpf at the working precision, cached per (n, bits)."""
    return _bernoulli_over_factorial(n, mp.prec)


@lru_cache(maxsize=None)
def _bernoulli_over_factorial(n: int, bits: int):
    with mp.workprec(bits):
        return _frac(bernoulli_number(n)) / factorial(n)


def euler_gamma(p: PrecisionPolicy = DEFAULT_POLICY):
    """Euler-Mascheroni constant at the policy's working precision."""
    with p.context(16):
        return _euler_gamma_bits(mp.prec)


@lru_cache(maxsize=None)
def _euler_gamma_bits(bits: int):
    with mp.workprec(bits):
        return +mp.euler
