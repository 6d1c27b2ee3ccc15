"""Exact rational combinatorics: multiple harmonic sums and their relatives.

The identities this module feeds (the recurrence k*H_k(mu) = H_k(mu-1)
+ k*H_{k-1}(mu), the weights c^m_{mu,k}, and the generating function
F_k(s) = k!/(1-s)_k) are exact, so everything here is computed with
``fractions.Fraction`` and the tests double as proofs at bounded parameters.
``gen_F`` runs on the float jets' power-series loops (``series._mul_coeffs``
and ``series._inv_coeffs``), which take Fraction coefficients as they are.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial, prod

from .errors import InvalidParameter
from .series import _inv_coeffs, _mul_coeffs


@lru_cache(maxsize=None)
def multi_harmonic(k: int, mu: int) -> Fraction:
    """Non-strict multiple harmonic sum H_k(mu) over 0 < j_1 <= ... <= j_mu <= k.

    Conventions: H_k(0) = 1 and H_0(mu) = 0 for mu >= 1.
    """
    if k < 0 or mu < 0:
        raise InvalidParameter("multi_harmonic needs k, mu >= 0")
    if mu == 0:
        return Fraction(1)
    if k == 0:
        return Fraction(0)
    return multi_harmonic(k, mu - 1) / k + multi_harmonic(k - 1, mu)


def multi_harmonic_by_enumeration(k: int, mu: int) -> Fraction:
    """Brute-force oracle for H_k(mu); exponential in mu, keep k, mu small."""
    if mu == 0:
        return Fraction(1)
    if k == 0:
        return Fraction(0)
    total = Fraction(0)
    for chain in combinations_with_replacement(range(1, k + 1), mu):
        total += Fraction(1, prod(chain))
    return total


def coeff_c(m: int, mu: int, k: int) -> Fraction:
    """The weight c^m_{mu,k} = (-1)^k/k! * m!/(m-mu)! * H_k(mu)."""
    if not 0 <= mu <= m:
        raise IndexError(f"need 0 <= mu <= m, got mu={mu}, m={m}")
    if k < 0:
        raise InvalidParameter("coeff_c needs k >= 0")
    sign = -1 if k % 2 else 1
    return (
        Fraction(sign, factorial(k))
        * Fraction(factorial(m), factorial(m - mu))
        * multi_harmonic(k, mu)
    )


def gen_F(k: int, order: int) -> tuple:
    """Coefficients of s^0 .. s^(order-1) in the series of
    F_k(s) = k!/(1-s)_k = 1/prod_{j=1..k}(1 - s/j)."""
    if order < 1:
        raise InvalidParameter("gen_F needs order >= 1")
    denom = [Fraction(1)]
    for j in range(1, k + 1):
        denom = _mul_coeffs(denom, [1, Fraction(-1, j)], order)
    return tuple(_inv_coeffs(denom, order))
