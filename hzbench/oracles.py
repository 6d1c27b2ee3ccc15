"""Reference values computed with mpmath alone, independent of hyperzeta.

With equal periods omega_1 = ... = omega_r = omega the Barnes zeta is a finite
sum of Hurwitz zetas: writing x = w/omega and y = n + x,

    zeta_r(s, w; omega) = omega^-s * sum_n C(n+r-1, r-1) (n + x)^-s
                        = omega^-s * sum_j b_j zeta(s - j, x),

where b_j are the coefficients of the polynomial C(y - x + r - 1, r - 1) in y.
The split omega^-s (n + x)^-s of (n omega + w)^-s holds on the principal
branch while |arg omega| + |arg(n + x)| < pi, which every workload respects.
s-derivatives then follow from mpmath's Hurwitz derivatives, and the balanced
functions from the c^m_{mu,k} weights, rebuilt here from the multiple
harmonic sums.  Negative k use the hierarchy P(m,k-1) = -d/dw P(m,k).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from mpmath import mp


def _poly_mul(a, b):
    out = [mp.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def zeta_equal(s, w, omega, r: int, deriv: int = 0):
    """d^deriv/ds^deriv of zeta_r(s, w; (omega,)*r), by Hurwitz zetas."""
    s, w = mp.mpc(s), mp.mpc(w)
    if r == 0:
        return (-mp.log(w)) ** deriv * mp.power(w, -s)
    omega = mp.mpc(omega)
    x = w / omega
    b = [mp.mpc(1)]
    for i in range(1, r):
        b = _poly_mul(b, [i - x, mp.mpc(1)])
    scale = mp.power(omega, -s) / factorial(r - 1)
    nlog = -mp.log(omega)
    total = mp.mpc(0)
    for j, bj in enumerate(b):
        for i in range(deriv + 1):
            total += (
                bj
                * comb(deriv, i)
                * nlog ** (deriv - i)
                * mp.zeta(s - j, x, i)
            )
    return scale * total


@lru_cache(maxsize=None)
def _multi_harmonic(k: int, mu: int) -> Fraction:
    if mu == 0:
        return Fraction(1)
    if k == 0:
        return Fraction(0)
    return _multi_harmonic(k, mu - 1) / k + _multi_harmonic(k - 1, mu)


def c_weight(m: int, mu: int, k: int) -> Fraction:
    """c^m_{mu,k} = (-1)^k / k! * m! / (m - mu)! * H_k(mu)."""
    sign = -1 if k % 2 else 1
    return (
        Fraction(sign, factorial(k))
        * Fraction(factorial(m), factorial(m - mu))
        * _multi_harmonic(k, mu)
    )


def log_hyper_gamma_equal(m: int, k: int, w, omega, r: int):
    return zeta_equal(-k, w, omega, r, m)


def balanced_equal(m: int, k: int, w, omega, r: int):
    """P(m, k)(w; (omega,)*r) for any integer k."""
    if k < 0:
        return (-1) ** k * mp.diff(
            lambda x: balanced_equal(m, 0, x, omega, r), mp.mpf(mp.re(w)), -k
        )
    total = mp.mpc(0)
    for mu in range(m + 1):
        c = c_weight(m, m - mu, k)
        if c:
            total += mp.mpf(c.numerator) / c.denominator * log_hyper_gamma_equal(
                mu, k, w, omega, r
            )
    return total


def bernoulli_a_one(N: int, a):
    """a_{1,N}(a; (1)): the t^N coefficient of e^{-at} / (1 - e^{-t})."""
    return mp.bernpoly(N + 1, 1 - mp.mpc(a)) / mp.factorial(N + 1)
