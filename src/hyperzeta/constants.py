"""High-precision scalar constants and classical special functions.

Everything here is standard machinery: exact Bernoulli numbers, the
Euler-Mascheroni constant and integer zeta values by Euler-Maclaurin, the
Hurwitz zeta function for general complex s, and log-gamma by
shift-and-Stirling.  All three Bernoulli tails (and the lattice sum in
``evaluators``) go through one loop, ``_bernoulli_tail``: terms are added
until one falls below the target, and a term that grows first raises.  These
back both the jet expansions and the reference oracles used by the test
suites.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import comb, factorial

from mpmath import mp, mpf

from .errors import DomainError, PrecisionUnreachable
from .precision import DEFAULT_POLICY, PrecisionPolicy


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (convention B_1 = -1/2)."""
    if n < 0:
        raise DomainError("Bernoulli index must be >= 0")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(n):
        acc += comb(n + 1, j) * bernoulli_number(j)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def bernoulli_poly_coeffs(n: int) -> tuple:
    """Coefficients (x^0 .. x^n) of the Bernoulli polynomial B_n(x), exact."""
    return tuple(
        comb(n, j) * bernoulli_number(n - j) for j in range(n + 1)
    )


def _frac(q: Fraction):
    return mpf(q.numerator) / q.denominator


def _bernoulli_tail(total, terms, eps, error):
    """Add the endless Bernoulli-tail ``terms`` to ``total`` up to and including
    the first with |term| < eps; return (total, |last term|).

    Raises ``error`` if a term grows before that: the series is asymptotic and
    its terms only grow from there on.
    """
    prev = mp.inf
    for term in terms:
        mag = abs(term)
        total += term
        if mag < eps:
            return total, mag
        if mag > prev:
            raise error(f"Bernoulli terms grew before reaching {mp.nstr(eps, 3)}")
        prev = mag


def euler_gamma(p: PrecisionPolicy = DEFAULT_POLICY):
    """Euler-Mascheroni constant by Euler-Maclaurin on the harmonic numbers."""
    with p.context(16):
        return _euler_gamma_bits(mp.prec)


@lru_cache(maxsize=None)
def _euler_gamma_bits(bits: int):
    with mp.workprec(bits):
        N = max(32, bits // 4)
        n2 = mpf(N) ** -2

        def terms():
            power = mpf(1)
            for j in count(1):
                power *= n2
                yield _frac(bernoulli_number(2 * j)) / (2 * j) * power

        # gamma = H_N - log N - 1/(2N) + sum_j B_2j / (2j N^{2j}) - R
        h = mp.fsum(mpf(1) / i for i in range(1, N + 1))
        acc = h - mp.log(N) - mpf(1) / (2 * N)
        acc, _ = _bernoulli_tail(acc, terms(), mpf(2) ** (-bits + 4), PrecisionUnreachable)
        return +acc


def zeta_int(j: int, p: PrecisionPolicy = DEFAULT_POLICY):
    """zeta(j) for integer j >= 2, via the Euler-Maclaurin Hurwitz routine."""
    if j < 2:
        raise DomainError("zeta_int requires j >= 2")
    with p.context(16):
        return hurwitz_zeta(j, 1, p).real


def hurwitz_zeta(s, a, p: PrecisionPolicy = DEFAULT_POLICY):
    """Hurwitz zeta(s, a) for complex s != 1, Re(a) > 0, by Euler-Maclaurin.

    zeta(s,a) = sum_{n<N} (a+n)^{-s} + (a+N)^{1-s}/(s-1) + (a+N)^{-s}/2
                + sum_j B_{2j}/(2j)! (s)_{2j-1} (a+N)^{-s-2j+1}.

    One pass with N = max(16, 0.4 prec, floor|s| + 1), so the correction terms
    shrink from the first; they are added until one falls below the working
    epsilon relative to the head, else PrecisionUnreachable is raised.  For
    Re(s) < 0 the head terms grow to |a+N|^{-Re s} and cancel, so the whole sum,
    epsilon included, runs with ceil(-Re(s) log2(|a| + N)) guard bits.
    """
    with p.context(16):
        s = mp.mpc(s)
        a = mp.mpc(a)
        if abs(s - 1) < mpf(2) ** (-mp.prec // 2):
            raise DomainError("Hurwitz zeta has a pole at s = 1")
        if mp.re(a) <= 0:
            raise DomainError("hurwitz_zeta requires Re(a) > 0")
        N = max(16, int(0.4 * mp.prec), int(abs(s)) + 1)
        guard = int(mp.ceil(max(0, -mp.re(s)) * mp.log(abs(a) + N, 2)))
        with mp.workprec(mp.prec + guard):
            base = a + N

            def terms():
                poch = s  # (s)_1
                power = mp.power(base, -s - 1)
                inv2 = mp.power(base, -2)
                for j in count(1):
                    yield _frac(bernoulli_number(2 * j)) / factorial(2 * j) * poch * power
                    poch = poch * (s + 2 * j - 1) * (s + 2 * j)
                    power = power * inv2

            head = mp.fsum(mp.power(a + n, -s) for n in range(N))
            total = head + mp.power(base, 1 - s) / (s - 1) + mp.power(base, -s) / 2
            eps = mpf(2) ** (-mp.prec + 8) * max(mpf(1), abs(total))
            total, _ = _bernoulli_tail(total, terms(), eps, PrecisionUnreachable)
        return +total


def loggamma(w, p: PrecisionPolicy = DEFAULT_POLICY):
    """log Gamma(w) by shifting into |w| large and applying Stirling's series."""
    with p.context(16):
        w = mp.mpc(w)
        if mp.im(w) == 0 and mp.re(w) <= 0 and mp.re(w) == mp.floor(mp.re(w)):
            raise DomainError("log-gamma pole at non-positive integer")
        shift_target = max(20, int(0.22 * mp.prec))
        n = 0
        while abs(w + n) < shift_target or mp.re(w + n) < 1:
            n += 1
        z = w + n

        def terms():
            zpow = 1 / z
            inv2 = zpow * zpow
            for j in count(1):
                yield _frac(bernoulli_number(2 * j)) / ((2 * j) * (2 * j - 1)) * zpow
                zpow = zpow * inv2

        acc = (z - mpf(1) / 2) * mp.log(z) - z + mp.log(2 * mp.pi) / 2
        acc, _ = _bernoulli_tail(acc, terms(), mpf(2) ** (-mp.prec + 8), PrecisionUnreachable)
        # undo the shift: log Gamma(w) = log Gamma(w+n) - sum log(w+j)
        for j in range(n):
            acc -= mp.log(w + j)
        return acc


def gamma_scalar(s, p: PrecisionPolicy = DEFAULT_POLICY):
    """Gamma(s) away from the non-positive integers."""
    with p.context(16):
        return mp.exp(loggamma(s, p))
