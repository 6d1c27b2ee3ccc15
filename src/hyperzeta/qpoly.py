"""The contour-weight polynomials Q and S.

``q_poly(m, k)`` is the degree-m polynomial defined by

    e^{(s+k)x} / (Gamma(s) (e^{2 pi i s} - 1)) = sum_m q_poly(m,k)(x)/m! (s+k)^m,

expanded as a jet in u = s + k.  Both denominator factors have a simple zero
at u = 0; after cancellation the quotient jet J(u) is regular and

    q_poly(m,k)(x) = m! * sum_{d<=m} J_{m-d} x^d / d!.

``s_poly(m, k)`` is the c^m_{mu,k}-weighted combination of the q polynomials;
it is provably independent of k and equals q_poly(m, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from mpmath import mp

from .combinatorics import coeff_c
from .constants import _frac, euler_gamma, zeta_int
from .errors import InvalidParameter
from .precision import DEFAULT_POLICY, PrecisionPolicy
from .series import LaurentSeries, _mul_coeffs, exponential_jet

JET_GUARD_TERMS = 8


@dataclass(frozen=True)
class PolyC:
    """Polynomial in one variable with complex coefficients (index = degree)."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(mp.mpc(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = self.coeffs[-1] if self.coeffs else mp.mpc(0)
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __add__(self, other: "PolyC") -> "PolyC":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return PolyC(tuple(mp.mpc(x) + mp.mpc(y) for x, y in zip(a, b)))

    def scale(self, c) -> "PolyC":
        c = mp.mpc(c)
        return PolyC(tuple(c * a for a in self.coeffs))

    @classmethod
    def monomial(cls, d: int) -> "PolyC":
        return cls((0,) * d + (1,))


def recip_gamma_jet(
    k: int, order: int, p: PrecisionPolicy = DEFAULT_POLICY
) -> LaurentSeries:
    """Jet of u -> 1/Gamma(u - k) around u = 0; simple zero (valuation 1).

    Uses 1/Gamma(u-k) = prod_{j=0}^{k} (u-j) / Gamma(1+u), with the reciprocal
    gamma jet built from exp(gamma*u - sum_{j>=2} (-1)^j zeta(j) u^j / j) so the
    truncation error is controlled entirely by the zeta-constant tails.
    """
    if k < 0:
        raise InvalidParameter("recip_gamma_jet needs k >= 0")
    if order < 2:
        raise InvalidParameter("recip_gamma_jet needs order >= 2")
    with p.context(16):
        poly = [1]
        for j in range(k + 1):
            poly = _mul_coeffs(poly, [-j, 1], k + 2)
        base = _recip_gamma1_jet(order, p)
        return LaurentSeries(0, _mul_coeffs(poly, base.coeffs, order))


def _recip_gamma1_jet(order: int, p: PrecisionPolicy) -> LaurentSeries:
    """Jet of 1/Gamma(1+u) = exp(gamma*u - sum_{j>=2} (-1)^j zeta(j)/j u^j)."""
    gamma = euler_gamma(p)
    coeffs = [mp.mpc(0), mp.mpc(gamma)]
    for j in range(2, order):
        sign = 1 if j % 2 == 0 else -1
        coeffs.append(mp.mpc(-sign * zeta_int(j, p) / j))
    return LaurentSeries(0, tuple(coeffs)).exp()


def expm_two_pi_i_jet(order: int, p: PrecisionPolicy = DEFAULT_POLICY) -> LaurentSeries:
    """Jet of u -> e^{2 pi i u} - 1 (valid at every s = -k + u by periodicity)."""
    if order < 2:
        raise InvalidParameter("expm_two_pi_i_jet needs order >= 2")
    with p.context(16):
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        return exponential_jet(two_pi_i, order) - LaurentSeries.one(order)


@lru_cache(maxsize=None)
def _quotient_jet(k: int, order: int, p: PrecisionPolicy) -> LaurentSeries:
    """Regular jet J(u) = 1 / (Gamma(u-k) (e^{2 pi i u} - 1))."""
    with p.context(16):
        num = recip_gamma_jet(k, order, p)
        den = expm_two_pi_i_jet(order, p)
        return num / den


@lru_cache(maxsize=None)
def q_poly(m: int, k: int, p: PrecisionPolicy = DEFAULT_POLICY) -> PolyC:
    """The degree-m polynomial q_poly(m, k)."""
    if m < 0 or k < 0:
        raise InvalidParameter("q_poly needs m, k >= 0")
    with p.context(16):
        jet = _quotient_jet(k, m + k + JET_GUARD_TERMS, p)
        fact_m = factorial(m)
        coeffs = [jet.coeff(m - d) * fact_m / factorial(d) for d in range(m + 1)]
        return PolyC(tuple(coeffs))


def _c_weights(m: int, k: int):
    """(mu, c^m_{m-mu,k}) for mu = 0..m, zero weights skipped; the weight is an
    mpf at the caller's working precision."""
    for mu in range(m + 1):
        c = coeff_c(m, m - mu, k)
        if c != 0:
            yield mu, _frac(c)


@lru_cache(maxsize=None)
def s_poly(m: int, k: int, p: PrecisionPolicy = DEFAULT_POLICY) -> PolyC:
    """S_{m,k}(x) = sum_mu c^m_{m-mu,k} q_poly(mu, k); k-independent."""
    if m < 0 or k < 0:
        raise InvalidParameter("s_poly needs m, k >= 0")
    with p.context(16):
        acc = PolyC((0,) * (m + 1))
        for mu, weight in _c_weights(m, k):
            acc = acc + q_poly(mu, k, p).scale(weight)
        return acc
