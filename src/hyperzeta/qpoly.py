"""The contour-weight polynomials Q and S.

``q_poly(m, k)`` is the degree-m polynomial defined by

    e^{(s+k)x} / (Gamma(s) (e^{2 pi i s} - 1)) = sum_m q_poly(m,k)(x)/m! (s+k)^m,

expanded as a jet in u = s + k.  Both denominator factors have a simple zero
at u = 0; after cancellation the quotient jet J(u) is regular and

    q_poly(m,k)(x) = m! * sum_{d<=m} J_{m-d} x^d / d!.

J is a product of three power series, each exact through its order, so
q_poly(m, k) needs J only through u^m, with no guard terms and no series
division (which loses terms and tests leading coefficients for zero):

    J(u) = prod_{j=1..k} (u - j) * 1/Gamma(1+u) * u / (e^{2 pi i u} - 1),

with 1/Gamma(1+u) = exp(gamma u - sum_{j>=2} (-1)^j zeta(j) u^j / j) and
u / (e^{2 pi i u} - 1) = sum_n B_n (2 pi i)^(n-1) u^n / n!.  q and S are built
at a Hankel integral's working precision, the policy's bits plus
QUADRATURE_GUARD_BITS.

``s_poly(m, k)`` is the c^m_{mu,k}-weighted combination of the q polynomials;
it is provably independent of k and equals q_poly(m, 0).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from mpmath import mp

from .combinatorics import coeff_c
from .constants import _euler_gamma_bits, _frac
from .errors import InvalidParameter
from .precision import DEFAULT_POLICY, QUADRATURE_GUARD_BITS, PrecisionPolicy, _exact, _index
from .series import LaurentSeries, _bernoulli_jet, _horner, _mul_coeffs


@dataclass(frozen=True)
class PolyC:
    """Polynomial in one variable (index = degree); each coefficient comes in
    through ``precision._exact``, an mpf where real and an mpc otherwise."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(_exact, self.coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        return _horner(self.coeffs, 0, x)

    def _combine(self, other: "PolyC", op) -> tuple:
        """op of the two coefficients of each degree, zero-padded, each
        result rounded once."""
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return tuple(map(op, a, b))

    def __add__(self, other: "PolyC") -> "PolyC":
        return PolyC(self._combine(other, operator.add))

    def __sub__(self, other: "PolyC") -> "PolyC":
        """self - other, without the top coefficients that cancel exactly."""
        coeffs = self._combine(other, operator.sub)
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        return PolyC(coeffs[:n])

    def scale(self, c) -> "PolyC":
        return PolyC(tuple(c * a for a in self.coeffs))

    def shift(self, c) -> "PolyC":
        """The Taylor shift x -> self(x + c), by repeated synthetic division;
        the top coefficient is left as it is."""
        a = list(self.coeffs)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += c * a[j + 1]
        return PolyC(tuple(a))

    @classmethod
    def monomial(cls, d: int) -> "PolyC":
        return cls((0,) * d + (1,))


@lru_cache(maxsize=None)
def _quotient_jet(k: int, order: int, bits: int) -> LaurentSeries:
    """J(u) = 1 / (Gamma(u-k) (e^{2 pi i u} - 1)) through u^(order-1), built
    at ``bits``, the caller's working precision (the cache key)."""
    with mp.workprec(bits):
        poly = [1] + [0] * (order - 1)
        for j in range(1, k + 1):
            poly = _mul_coeffs(poly, [-j, 1], order)
        # 1/Gamma(1+u) = exp(gamma u - sum_{j>=2} (-1)^j zeta(j) u^j / j)
        log_rgamma = [0, _euler_gamma_bits(bits)]
        log_rgamma += [-(-1) ** j * mp.zeta(j) / j for j in range(2, order)]
        rgamma = LaurentSeries(0, log_rgamma[:order]).exp()
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        u_over_expm1 = _bernoulli_jet(two_pi_i, order).scale(1 / two_pi_i)
        return LaurentSeries(0, poly) * rgamma * u_over_expm1


@lru_cache(maxsize=None)
def q_poly(m: int, k: int, p: PrecisionPolicy = DEFAULT_POLICY) -> PolyC:
    """The degree-m polynomial q_poly(m, k), built at the working precision of
    a Hankel integral under p."""
    m, k = _index(m, "m"), _index(k, "k")
    if m < 0 or k < 0:
        raise InvalidParameter("q_poly needs m, k >= 0")
    with p.context(QUADRATURE_GUARD_BITS):
        jet = _quotient_jet(k, m + 1, mp.prec)
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
    """S_{m,k}(x) = sum_mu c^m_{m-mu,k} q_poly(mu, k); k-independent.  Built,
    as q_poly, at the working precision of a Hankel integral under p."""
    m, k = _index(m, "m"), _index(k, "k")
    if m < 0 or k < 0:
        raise InvalidParameter("s_poly needs m, k >= 0")
    with p.context(QUADRATURE_GUARD_BITS):
        acc = PolyC((0,) * (m + 1))
        for mu, weight in _c_weights(m, k):
            acc = acc + q_poly(mu, k, p).scale(weight)
        return acc
