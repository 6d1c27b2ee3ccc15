"""Truncated Laurent series ("jets") with real or complex coefficients.

A series stores the coefficients of ``t^(valuation) .. t^(order-1)`` densely.
Every operation is pure and works at the ambient mpmath precision, so callers
are expected to run inside ``PrecisionPolicy.context()``.  Truncation orders
follow the usual jet rules: the result is only claimed up to the order both
operands support.

Each coefficient comes in through ``precision._exact``: an mpf where it is
real, an mpc otherwise, with every bit it had.  No operation converts an
operand again, so a jet of real inputs stays real and a sum or product is
rounded once, at the ambient precision.

The power-series kernel is one pair of loops, ``_mul_coeffs`` (truncated
convolution) and ``_inv_coeffs`` (inverse of a unit series).  Their
accumulators start at the integer 0, so they work on ``mpf``, ``mpc`` and
``Fraction`` coefficients alike: ``LaurentSeries`` multiplies and divides with
them, and the exact rational path (``combinatorics.gen_F``,
``multibernoulli.bernoulli_a_exact``) uses the same loops.  They stay private
because the benchmark tracer wraps every public function.

``exponential_jet`` (e^{ct}) and ``_bernoulli_jet`` (ct / (e^{ct} - 1), from
the exact Bernoulli numbers) are exact through their order, so the jets of
``qpoly`` and ``multibernoulli`` are products of them: no production path
divides a series.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from mpmath import mp, mpf

from .constants import bernoulli_over_factorial
from .errors import DivisionByZeroSeries, DomainError
from .precision import _exact


@dataclass(frozen=True)
class LaurentSeries:
    valuation: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(_exact, self.coeffs)))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "LaurentSeries":
        return cls(order, ())

    @classmethod
    def one(cls, order: int) -> "LaurentSeries":
        return cls.monomial(1, 0, order)

    @classmethod
    def monomial(cls, c, power: int, order: int) -> "LaurentSeries":
        if order <= power:
            return cls.zero(order)
        return cls(power, (c,) + (0,) * (order - power - 1))

    # -- basic accessors ----------------------------------------------

    @property
    def order(self) -> int:
        return self.valuation + len(self.coeffs)

    def coeff(self, n: int):
        """Coefficient of t^n; zero below the valuation, IndexError above order."""
        if n >= self.order:
            raise IndexError(f"coefficient t^{n} beyond truncation order {self.order}")
        if n < self.valuation:
            return mpf(0)
        return self.coeffs[n - self.valuation]

    def normalize(self) -> "LaurentSeries":
        """Strip leading coefficients below 2^-(prec/2), raising the valuation."""
        thr = mpf(2) ** (-(mp.prec // 2))
        i = 0
        while i < len(self.coeffs) and abs(self.coeffs[i]) < thr:
            i += 1
        if i == len(self.coeffs):
            return LaurentSeries.zero(self.order)
        return LaurentSeries(self.valuation + i, self.coeffs[i:])

    # -- structural helpers -------------------------------------------

    def scale(self, c) -> "LaurentSeries":
        return LaurentSeries(self.valuation, tuple(c * a for a in self.coeffs))

    def __call__(self, t):
        """Evaluate by ``_horner``; real coefficients and a real t give an
        mpf, anything complex an mpc."""
        return _horner(self.coeffs, self.valuation, mp.convert(t))

    # -- ring operations ----------------------------------------------

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.valuation, tuple(-c for c in self.coeffs))

    def _combine(self, other: "LaurentSeries", op) -> "LaurentSeries":
        """op of the two coefficients of each power, each result rounded
        once, through the lower of the two orders."""
        val = min(self.valuation, other.valuation)
        order = min(self.order, other.order)
        if val >= order:
            return LaurentSeries.zero(order)
        coeffs = []
        for n in range(val, order):
            a = self.coeffs[n - self.valuation] if self.valuation <= n < self.order else 0
            b = other.coeffs[n - other.valuation] if other.valuation <= n < other.order else 0
            coeffs.append(op(a, b))
        return LaurentSeries(val, tuple(coeffs))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._combine(other, operator.add)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self._combine(other, operator.sub)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        val = self.valuation + other.valuation
        order = min(self.valuation + other.order, other.valuation + self.order)
        n = order - val
        if n <= 0 or not self.coeffs or not other.coeffs:
            return LaurentSeries.zero(order)
        return LaurentSeries(val, _mul_coeffs(self.coeffs, other.coeffs, n))

    def __truediv__(self, other: "LaurentSeries") -> "LaurentSeries":
        b = other.normalize()
        if not b.coeffs:
            raise DivisionByZeroSeries("division by a series that normalizes to zero")
        num = self.normalize()
        n = min(len(num.coeffs), len(b.coeffs))
        if n <= 0:
            return LaurentSeries.zero(num.valuation - b.valuation)
        inv = _inv_coeffs(b.coeffs, n)
        return LaurentSeries(num.valuation - b.valuation, _mul_coeffs(num.coeffs, inv, n))

    # -- transcendental operations ------------------------------------

    def exp(self) -> "LaurentSeries":
        """Formal exponential; requires no pole part (valuation >= 0 after normalize)."""
        a = self.normalize()
        order = self.order
        if order <= 0:
            return LaurentSeries.zero(order)
        if a.valuation < 0:
            raise DomainError("exp of a series with a pole part")
        c0 = a.coeff(0)
        u = [mpf(0)] * order
        for n in range(1, order):
            if a.valuation <= n < a.order:
                u[n] = a.coeffs[n - a.valuation]
        e = [mpf(0)] * order
        e[0] = mpf(1)
        for n in range(1, order):
            s = mpf(0)
            for j in range(1, n + 1):
                if u[j] != 0:
                    s += j * u[j] * e[n - j]
            e[n] = s / n
        scalar = mp.exp(c0)
        return LaurentSeries(0, tuple(scalar * c for c in e))


def _horner(coeffs, valuation, t):
    """sum_i coeffs[i] t^(valuation + i): Horner on the coefficients times
    t^valuation, the one Horner of the package (``PolyC`` calls it too).
    Real coefficients and a real t keep the arithmetic real, so the
    quadrature evaluates a real tail in real arithmetic; no coefficients give
    mpf(0)."""
    acc = coeffs[-1] if coeffs else mpf(0)
    for c in coeffs[-2::-1]:
        acc = acc * t + c
    if valuation:
        acc = acc * t ** valuation
    return acc


def _mul_coeffs(a, b, n):
    """First n coefficients of the product of the power series a and b."""
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j >= n:
                break
            out[i + j] += x * y
    return out


def _inv_coeffs(a, n):
    """First n coefficients of 1/a, for a power series a with a[0] != 0."""
    inv = [0] * n
    inv[0] = 1 / a[0]
    for k in range(1, n):
        s = 0
        for j in range(1, min(k, len(a) - 1) + 1):
            s += a[j] * inv[k - j]
        inv[k] = -s / a[0]
    return inv


def exponential_jet(c, order: int) -> LaurentSeries:
    """Jet of exp(c*t): sum_n (c t)^n / n!.

    The scalar factor is computed exactly term by term, never by formal
    composition, so constants like e^(-w*lambda) keep full accuracy.
    """
    if order <= 0:
        return LaurentSeries.zero(order)
    coeffs = [mpf(1)]
    for n in range(1, order):
        coeffs.append(coeffs[-1] * c / n)
    return LaurentSeries(0, tuple(coeffs))


def _bernoulli_jet(c, order: int) -> LaurentSeries:
    """Jet of ct / (e^{ct} - 1): sum_n B_n (c t)^n / n!, B_1 = -1/2.

    Each coefficient is an exact Bernoulli number over n! times c^n, so the
    jet is exact through its order, as ``exponential_jet`` is.
    """
    coeffs, power = [], mpf(1)
    for n in range(order):
        coeffs.append(bernoulli_over_factorial(n) * power)
        power *= c
    return LaurentSeries(0, tuple(coeffs))
