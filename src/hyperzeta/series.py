"""Truncated Laurent series ("jets") with complex coefficients.

A series stores the coefficients of ``t^(valuation) .. t^(order-1)`` densely.
Every operation is pure and works at the ambient mpmath precision, so callers
are expected to run inside ``PrecisionPolicy.context()``.  Truncation orders
follow the usual jet rules: the result is only claimed up to the order both
operands support.

The power-series kernel is one pair of loops, ``_mul_coeffs`` (truncated
convolution) and ``_inv_coeffs`` (inverse of a unit series).  Their
accumulators start at the integer 0, so they work on ``mpc`` and on
``Fraction`` coefficients alike: ``LaurentSeries`` multiplies and divides with
them, and the exact rational path (``combinatorics.gen_F``,
``multibernoulli.bernoulli_a_exact``) uses the same loops.  They stay private
because the benchmark tracer wraps every public function.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import DivisionByZeroSeries, DomainError


def _default_threshold():
    return mpf(2) ** (-(mp.prec // 2))


@dataclass(frozen=True)
class LaurentSeries:
    valuation: int
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(mp.mpc(c) for c in self.coeffs))

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
            return mp.mpc(0)
        return self.coeffs[n - self.valuation]

    def normalize(self, threshold=None) -> "LaurentSeries":
        """Strip leading coefficients below the zero threshold, raising the valuation."""
        thr = _default_threshold() if threshold is None else threshold
        i = 0
        while i < len(self.coeffs) and abs(self.coeffs[i]) < thr:
            i += 1
        if i == len(self.coeffs):
            return LaurentSeries.zero(self.order)
        return LaurentSeries(self.valuation + i, self.coeffs[i:])

    # -- structural helpers -------------------------------------------

    def scale(self, c) -> "LaurentSeries":
        c = mp.mpc(c)
        return LaurentSeries(self.valuation, tuple(c * a for a in self.coeffs))

    def truncate(self, order: int) -> "LaurentSeries":
        if order >= self.order:
            return self
        n = max(0, order - self.valuation)
        if n == 0:
            return LaurentSeries.zero(order)
        return LaurentSeries(self.valuation, self.coeffs[:n])

    def __call__(self, t):
        """Evaluate by Horner on the unit part times t^valuation."""
        t = mp.mpc(t)
        acc = mp.mpc(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        if self.valuation:
            acc = acc * t ** self.valuation
        return acc

    # -- ring operations ----------------------------------------------

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.valuation, tuple(-c for c in self.coeffs))

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        val = min(self.valuation, other.valuation)
        order = min(self.order, other.order)
        if val >= order:
            return LaurentSeries.zero(order)
        coeffs = []
        for n in range(val, order):
            a = self.coeffs[n - self.valuation] if self.valuation <= n < self.order else 0
            b = other.coeffs[n - other.valuation] if other.valuation <= n < other.order else 0
            coeffs.append(mp.mpc(a) + mp.mpc(b))
        return LaurentSeries(val, tuple(coeffs))

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

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
        c0 = a.coeff(0) if a.valuation <= 0 < a.order else mp.mpc(0)
        u = [mp.mpc(0)] * order
        for n in range(1, order):
            if a.valuation <= n < a.order:
                u[n] = a.coeffs[n - a.valuation]
        e = [mp.mpc(0)] * order
        e[0] = mp.mpc(1)
        for n in range(1, order):
            s = mp.mpc(0)
            for j in range(1, n + 1):
                if u[j] != 0:
                    s += j * u[j] * e[n - j]
            e[n] = s / n
        scalar = mp.exp(c0)
        return LaurentSeries(0, tuple(scalar * c for c in e))


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
    c = mp.mpc(c)
    coeffs = [mp.mpc(1)]
    for n in range(1, order):
        coeffs.append(coeffs[-1] * c / n)
    return LaurentSeries(0, tuple(coeffs))

