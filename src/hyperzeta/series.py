"""Truncated Laurent series ("jets") with complex coefficients.

A series stores the coefficients of ``t^(valuation) .. t^(order-1)`` densely.
Every operation is pure and works at the ambient mpmath precision, so callers
are expected to run inside ``PrecisionPolicy.context()``.  Truncation orders
follow the usual jet rules: the result is only claimed up to the order both
operands support.
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
        return cls.constant(1, order)

    @classmethod
    def constant(cls, c, order: int) -> "LaurentSeries":
        if order <= 0:
            return cls.zero(order)
        return cls(0, (c,) + (0,) * (order - 1))

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

    def pad_to(self, order: int) -> "LaurentSeries":
        if order <= self.order:
            return self
        return LaurentSeries(
            self.valuation, self.coeffs + (0,) * (order - self.order)
        )

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
        out = [mp.mpc(0)] * n
        for i, a in enumerate(self.coeffs):
            if i >= n:
                break
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                out[i + j] += a * b
        return LaurentSeries(val, tuple(out))

    def __truediv__(self, other: "LaurentSeries") -> "LaurentSeries":
        b = other.normalize()
        if not b.coeffs:
            raise DivisionByZeroSeries("division by a series that normalizes to zero")
        num = self.normalize()
        n = min(len(num.coeffs), len(b.coeffs))
        if n <= 0:
            return LaurentSeries.zero(num.valuation - b.valuation)
        inv = _invert_unit(b.coeffs, n)
        out = [mp.mpc(0)] * n
        for i in range(n):
            a = num.coeffs[i]
            if a == 0:
                continue
            for j in range(n - i):
                out[i + j] += a * inv[j]
        return LaurentSeries(num.valuation - b.valuation, tuple(out))

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

    def log(self) -> "LaurentSeries":
        """Formal logarithm; requires a nonzero constant term."""
        a = self.normalize()
        if a.valuation != 0 or not a.coeffs:
            raise DomainError("log requires a series with nonzero constant term")
        c0 = a.coeffs[0]
        order = len(a.coeffs)
        u = [a.coeffs[n] / c0 for n in range(order)]
        l = [mp.mpc(0)] * order
        l[0] = mp.log(c0)
        for n in range(1, order):
            s = mp.mpc(0)
            for j in range(1, n):
                s += j * l[j] * u[n - j]
            l[n] = u[n] - s / n
        return LaurentSeries(0, tuple(l))


def _invert_unit(coeffs, n):
    """Inverse of a unit power series (nonzero constant term), n terms."""
    c0 = coeffs[0]
    inv = [mp.mpc(0)] * n
    inv[0] = 1 / c0
    for k in range(1, n):
        s = mp.mpc(0)
        for j in range(1, k + 1):
            if j < len(coeffs):
                s += coeffs[j] * inv[k - j]
        inv[k] = -s / c0
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

