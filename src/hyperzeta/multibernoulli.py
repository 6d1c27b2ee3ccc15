"""Multiple Bernoulli polynomials via the Laurent expansion of
e^{-wt} / prod_i (1 - e^{-omega_i t}).

The coefficient of t^N in that expansion is a_{r,N}(w; omega).  The float
path runs through the jet engine; an exact Fraction path is provided for
rational parameters so the tests can compare against exact values.  Both
paths multiply and invert with the same loops, ``series._mul_coeffs`` and
``series._inv_coeffs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from mpmath import mp

from .errors import InvalidParameter
from .precision import DEFAULT_POLICY, PrecisionPolicy
from .series import LaurentSeries, _inv_coeffs, _mul_coeffs, exponential_jet


@dataclass(frozen=True)
class OmegaVector:
    """The parameter tuple omega = (omega_1, ..., omega_r), Re(omega_i) > 0."""

    omegas: tuple

    def __post_init__(self):
        vals = tuple(mp.mpc(o) for o in self.omegas)
        for o in vals:
            if not mp.re(o) > 0:
                raise InvalidParameter("every omega_i must have positive real part")
        object.__setattr__(self, "omegas", vals)

    @classmethod
    def of(cls, *omegas) -> "OmegaVector":
        return cls(tuple(omegas))

    @property
    def r(self) -> int:
        return len(self.omegas)

    @property
    def product(self):
        acc = mp.mpc(1)
        for o in self.omegas:
            acc *= o
        return acc

    @property
    def pole_bound(self):
        """min_i |2 pi / omega_i|; infinite for the empty tuple."""
        if not self.omegas:
            return mp.inf
        return min(abs(2 * mp.pi / o) for o in self.omegas)

    def concat(self, other: "OmegaVector") -> "OmegaVector":
        return OmegaVector(self.omegas + other.omegas)

    def drop_last(self) -> "OmegaVector":
        if not self.omegas:
            raise InvalidParameter("cannot drop from an empty omega vector")
        return OmegaVector(self.omegas[:-1])


@dataclass(frozen=True)
class BernoulliExpansion:
    base: OmegaVector
    w: object
    series: LaurentSeries

    def coefficient(self, N: int):
        """a_{r,N}(w; omega)."""
        if N < -self.base.r:
            raise IndexError(f"index {N} below the valuation {-self.base.r}")
        return self.series.coeff(N)


def f_omega_series(
    omega: OmegaVector, order: int, p: PrecisionPolicy = DEFAULT_POLICY
) -> LaurentSeries:
    """Laurent series of prod_i 1/(1 - e^{-omega_i t}), valuation -r."""
    r = omega.r
    if order <= -r:
        raise InvalidParameter("order must exceed the valuation -r")
    with p.context(16):
        work = order + r + 2
        acc = LaurentSeries.one(work)
        for o in omega.omegas:
            acc = acc * _one_factor(o, work)
        return acc.truncate(order)


def _one_factor(o, work: int) -> LaurentSeries:
    # 1/(1 - e^{-o t}) = 1/(o t) * [o t / (1 - e^{-o t})], via series inversion
    one_minus = LaurentSeries.one(work) - exponential_jet(-o, work)
    return LaurentSeries.one(work) / one_minus


def bernoulli_expansion(
    omega: OmegaVector, w, order: int, p: PrecisionPolicy = DEFAULT_POLICY
) -> BernoulliExpansion:
    """Expansion of e^{-wt} * f_omega(t); coefficient N is a_{r,N}(w; omega)."""
    r = omega.r
    if order <= -r:
        raise InvalidParameter("order must exceed the valuation -r")
    with p.context(16):
        work = order + r + 2
        series = (f_omega_series(omega, work, p) * exponential_jet(-mp.mpc(w), work + r)).truncate(order)
        return BernoulliExpansion(omega, mp.mpc(w), series)


def bernoulli_a(
    omega: OmegaVector, N: int, w, p: PrecisionPolicy = DEFAULT_POLICY
):
    """Single multiple Bernoulli polynomial value a_{r,N}(w; omega)."""
    if N < -omega.r:
        raise IndexError(f"index {N} below the valuation {-omega.r}")
    return bernoulli_expansion(omega, w, N + 1, p).coefficient(N)


# -- exact rational path (test oracle) ------------------------------------


@lru_cache(maxsize=None)
def _f_omega_rational(omegas: tuple, order: int):
    """Unit-part coefficients of prod 1/(1-e^{-omega t}) for Fraction omegas.

    Returns the coefficients of t^{-r} .. t^{order-1} as Fractions.
    """
    r = len(omegas)
    work = order + r
    unit = [Fraction(1)] + [Fraction(0)] * (work - 1)
    for o in omegas:
        # (1 - e^{-o t}) / t = o - o^2 t/2! + o^3 t^2/3! - ...
        factor = [
            Fraction((-1) ** n) * o ** (n + 1) / factorial(n + 1)
            for n in range(work)
        ]
        unit = _mul_coeffs(unit, _inv_coeffs(factor, work), work)
    return tuple(unit)


def bernoulli_a_exact(omegas, N: int, w) -> Fraction:
    """Exact a_{r,N}(w; omega) for rational omegas and w."""
    omegas = tuple(Fraction(o) for o in omegas)
    w = Fraction(w)
    r = len(omegas)
    if N < -r:
        raise IndexError(f"index {N} below the valuation {-r}")
    n_terms = N + r + 1
    unit = list(_f_omega_rational(omegas, n_terms))[:n_terms]
    expw = [Fraction((-w) ** n, factorial(n)) for n in range(n_terms)]
    out = _mul_coeffs(unit, expw, n_terms)
    return out[N + r]
