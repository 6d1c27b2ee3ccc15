"""Asymptotic-expansion verification harness.

An experiment splits the parameter tuple into a retained part omega and an
absorbed part alpha.  The left side is the balanced function of the combined
tuple at w + a; the right side is the finite expansion

    sum_{N=-l}^{r+k} a_{l,N}(a; alpha) * P(m, k-N)(w; omega),

and the difference is the remainder, expected to decay like
(log w)^{m-1} / w.  The m = 1 remainder carries the explicit leading
coefficient a_{l,r+k+1}(a; alpha) / (omega_1 ... omega_r), which is recovered
here by Richardson extrapolation of error * w over the grid.  The right side
is one contour integral, exactly: S_m in the integrand of P(m, k-N) does not
depend on k, so the sum is P(m, k)'s integrand times sum_N a_{l,N} t^N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import mp, mpf

from .errors import FitUnstable, InvalidParameter
from .evaluators import balanced_P
from .hankel import IntegrandSpec, hankel_integrate, ray_only_integrate
from .multibernoulli import OmegaVector, bernoulli_a, bernoulli_expansion
from .precision import (
    DEFAULT_POLICY, QUADRATURE_GUARD_BITS, PrecisionPolicy, _exact, _finite, _index, _real,
)
from .qpoly import PolyC, s_poly
from .series import LaurentSeries

DEFAULT_W_GRID = (10.0, 20.0, 40.0, 80.0, 160.0)
DEFAULT_REMAINDER_TERMS = 25


@dataclass(frozen=True)
class AsymExperiment:
    omega: OmegaVector
    alpha: OmegaVector
    a: object
    m: int
    k: int
    w_grid: tuple = DEFAULT_W_GRID
    strict_statement: bool = False
    policy: PrecisionPolicy = field(default=DEFAULT_POLICY)

    def __post_init__(self):
        # a and mpf grid points keep their bits, as the periods do
        object.__setattr__(self, "a", _finite(_exact(self.a), "a"))
        object.__setattr__(self, "w_grid", tuple(_real(w, "w_grid") for w in self.w_grid))
        object.__setattr__(self, "m", _index(self.m, "m"))
        object.__setattr__(self, "k", _index(self.k, "k"))
        if self.m < 0 or self.k < 0:
            raise InvalidParameter("experiment needs m, k >= 0")
        if self.alpha.r > 0 and not mp.re(self.a) > 0:
            raise InvalidParameter("Re(a) > 0 is required when alpha is nonempty")
        if len(self.w_grid) < 4:
            raise InvalidParameter("w_grid needs at least 4 points")
        if any(b <= a for a, b in zip(self.w_grid, self.w_grid[1:])):
            raise InvalidParameter("w_grid must be strictly increasing")
        if not self.w_grid[0] > 0:
            raise InvalidParameter("w_grid needs Re(w) > 0 at every point")


@dataclass(frozen=True)
class AsymRow:
    """One grid point of an experiment.  ``normalized_error`` is
    |lhs - rhs| * w / (1 + L^(m-1)) for m >= 1 and |lhs - rhs| * w * L / (1 + L)
    for m = 0, with L = |log w|, as ``run_experiment`` computes it."""

    w: object
    lhs: object
    rhs_sum: object
    error: object
    normalized_error: object
    lhs_err: object = None
    rhs_err: object = None


@dataclass(frozen=True)
class ReductionCheck:
    contour: object
    rays: object
    contour_err: object
    rays_err: object

    @property
    def agrees(self) -> bool:
        """The two routes agree within their combined error estimates."""
        return abs(self.contour - self.rays) <= self.contour_err + self.rays_err


def default_experiment(m: int = 1, k: int = 0, **kwargs) -> AsymExperiment:
    """The suite's default: r = 1, l = 1, omega = alpha = (1), a = 1/2."""
    return AsymExperiment(
        omega=OmegaVector.of(1),
        alpha=OmegaVector.of(1),
        a=mpf(1) / 2,
        m=m,
        k=k,
        **kwargs,
    )


def rhs_expansion(e: AsymExperiment, w):
    """Finite expansion sum as one integral; returns (value, err_estimate)."""
    p = e.policy
    tail = bernoulli_expansion(e.alpha, e.a, e.omega.r + e.k + 1, p)
    ispec = IntegrandSpec(omega=e.omega, w=w, k=e.k, poly=s_poly(e.m, e.k, p), tail=tail)
    return hankel_integrate(ispec, None, p)


def lhs_value(e: AsymExperiment, w):
    """Balanced function of the combined tuple; returns (value, err_estimate).

    The shift w + a matches the exact split identity; with strict_statement
    the shift is dropped so the printed (unshifted) form can be observed.
    w keeps its bits, and w + a is taken at the integral's working precision.
    """
    arg = _exact(w)
    if not e.strict_statement:
        with e.policy.context(QUADRATURE_GUARD_BITS):
            arg += e.a
    res = balanced_P(e.m, e.k, arg, e.omega.concat(e.alpha), e.policy)
    return res.value, res.err_estimate


def run_experiment(e: AsymExperiment):
    """Rows over the grid, ordered by w."""
    rows = []
    with e.policy.context(16):
        for w in e.w_grid:
            lhs, lhs_err = lhs_value(e, w)
            rhs, rhs_err = rhs_expansion(e, w)
            error = lhs - rhs
            L = abs(mp.log(w))  # m = 0: 1 / (1 + 1/L) as L / (1 + L), which is 0 at w = 1
            norm = abs(error) * w / (1 + L ** (e.m - 1)) if e.m else abs(error) * w * L / (1 + L)
            rows.append(AsymRow(w, lhs, rhs, error, norm, lhs_err, rhs_err))
    return rows


def fit_one_over_w(e: AsymExperiment, rows=None):
    """Richardson fit of error * w at m = 1; returns (fitted, reference).

    The reference is a_{l, r+k+1}(a; alpha) / |omega|, from the leading
    coefficient of the remainder tail.
    """
    if e.m != 1:
        raise InvalidParameter("the 1/w coefficient fit applies to m = 1")
    if rows is None:
        rows = run_experiment(e)
    if len(rows) < 3:
        raise InvalidParameter(f"the 1/w fit needs at least 3 rows, got {len(rows)}")
    with e.policy.context(16):
        pts = [(row.w, row.error * row.w) for row in rows[-3:]]
        extrapolants = []
        for (w1, g1), (w2, g2) in zip(pts, pts[1:]):
            c2 = (g1 - g2) / (1 / w1 - 1 / w2)
            extrapolants.append(g2 - c2 / w2)
        r1, r2 = extrapolants
        scale = max(abs(r2), mpf("1e-30"))
        if abs(r1 - r2) > mpf("0.05") * scale:
            raise FitUnstable(
                f"extrapolants differ by {mp.nstr(abs(r1 - r2) / scale, 3)} relative"
            )
        reference = bernoulli_a(e.alpha, e.omega.r + e.k + 1, e.a, e.policy) / e.omega.product
        return r2, reference


def remainder_tail(e: AsymExperiment, terms: int = DEFAULT_REMAINDER_TERMS):
    """Truncated tail sum_{N >= r+k+1} a_{l,N}(a; alpha) t^N as a series."""
    start = e.omega.r + e.k + 1
    series = bernoulli_expansion(e.alpha, e.a, start + terms, e.policy)
    return LaurentSeries(start, series.coeffs[start - series.valuation :])


def remainder_reduction_check(
    e: AsymExperiment, w, nu: int, terms: int = DEFAULT_REMAINDER_TERMS
) -> ReductionCheck:
    """Contour vs rays for the remainder integrand with poly = (log t)^nu.

    Both sides integrate one IntegrandSpec: the contour over I(lambda, inf),
    the rays from 0 with ``ray_only_integrate``.  Its tail starts at
    t^{r+k+1}, so the integrand is regular at 0 and the two agree.
    """
    if nu < 0 or nu > e.m:
        raise InvalidParameter("need 0 <= nu <= m")
    p = e.policy
    ispec = IntegrandSpec(
        omega=e.omega, w=w, k=e.k, poly=PolyC.monomial(nu), tail=remainder_tail(e, terms)
    )
    contour, c_err = hankel_integrate(ispec, None, p)
    rays, r_err = ray_only_integrate(ispec, p)
    return ReductionCheck(contour, rays, c_err, r_err)
