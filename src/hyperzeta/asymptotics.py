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
from math import comb

from mpmath import mp, mpf

from .errors import FitUnstable, InvalidParameter
from .hankel import IntegrandSpec, hankel_integrate, ray_only_integrate
from .multibernoulli import OmegaVector, bernoulli_expansion
from .precision import DEFAULT_POLICY, PrecisionPolicy
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
        object.__setattr__(self, "a", mp.mpc(self.a))
        object.__setattr__(self, "w_grid", tuple(mpf(w) for w in self.w_grid))
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


def _absorbed_expansion(e: AsymExperiment, start: int, stop: int) -> LaurentSeries:
    """sum_{start <= N < stop} a_{l,N}(a; alpha) t^N, from one expansion."""
    expansion = bernoulli_expansion(e.alpha, e.a, stop, e.policy)
    return LaurentSeries(start, tuple(map(expansion.coefficient, range(start, stop))))


def rhs_expansion(e: AsymExperiment, w):
    """Finite expansion sum as one integral; returns (value, err_estimate)."""
    p = e.policy
    with p.context(16):
        tail = _absorbed_expansion(e, -e.alpha.r, e.omega.r + e.k + 1)
        poly = s_poly(e.m, e.k, p)
        ispec = IntegrandSpec(omega=e.omega, w=w, k=e.k, poly=poly, tail=tail)
        return hankel_integrate(ispec, None, p)


def lhs_value(e: AsymExperiment, w):
    """Balanced function of the combined tuple; returns (value, err_estimate).

    The shift w + a matches the exact split identity; with strict_statement
    the shift is dropped so the printed (unshifted) form can be observed.
    """
    p = e.policy
    with p.context(16):
        arg = mp.mpc(w) if e.strict_statement else mp.mpc(w) + e.a
        if not mp.re(arg) > 0:
            raise InvalidParameter("Re(w + a) > 0 required")
        combined = e.omega.concat(e.alpha)
        ispec = IntegrandSpec(omega=combined, w=arg, k=e.k, poly=s_poly(e.m, e.k, p))
        return hankel_integrate(ispec, None, p)


def run_experiment(e: AsymExperiment):
    """Rows over the grid, ordered by w."""
    rows = []
    with e.policy.context(16):
        for w in e.w_grid:
            lhs, lhs_err = lhs_value(e, w)
            rhs, rhs_err = rhs_expansion(e, w)
            error = lhs - rhs
            norm = abs(error) * w / (1 + abs(mp.log(w)) ** (e.m - 1))
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
        reference = remainder_tail(e, 1).coeffs[0] / e.omega.product
        return r2, reference


def remainder_tail(e: AsymExperiment, terms: int = DEFAULT_REMAINDER_TERMS):
    """Truncated tail sum_{N >= r+k+1} a_{l,N}(a; alpha) t^N as a series."""
    start = e.omega.r + e.k + 1
    return _absorbed_expansion(e, start, start + terms)


def remainder_reduction_check(
    e: AsymExperiment, w, nu: int, terms: int = DEFAULT_REMAINDER_TERMS
) -> ReductionCheck:
    """Contour vs ray-sum evaluation of the remainder integrand with (log t)^nu.

    The contour side integrates over I(lambda, inf); the ray side uses the
    binomial reduction sum_{D<nu} C(nu, D) (2 pi i)^{nu-D} * (real-axis
    integral with (log t)^D).  Both use the same truncated tail.
    """
    if nu < 0 or nu > e.m:
        raise InvalidParameter("need 0 <= nu <= m")
    p = e.policy
    with p.context(16):
        tail = remainder_tail(e, terms)
        ispec = IntegrandSpec(
            omega=e.omega, w=mp.mpc(w), k=e.k, poly=PolyC.monomial(nu), tail=tail
        )
        contour, c_err = hankel_integrate(ispec, None, p)
        rays = mp.mpc(0)
        r_err = mpf(0)
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        for D in range(nu):
            val, err = ray_only_integrate(ispec, D, p)
            factor = comb(nu, D) * two_pi_i ** (nu - D)
            rays += factor * val
            r_err += abs(factor) * err
        return ReductionCheck(contour, rays, c_err, r_err)
