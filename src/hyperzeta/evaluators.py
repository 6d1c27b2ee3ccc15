"""Public evaluation API.

* ``zeta_direct`` sums the defining lattice series, with an Euler-Maclaurin
  tail correction applied recursively in the last omega direction so that
  tolerances far beyond naive-cutoff reach are attainable.
* ``zeta_contour`` evaluates the Hankel-contour representation with the
  1/(Gamma(s)(e^{2 pi i s}-1)) prefactor (generic s only).
* ``log_hyper_gamma`` and ``balanced_P`` evaluate the contour integrals with
  the q/S weight polynomials; integer-point zeta values are always routed
  through these, never through the singular generic-s prefactor.
* r = 0 closed forms and the classical oracles (Hurwitz zeta, log-gamma,
  Bernoulli polynomials) back the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from mpmath import mp, mpf

from . import constants
from .combinatorics import coeff_c
from .errors import ConvergenceTooSlow, InvalidParameter, TooCloseToInteger
from .hankel import IntegrandSpec, hankel_integrate
from .multibernoulli import OmegaVector
from .precision import DEFAULT_POLICY, PrecisionPolicy
from .qpoly import PolyC, q_poly, s_poly

METHOD_DIRECT = "direct_sum"
METHOD_CONTOUR = "contour"
METHOD_CLOSED = "closed_form"
METHOD_COMBINATION = "combination"


@dataclass(frozen=True)
class EvalResult:
    value: object
    err_estimate: object
    method: str


def _require_right_half(w):
    w = mp.mpc(w)
    if not mp.re(w) > 0:
        raise InvalidParameter("Re(w) > 0 is required")
    return w


# -- direct lattice summation ---------------------------------------------

_EM_LADDER = ((20, 12), (30, 14), (45, 16), (68, 18), (100, 20))


def _lattice_em(s, w, omegas, N, J):
    """Barnes zeta by head summation plus Euler-Maclaurin in the last direction."""
    if not omegas:
        return mp.power(w, -s)
    om = omegas[-1]
    rest = omegas[:-1]
    head = mp.fsum(_lattice_em(s, w + n * om, rest, N, J) for n in range(N))
    wN = w + N * om
    total = (
        head
        + _lattice_em(s - 1, wN, rest, N, J) / ((s - 1) * om)
        + _lattice_em(s, wN, rest, N, J) / 2
    )
    poch = s
    ompow = om
    for j in range(1, J + 1):
        b = constants.bernoulli_number(2 * j)
        coeff = mpf(b.numerator) / b.denominator / factorial(2 * j)
        total += coeff * ompow * poch * _lattice_em(s + 2 * j - 1, wN, rest, N, J)
        poch = poch * (s + 2 * j - 1) * (s + 2 * j)
        ompow = ompow * om * om
    return total


def zeta_direct(
    s,
    w,
    omega: OmegaVector,
    tol: float | None = None,
    p: PrecisionPolicy = DEFAULT_POLICY,
) -> EvalResult:
    """Barnes multiple zeta by summation of the defining series."""
    w = _require_right_half(w)
    tol = mpf(p.target_abs_error if tol is None else tol)
    with p.context(16):
        s = mp.mpc(s)
        if not mp.re(s) > omega.r + mpf("0.25"):
            raise InvalidParameter(
                "zeta_direct requires Re(s) > r + 0.25; use the contour instead"
            )
        prev = None
        for N, J in _EM_LADDER:
            val = _lattice_em(s, w, omega.omegas, N, J)
            if prev is not None:
                err = abs(val - prev)
                if err <= tol:
                    return EvalResult(val, err, METHOD_DIRECT)
            prev = val
        raise ConvergenceTooSlow(
            f"lattice sum did not reach tol={mp.nstr(tol, 3)} within budget"
        )


# -- contour evaluations --------------------------------------------------


def zeta_contour(
    s,
    w,
    omega: OmegaVector,
    p: PrecisionPolicy = DEFAULT_POLICY,
    lam=None,
) -> EvalResult:
    """Barnes multiple zeta from the Hankel representation (generic s)."""
    w = _require_right_half(w)
    with p.context(16):
        s = mp.mpc(s)
        nearest = mp.mpc(round(float(mp.re(s))), 0)
        if abs(s - nearest) < mpf("1e-3"):
            raise TooCloseToInteger(
                "s is within 1e-3 of an integer; use log_hyper_gamma(0, k)"
            )
        ispec = IntegrandSpec(omega=omega, w=w, k=-s, poly=PolyC((1,)))
        integral, qerr = hankel_integrate(ispec, lam, p)
        prefactor = 1 / (
            constants.gamma_scalar(s, p) * (mp.exp(2 * mp.pi * mp.mpc(0, 1) * s) - 1)
        )
        return EvalResult(prefactor * integral, abs(prefactor) * qerr, METHOD_CONTOUR)


def log_hyper_gamma(
    m: int,
    k: int,
    w,
    omega: OmegaVector,
    p: PrecisionPolicy = DEFAULT_POLICY,
    lam=None,
) -> EvalResult:
    """log of the hypermultiple gamma: m-th s-derivative of zeta_r at s = -k.

    For m = 0 this is zeta_r(-k, w; omega) itself.
    """
    if m < 0 or k < 0:
        raise InvalidParameter("log_hyper_gamma needs m, k >= 0")
    w = _require_right_half(w)
    with p.context(16):
        ispec = IntegrandSpec(omega=omega, w=w, k=k, poly=q_poly(m, k, p))
        value, qerr = hankel_integrate(ispec, lam, p)
        return EvalResult(value, qerr, METHOD_CONTOUR)


def balanced_P(
    m: int,
    k: int,
    w,
    omega: OmegaVector,
    p: PrecisionPolicy = DEFAULT_POLICY,
    method: str = METHOD_CONTOUR,
    lam=None,
) -> EvalResult:
    """The balanced function: c-weighted combination of the log gammas.

    The primary path is a single contour integral with the (k-independent)
    S polynomial; it extends to every integer k, negative indices included,
    which realizes the derivative hierarchy d/dw P(m,k) = -P(m,k-1) beyond
    k = 0.  The secondary path sums the weighted log gammas and needs k >= 0.
    """
    if m < 0:
        raise InvalidParameter("balanced_P needs m >= 0")
    w = _require_right_half(w)
    with p.context(16):
        if method == METHOD_CONTOUR:
            poly = s_poly(m, k if k >= 0 else 0, p)
            ispec = IntegrandSpec(omega=omega, w=w, k=k, poly=poly)
            value, qerr = hankel_integrate(ispec, lam, p)
            return EvalResult(value, qerr, METHOD_CONTOUR)
        if method == METHOD_COMBINATION:
            if k < 0:
                raise InvalidParameter("the combination path needs k >= 0")
            total = mp.mpc(0)
            err = mpf(0)
            for mu in range(m + 1):
                c = coeff_c(m, m - mu, k)
                if c == 0:
                    continue
                weight = mpf(c.numerator) / c.denominator
                part = log_hyper_gamma(mu, k, w, omega, p, lam)
                total += weight * part.value
                err += abs(weight) * part.err_estimate
            return EvalResult(total, err, METHOD_COMBINATION)
        raise InvalidParameter(f"unknown method {method!r}")


def p0_closed_form(m: int, k: int, w, p: PrecisionPolicy = DEFAULT_POLICY):
    """Closed form of the balanced function at r = 0:
    sum_mu c^m_{m-mu,k} (-log w)^mu w^k (from zeta_0(s, w) = w^{-s})."""
    if m < 0 or k < 0:
        raise InvalidParameter("p0_closed_form needs m, k >= 0")
    w = _require_right_half(w)
    with p.context(16):
        lw = -mp.log(w)
        wk = mp.power(w, k)
        total = mp.mpc(0)
        for mu in range(m + 1):
            c = coeff_c(m, m - mu, k)
            if c == 0:
                continue
            total += (mpf(c.numerator) / c.denominator) * lw ** mu * wk
        return total


# -- classical oracles ----------------------------------------------------


def hurwitz_oracle(s, w, p: PrecisionPolicy = DEFAULT_POLICY):
    """Hurwitz zeta(s, w) by Euler-Maclaurin; valid for all complex s != 1."""
    return constants.hurwitz_zeta(s, w, p)


def loggamma_oracle(w, p: PrecisionPolicy = DEFAULT_POLICY):
    """log Gamma(w) by shift-and-Stirling."""
    return constants.loggamma(w, p)


def bernoulli_poly_oracle(n: int, w, p: PrecisionPolicy = DEFAULT_POLICY):
    """Bernoulli polynomial B_n(w) from the exact coefficient recursion."""
    with p.context(16):
        w = mp.mpc(w)
        total = mp.mpc(0)
        wpow = mp.mpc(1)
        for q in constants.bernoulli_poly_coeffs(n):
            total += (mpf(q.numerator) / q.denominator) * wpow
            wpow *= w
        return total


# -- finite differences (hierarchy checks) --------------------------------


def derivative_fd(f, x, h, richardson: bool = True):
    """d/dx f by a 5-point central stencil, optionally Richardson-refined."""
    def stencil(step):
        return (
            -f(x + 2 * step) + 8 * f(x + step) - 8 * f(x - step) + f(x - 2 * step)
        ) / (12 * step)

    d1 = stencil(h)
    if not richardson:
        return d1
    d2 = stencil(2 * h)
    return (16 * d1 - d2) / 15
