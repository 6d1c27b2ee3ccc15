"""Quadrature over the Hankel-style path I(lambda, inf).

The path runs in from +infinity to lambda on the real axis (arg t = 0), once
counterclockwise around the circle |t| = lambda, and back out to +infinity
with arg t = 2*pi.  The logarithm follows the path: log t is real on the
inbound ray, log(lambda) + i*theta on the circle, and log t + 2*pi*i on the
outbound ray.  This is the unique branch convention under which the r = 0
evaluation together with the 1/(Gamma(s)(e^{2 pi i s}-1)) prefactor
reproduces w^{-s}.

Every integrand has one form, f_omega(t) e^{-wt} t^{-k-1} poly(log t), times
an optional tail series in t.  k is an integer or complex: the Barnes zeta at
s is k = -s with poly = 1.  On the outbound ray t^{-k-1} carries the jump
e^{-2 pi i k}, exactly 1 for integer k.

The two rays are integrated together as the difference of the outbound and
inbound integrands, so a single-valued integrand cancels exactly and only the
circle contributes.  Rays use composite Gauss-Legendre panels on a geometric
subdivision of [lambda, T]; the circle uses Gauss-Legendre panels in theta.
Error estimates come from node-doubling agreement plus the ray end bounds.

The path is (lambda, T), and each has one rule.  ``auto_spec`` gives the
default lambda = 1/2 * min(pole bound, 2 pi), clamped to 12 / Re(w).  The
clamp matters at large w: the circle's far side carries e^{Re(w) lambda},
which cancels in the sum, so the guard bits grow as 1.5 * Re(w) * lambda.  The
value does not depend on lambda, so a smaller circle costs nothing in
accuracy.

Both ends of a ray have one truncation rule: move t by a fixed factor until
the bound |integrand|(t) * t is below target / 10, and add that bound to the
estimate.  The far end T starts at max(30 / Re(w), 2 * lambda) and grows by
1.25.  ``ray_only_integrate`` integrates the same outbound-minus-inbound ray
integrand from 0 instead of from lambda, with no circle; its near end eps
starts at lambda and shrinks by 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf

from .errors import InvalidParameter, NodeBudgetExceeded, PolesTooClose
from .multibernoulli import OmegaVector
from .precision import DEFAULT_POLICY, PrecisionPolicy
from .qpoly import PolyC
from .series import LaurentSeries

MAX_DOUBLINGS = 7
# Gauss-Legendre nodes per panel, and the circle's node total before doubling
RAY_NODES = 32
CIRCLE_NODES = 256


@dataclass(frozen=True)
class IntegrandSpec:
    """Integrand f_omega(t) e^{-wt} t^{-k-1} poly(log t), times tail(t) if given.

    ``k`` is an integer (negative k gives a positive power of t) or complex;
    the Barnes zeta at s is k = -s with poly = 1.  ``tail`` multiplies the
    integrand by a truncated series in t (the expansion and remainder
    integrands).
    """

    omega: OmegaVector
    w: object
    k: object
    poly: PolyC
    tail: LaurentSeries | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", mp.mpc(self.w))
        if not mp.re(self.w) > 0:
            raise InvalidParameter("integrand requires Re(w) > 0")
        if not isinstance(self.k, int):
            object.__setattr__(self, "k", mp.mpc(self.k))


def auto_spec(omega: OmegaVector, w, p: PrecisionPolicy = DEFAULT_POLICY):
    """Default circle radius lambda for omega and w (rule: module docstring)."""
    w = mp.mpc(w)
    if not mp.re(w) > 0:
        raise InvalidParameter("auto_spec requires Re(w) > 0")
    with p.context():
        lam = mpf("0.5") * min(omega.pole_bound, 2 * mp.pi)
    return min(lam, 12 / mp.re(w))


def _check_lambda(lam, omega: OmegaVector):
    """lam as an mpf, if 0 < lam < 0.9 * pole bound; else InvalidParameter."""
    lam = mpf(lam)
    if not 0 < lam < mpf("0.9") * omega.pole_bound:
        raise InvalidParameter(
            "lambda must satisfy 0 < lambda < 0.9 * min|2 pi / omega_i|"
        )
    return lam


@lru_cache(maxsize=None)
def _legendre_nodes(n: int, prec: int):
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton iteration."""
    with mp.workprec(prec + 32):
        nodes = []
        for i in range(n):
            x = mp.cos(mp.pi * (i + mpf("0.75")) / (n + mpf("0.5")))
            for _ in range(100):
                pn, dpn = _legendre_eval(n, x)
                dx = pn / dpn
                x -= dx
                if abs(dx) < mpf(2) ** (-prec - 8):
                    break
            pn, dpn = _legendre_eval(n, x)
            wgt = 2 / ((1 - x * x) * dpn * dpn)
            nodes.append((x, wgt))
        return tuple(nodes)


def _legendre_eval(n: int, x):
    p0, p1 = mpf(1), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    dp = n * (x * p1 - p0) / (x * x - 1)
    return p1, dp


def _gl_panel(f, a, b, n, prec):
    half = (b - a) / 2
    mid = (a + b) / 2
    return half * mp.fsum(
        wgt * f(mid + half * x) for x, wgt in _legendre_nodes(n, prec)
    )


def _f_omega_at(omega: OmegaVector, t, threshold):
    acc = mp.mpc(1)
    for o in omega.omegas:
        d = 1 - mp.exp(-o * t)
        if abs(d) < threshold:
            raise PolesTooClose(
                f"|1 - e^(-omega t)| = {mp.nstr(abs(d), 5)} at t = {mp.nstr(t, 5)}"
            )
        acc /= d
    return acc


def _tail_at(ispec: IntegrandSpec, t):
    return ispec.tail(t) if ispec.tail is not None else mp.mpc(1)


class _ContourEvaluator:
    """The integrand of one IntegrandSpec on each part of the path."""

    def __init__(self, ispec: IntegrandSpec, pole_threshold):
        self.ispec = ispec
        self.thr = pole_threshold
        self.two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        # t^{-k-1} on the outbound ray over t^{-k-1} on the inbound ray
        k = ispec.k
        self.jump = 1 if isinstance(k, int) else mp.exp(-self.two_pi_i * k)

    def _weight(self, t):
        """f_omega(t) e^{-wt} tail(t), the factor every part of the path shares."""
        ispec = self.ispec
        return (
            _f_omega_at(ispec.omega, t, self.thr)
            * mp.exp(-ispec.w * t)
            * _tail_at(ispec, t)
        )

    def base(self, t):
        """f_omega(t) e^{-wt} tail(t) t^{-k-1} on the inbound ray (real t > 0)."""
        return self._weight(t) * mp.power(t, -self.ispec.k - 1)

    def ray(self, t):
        """Outbound-minus-inbound integrand at real t > 0."""
        poly = self.ispec.poly
        logt = mp.log(t)
        diff = self.jump * poly(logt + self.two_pi_i) - poly(logt)
        if diff == 0:
            return mp.mpc(0)
        return self.base(t) * diff

    def ray_magnitude(self, t):
        """Crude magnitude of the one-sided ray integrands (for tail bounds)."""
        poly = self.ispec.poly
        logt = mp.log(t)
        span = abs(self.jump * poly(logt + self.two_pi_i)) + abs(poly(logt)) + 1
        return abs(self.base(t)) * span

    def circle(self, theta, lam):
        ispec = self.ispec
        t = lam * mp.exp(mp.mpc(0, 1) * theta)
        logt = mp.log(lam) + mp.mpc(0, 1) * theta
        return (
            self._weight(t)
            * mp.mpc(0, 1)
            * t
            * mp.exp(-(ispec.k + 1) * logt)
            * ispec.poly(logt)
        )


def _ray_end(ev: _ContourEvaluator, t, factor, target):
    """Move t by factor until the bound ray_magnitude(t) * t is below
    target / 10 (rule: module docstring); returns (t, bound)."""
    for _ in range(500):
        bound = ev.ray_magnitude(t) * t
        if bound < target / 10:
            return t, bound
        t *= factor
    raise NodeBudgetExceeded("could not find a ray truncation meeting the target")


def _ray_panels(f, a, b, level: int, prec: int):
    """Integral of f over [a, b] by Gauss-Legendre panels: the interval is cut
    into doublings from a, and each doubling into 2**level geometric panels."""
    subdiv = 2 ** level
    edges = [mpf(a)]
    x = mpf(a)
    while x < b:
        nxt = min(2 * x, mpf(b))
        ratio = nxt / x
        for i in range(1, subdiv + 1):
            edges.append(x * ratio ** (mpf(i) / subdiv))
        x = nxt
    edges[-1] = mpf(b)
    return mp.fsum(
        _gl_panel(f, lo, hi, RAY_NODES, prec) for lo, hi in zip(edges, edges[1:])
    )


def _double_until(attempt, target, tail_bound):
    """Call attempt(level) for level = 0, 1, ... (each doubling the panels)
    until two successive values agree to within target, tail bound included;
    returns (value, err_estimate)."""
    prev = None
    for level in range(MAX_DOUBLINGS):
        val = attempt(level)
        if prev is not None:
            err = abs(val - prev) + tail_bound
            if err <= target:
                return val, err
        prev = val
    raise NodeBudgetExceeded(f"node doubling failed to reach {mp.nstr(target, 3)}")


def hankel_integrate(
    ispec: IntegrandSpec,
    lam=None,
    p: PrecisionPolicy = DEFAULT_POLICY,
):
    """Integral over I(lambda, inf); returns (value, err_estimate).

    ``lam`` defaults to ``auto_spec``'s radius; it must satisfy
    0 < lam < 0.9 * pole bound.
    """
    if lam is None:
        lam = auto_spec(ispec.omega, ispec.w, p)
    lam = _check_lambda(lam, ispec.omega)
    # absorb the e^{w*lam} cancellation on the far side of the circle
    boost = int(mpf("1.5") * max(0, mp.re(ispec.w) * lam)) + 48
    boost = ((boost // 32) + 1) * 32
    with p.context(boost):
        ev = _ContourEvaluator(ispec, p.zero_threshold)
        target = mpf(p.target_abs_error)
        T, tail_bound = _ray_end(
            ev, max(30 / mp.re(ispec.w), 2 * lam), mpf("1.25"), target
        )
        prec = mp.prec

        def circle(theta):
            return ev.circle(theta, lam)

        def attempt(level: int):
            panels = (CIRCLE_NODES // RAY_NODES) * 2 ** level
            h = 2 * mp.pi / panels
            around = mp.fsum(
                _gl_panel(circle, i * h, (i + 1) * h, RAY_NODES, prec)
                for i in range(panels)
            )
            return _ray_panels(ev.ray, lam, T, level, prec) + around

        return _double_until(attempt, target, tail_bound)


def ray_only_integrate(ispec: IntegrandSpec, p: PrecisionPolicy = DEFAULT_POLICY):
    """The contour's ray integrand integrated over [0, inf) with no circle:

        int_0^inf f_omega e^{-wt} tail(t) t^{-k-1}
                  (poly(log t + 2 pi i) - poly(log t)) dt.

    By Cauchy's theorem this equals ``hankel_integrate(ispec)`` when the
    integrand is regular at t = 0, which the two checks below ensure: an
    integer k, and a tail whose valuation is at least k + 1 + r.  The ray is
    cut to [eps, T] by the rule in the module docstring, and both end bounds
    go into the estimate.  Returns (value, err_estimate).

    With an integer k the jump is 1, so a constant poly has the ray
    difference 0 identically, and the integral is exactly (0, 0).
    """
    if ispec.tail is None or not isinstance(ispec.k, int):
        raise InvalidParameter("ray_only_integrate needs an integer k and a tail series")
    if ispec.tail.valuation - ispec.k - 1 - ispec.omega.r < 0:
        raise InvalidParameter("tail valuation leaves a singular integrand at 0")
    if ispec.poly.degree <= 0:
        return mp.mpc(0), mpf(0)
    lam = auto_spec(ispec.omega, ispec.w, p)
    with p.context(48):
        ev = _ContourEvaluator(ispec, p.zero_threshold)
        target = mpf(p.target_abs_error)
        T, tail_bound = _ray_end(
            ev, max(30 / mp.re(ispec.w), 2 * lam), mpf("1.25"), target
        )
        eps, head_bound = _ray_end(ev, lam, mpf("0.25"), target)
        prec = mp.prec
        return _double_until(
            lambda level: _ray_panels(ev.ray, eps, T, level, prec),
            target,
            tail_bound + head_bound,
        )
