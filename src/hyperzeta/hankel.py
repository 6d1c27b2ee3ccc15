"""Quadrature over the Hankel-style path I(lambda, inf).

The path runs in from +infinity to lambda on the real axis (arg t = 0), once
counterclockwise around the circle |t| = lambda, and back out to +infinity
with arg t = 2*pi.  The logarithm follows the path: log t is real on the
inbound ray, log(lambda) + i*theta on the circle, and log t + 2*pi*i on the
outbound ray.  This is the unique branch convention under which the r = 0
evaluation together with the 1/(Gamma(s)(e^{2 pi i s}-1)) prefactor
reproduces w^{-s}.

The two rays are integrated together as the difference of the outbound and
inbound integrands, so a single-valued integrand cancels exactly and only the
circle contributes.  Rays use composite Gauss-Legendre panels on a geometric
subdivision of [lambda, T]; the circle uses Gauss-Legendre panels in theta.
Error estimates come from node-doubling agreement.

``auto_spec`` is the one default path rule: lambda = 1/2 * min(pole bound,
2 pi), clamped to 12 / Re(w).  The clamp matters at large w: the circle's far
side carries e^{Re(w) lambda}, which cancels in the sum, so the guard bits grow
as 1.5 * Re(w) * lambda.  The value does not depend on lambda, so a smaller
circle costs nothing in accuracy.  The ray truncation T is chosen before the
clamp.
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
class HankelSpec:
    lam: float
    ray_truncation: float

    def validate(self, omega: OmegaVector):
        if not 0 < mpf(self.lam) < mpf("0.9") * omega.pole_bound:
            raise InvalidParameter(
                "lambda must satisfy 0 < lambda < 0.9 * min|2 pi / omega_i|"
            )
        if not mpf(self.ray_truncation) > mpf(self.lam):
            raise InvalidParameter("ray truncation must exceed lambda")


@dataclass(frozen=True)
class IntegrandSpec:
    """Integrand f_omega(t) e^{-wt} * power-part * optional tail polynomial.

    Poly mode (k, poly): power-part is t^{-k-1} * poly(log t); k may be any
    integer (negative k gives a positive power of t).  Power mode (s):
    power-part is t^{s-1}.  ``tail``, when present, multiplies the integrand
    by a truncated series in t (used for the remainder integrands).
    """

    omega: OmegaVector
    w: object
    k: int | None = None
    poly: PolyC | None = None
    s: object = None
    tail: LaurentSeries | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", mp.mpc(self.w))
        if not mp.re(self.w) > 0:
            raise InvalidParameter("integrand requires Re(w) > 0")
        poly_mode = self.k is not None and self.poly is not None
        power_mode = self.s is not None
        if poly_mode == power_mode:
            raise InvalidParameter("specify exactly one of (k, poly) or s")
        if power_mode:
            object.__setattr__(self, "s", mp.mpc(self.s))

    @property
    def is_poly_mode(self) -> bool:
        return self.s is None


def auto_spec(
    omega: OmegaVector, w, p: PrecisionPolicy = DEFAULT_POLICY
) -> HankelSpec:
    """Default path parameters for the given omega and w (rule: module docstring)."""
    w = mp.mpc(w)
    if not mp.re(w) > 0:
        raise InvalidParameter("auto_spec requires Re(w) > 0")
    with p.context():
        lam = mpf("0.5") * min(omega.pole_bound, 2 * mp.pi)
        T = max(30 / mp.re(w), 4 * lam)
        target = mpf(p.target_abs_error)
        # generic ray tail bound; hankel_integrate tightens per integrand
        while _magnitude_bound(omega, w, T) * T >= target / 10:
            T *= mpf("1.25")
    # after T, so the clamp leaves the truncation unchanged
    if mp.re(w) * lam > 12:
        lam = 12 / mp.re(w)
    return HankelSpec(lam=lam, ray_truncation=T)


def _magnitude_bound(omega: OmegaVector, w, T):
    acc = mp.exp(-mp.re(w) * T)
    for o in omega.omegas:
        acc /= abs(1 - mp.exp(-o * T))
    return acc


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
    """Caches the branch constants for one integrand."""

    def __init__(self, ispec: IntegrandSpec, pole_threshold):
        self.ispec = ispec
        self.thr = pole_threshold
        self.two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        if not ispec.is_poly_mode:
            # out-ray minus in-ray factor for t^{s-1}
            self.branch_factor = mp.exp(self.two_pi_i * ispec.s) - 1

    def base(self, t):
        return (
            _f_omega_at(self.ispec.omega, t, self.thr)
            * mp.exp(-self.ispec.w * t)
            * _tail_at(self.ispec, t)
        )

    def ray(self, t):
        """Outbound-minus-inbound integrand at real t > 0."""
        ispec = self.ispec
        logt = mp.log(t)
        if ispec.is_poly_mode:
            diff = ispec.poly(logt + self.two_pi_i) - ispec.poly(logt)
            if diff == 0:
                return mp.mpc(0)
            return self.base(t) * mp.power(t, -ispec.k - 1) * diff
        return self.base(t) * mp.exp((ispec.s - 1) * logt) * self.branch_factor

    def ray_magnitude(self, t):
        """Crude magnitude of the one-sided ray integrand (for tail bounds)."""
        ispec = self.ispec
        logt = mp.log(t)
        base = abs(self.base(t))
        if ispec.is_poly_mode:
            span = abs(ispec.poly(logt + self.two_pi_i)) + abs(ispec.poly(logt)) + 1
            return base * mp.power(t, -ispec.k - 1) * span
        return base * abs(mp.exp((ispec.s - 1) * logt)) * (abs(self.branch_factor) + 1)

    def circle(self, theta, lam):
        ispec = self.ispec
        t = lam * mp.exp(mp.mpc(0, 1) * theta)
        logt = mp.log(lam) + mp.mpc(0, 1) * theta
        base = (
            _f_omega_at(ispec.omega, t, self.thr)
            * mp.exp(-ispec.w * t)
            * _tail_at(ispec, t)
            * mp.mpc(0, 1)
            * t
        )
        if ispec.is_poly_mode:
            return base * mp.exp(-(ispec.k + 1) * logt) * ispec.poly(logt)
        return base * mp.exp((ispec.s - 1) * logt)


def _geometric_edges(a, b, subdiv: int):
    """Panel edges from a to b: geometric doubling, each split subdiv times."""
    edges = [mpf(a)]
    x = mpf(a)
    while x < b:
        nxt = min(2 * x, mpf(b))
        ratio = nxt / x
        for i in range(1, subdiv + 1):
            edges.append(x * ratio ** (mpf(i) / subdiv))
        x = nxt
    edges[-1] = mpf(b)
    return edges


def _extend_truncation(ev: _ContourEvaluator, T, target):
    T = mpf(T)
    for _ in range(500):
        if ev.ray_magnitude(T) * T < target / 10:
            return T
        T *= mpf("1.25")
    raise NodeBudgetExceeded("could not find a ray truncation meeting the target")


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
    hspec: HankelSpec | None = None,
    p: PrecisionPolicy = DEFAULT_POLICY,
):
    """Integral over I(lambda, inf); returns (value, err_estimate)."""
    if hspec is None:
        hspec = auto_spec(ispec.omega, ispec.w, p)
    hspec.validate(ispec.omega)
    lam = mpf(hspec.lam)
    # absorb the e^{w*lam} cancellation on the far side of the circle
    boost = int(mpf("1.5") * max(0, mp.re(ispec.w) * lam)) + 48
    boost = ((boost // 32) + 1) * 32
    with p.context(boost):
        thr = p.zero_threshold
        ev = _ContourEvaluator(ispec, thr)
        target = mpf(p.target_abs_error)
        T = _extend_truncation(ev, hspec.ray_truncation, target)
        prec = mp.prec

        def attempt(level: int):
            pieces = []
            for a, b in _pairwise(_geometric_edges(lam, T, 2 ** level)):
                pieces.append(_gl_panel(ev.ray, a, b, RAY_NODES, prec))
            circ_panels = (CIRCLE_NODES // RAY_NODES) * 2 ** level
            h = 2 * mp.pi / circ_panels
            for i in range(circ_panels):
                pieces.append(
                    _gl_panel(
                        lambda th: ev.circle(th, lam),
                        i * h,
                        (i + 1) * h,
                        RAY_NODES,
                        prec,
                    )
                )
            return mp.fsum(pieces)

        return _double_until(attempt, target, ev.ray_magnitude(T) * T)


def ray_only_integrate(
    ispec: IntegrandSpec,
    D: int,
    p: PrecisionPolicy = DEFAULT_POLICY,
):
    """Real-axis integral int_0^inf f_omega e^{-wt} tail(t) t^{-k-1} (log t)^D dt.

    Requires a tail with valuation high enough that the integrand is regular
    at t = 0.  Returns (value, err_estimate).
    """
    if ispec.tail is None or not ispec.is_poly_mode:
        raise InvalidParameter("ray_only_integrate needs poly mode with a tail series")
    if ispec.tail.valuation - ispec.k - 1 - ispec.omega.r < 0:
        raise InvalidParameter("tail valuation leaves a singular integrand at 0")
    hspec = auto_spec(ispec.omega, ispec.w, p)
    with p.context(48):
        thr = p.zero_threshold
        target = mpf(p.target_abs_error)

        def without_log(t):
            return (
                _f_omega_at(ispec.omega, t, thr)
                * mp.exp(-ispec.w * t)
                * ispec.tail(t)
                * mp.power(t, -ispec.k - 1)
            )

        def integrand(t):
            val = without_log(t)
            return val * mp.log(t) ** D if D else val

        def head_bound(eps):
            # bound (log t)^D by its size at eps, never below 1: a sample of
            # the full integrand is 0 at t = 1 for every D >= 1
            return abs(without_log(eps)) * max(1, abs(mp.log(eps))) ** D * eps * 4

        ev = _ContourEvaluator(ispec, thr)
        T = _extend_truncation(ev, hspec.ray_truncation, target)
        eps = mpf(hspec.lam)
        while head_bound(eps) >= target / 10 and eps > mpf("1e-60"):
            eps /= 4
        tail_bound = ev.ray_magnitude(T) * T + head_bound(eps)
        prec = mp.prec

        def attempt(level: int):
            return mp.fsum(
                _gl_panel(integrand, a, b, RAY_NODES, prec)
                for a, b in _pairwise(_geometric_edges(eps, T, 2 ** level))
            )

        return _double_until(attempt, target, tail_bound)


def _pairwise(seq):
    return zip(seq[:-1], seq[1:])
