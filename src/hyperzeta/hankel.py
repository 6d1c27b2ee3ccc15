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
circle contributes.  Rays use panels on a geometric subdivision of [lambda, T];
the circle uses panels in theta.  Every panel is integrated once at the 65
nodes of the Gauss-Kronrod rule that extends 32-point Gauss-Legendre (Laurie,
Math. Comp. 66, 1997), which gives both the Kronrod value K65 and the Gauss
value G32 of its 32 Gauss nodes.

The first pass is coarse: one ray panel per factor RAY_PANEL_FACTOR = 4 in t
from lambda, and the circle at level 0, CIRCLE_PANELS = 4 panels.  Then one
driver, ``_refine_worst``, refines globally in the way of QUADPACK's QAG
(Piessens et al., 1983): while the sum of |K65 - G32| over the parts plus the
ray end bounds is above the target, the part with the largest |K65 - G32| is
refined.  A ray panel is bisected at sqrt(ab) in t; the circle moves to its
next level, 4 * 2^L panels at level L.  The K65 sum is returned, with that
sum as its estimate.  A part that would pass depth MAX_LEVELS - 1 raises
NodeBudgetExceeded.  The circle's depth is its level; a ray panel's is its
level in the schedule that cuts each doubling into 2^L panels at level L, so
a first-pass panel spanning two doublings starts at -1, and the finest ray
panel spans a factor 2^(1/32) in t.  So even an integral that never
converges evaluates no more ray panels than that schedule's levels
0..MAX_LEVELS-1, plus one for each first-pass panel that spans two
doublings, and half as many circle panels per level (4 * 2^L, not 8 * 2^L).

The path is (lambda, T), and each has one rule.  ``auto_spec`` gives the
default lambda = 1/4 * min(pole bound, 2 pi), clamped to 6 / Re(w).  The poles
of f_omega then lie at |t| >= 4 lambda, so as far as the poles limit it, 4
circle panels give G32 about 1e-37 relative at level 0: in theta the nearest
pole is log 4 from the real axis, a Bernstein rho of about 3.8 per panel.
The clamp matters at large w: the circle's far side carries e^{Re(w) lambda},
which cancels in the sum, so the guard bits grow as 1.5 * Re(w) * lambda.  The
value does not depend on lambda, so a smaller circle costs nothing in
accuracy.

Both ends of a ray have one truncation rule: move t by a fixed factor until
the bound |integrand|(t) * t is below target / 10, and add that bound to the
estimate.  The far end T starts at max(30 / Re(w), 2 * lambda) and grows by
1.25.  ``ray_only_integrate`` integrates the same outbound-minus-inbound ray
integrand from 0 instead of from lambda, with no circle; its near end eps
starts at lambda and shrinks by 4.

That near segment [eps, lambda] is integrated in u = log t, of t times the
integrand, on equal first-pass panels, each spanning at most a factor
NEAR_PANEL_FACTOR = 16 in t, which the driver bisects at their midpoint in u;
[lambda, T] has the contour's ray panels.  In u the end t = 0 moves to
u = -inf, where the integrand decays like e^u |u|^(nu-1) for poly of degree
nu, so eps at 1e-11..1e-13 costs 9-11 panels instead of one per doubling.
The nearest singularities are the poles of f_omega, at Re u >= log(4 lambda),
beyond the segment's right end, and Im u = +-(pi/2 - arg omega): the last
panel's Bernstein ellipse keeps rho of about 4.5 for real omega, a G32 error
of about 1e-42 relative, and about 3.8 at |arg omega| = 1.3.

The circle's nodes t_j = lambda e^{i theta_j} do not depend on w, and neither
does i t_j f_omega(t_j), node j's integrand but for e^{-wt} tail(t) t^{-k-1}
poly(log t); the K65 and G32 sums apply the weights.  ``_circle_levels`` keeps
it for one key (omega, lambda, working bits, pole threshold) and drops the old
key first.  It keeps levels 0 and 1 once an integral reaches them, built in
the same pass as that integral's own terms: one complex per node, about
0.6 kB at 288 bits, so 0.16 MB for level 0's 260 nodes, which a default-target
integral stops at, and 0.47 MB with level 1's 520.  Deeper levels double in
size each, and are summed panel by panel and dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import acos, cos, pi

from mpmath import mp, mpf

from .errors import InvalidParameter, NodeBudgetExceeded, PolesTooClose, PrecisionUnreachable
from .multibernoulli import OmegaVector
from .precision import DEFAULT_POLICY, PrecisionPolicy
from .qpoly import PolyC
from .series import LaurentSeries

# the deepest refinement, MAX_LEVELS - 1: the circle's level, or a ray panel's
# level in the schedule that cuts each doubling into 2^L panels at level L
MAX_LEVELS = 6
# Gauss nodes per panel, the Kronrod rule's total, and the circle's panels at level 0
GAUSS_NODES = 32
KRONROD_NODES = 2 * GAUSS_NODES + 1
CIRCLE_PANELS = 4
# the factor in t that one first-pass panel spans: on [lambda, T], and in log t
# on ray_only_integrate's near segment [eps, lambda]
RAY_PANEL_FACTOR = 4
NEAR_PANEL_FACTOR = 16


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
        lam = mpf("0.25") * min(omega.pole_bound, 2 * mp.pi)
    return min(lam, 6 / mp.re(w))


def _check_lambda(lam, omega: OmegaVector):
    """lam as an mpf, if 0 < lam < 0.9 * pole bound; else InvalidParameter."""
    lam = mpf(lam)
    if not 0 < lam < mpf("0.9") * omega.pole_bound:
        raise InvalidParameter(
            "lambda must satisfy 0 < lambda < 0.9 * min|2 pi / omega_i|"
        )
    return lam


def _kronrod_betas(n: int):
    """beta_0..beta_2n of the Jacobi-Kronrod matrix of the n-point Gauss-Legendre
    rule, by Laurie's O(n^2) recurrence (Math. Comp. 66, 1997).  The first
    3n/2 + 1 are Legendre's: beta_0 = 2 and k^2 / (4k^2 - 1).  Every diagonal
    entry is 0 by symmetry, so only the betas are carried; n is even."""
    beta = [mpf(2)] + [mpf(k * k) / (4 * k * k - 1) for k in range(1, 3 * n // 2 + 1)]
    beta += [mpf(0)] * (2 * n + 1 - len(beta))
    s = [mpf(0)] * (n // 2 + 2)
    t = list(s)
    t[1] = beta[n + 1]
    for m in range(n - 1):
        acc = 0
        for k in range((m + 1) // 2, -1, -1):
            acc += beta[k + n + 1] * s[k] - beta[m - k] * s[k + 1]
            s[k + 1] = acc
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        acc = 0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + k
            acc += beta[m - k] * s[j + 2] - beta[k + n + 1] * s[j + 1]
            s[j + 1] = acc
        if m % 2:
            beta[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return beta


def _newton(beta, x, tol):
    """A zero of the monic p_len(beta), p_{k+1} = x p_k - beta_k p_{k-1}, by
    Newton's method from x; stops after the first step below tol."""
    for _ in range(8):
        p0, p1, d0, d1 = 0, 1, 0, 0
        for b in beta:
            p0, p1, d0, d1 = p1, x * p1 - b * p0, d1, p1 + x * d1 - b * d0
        dx = p1 / d1
        x -= dx
        if abs(dx) < tol:
            break
    return x


def _christoffel(beta, x):
    """(Gauss, Kronrod) weights at a node x: the Christoffel sum
    1 / sum_k p_k(x)^2 / (beta_0 ... beta_k), over k < GAUSS_NODES for the
    Gauss rule (the zeros of p_GAUSS_NODES) and over k < len(beta) for the
    Kronrod rule (the zeros of p_len(beta))."""
    p0, p1, norm, csum = 0, 1, 1, 0
    for k, b in enumerate(beta):
        if k == GAUSS_NODES:
            gauss = 1 / csum
        norm *= b
        csum += p1 * p1 / norm
        p0, p1 = p1, x * p1 - b * p0
    return gauss, 1 / csum


@lru_cache(maxsize=None)
def _legendre_nodes(prec: int):
    """The Gauss-Kronrod-Legendre rule on [-1, 1] that extends GAUSS_NODES-point
    Gauss-Legendre to KRONROD_NODES points: (nodes, Kronrod weights, Gauss
    weights).  The nodes ascend, and nodes[1::2] are the Gauss nodes.

    The positive half is found and mirrored.  Float seeds: Newton from
    cos(pi (i + 3/4) / (n + 1/2)) gives the Gauss nodes, and one Kronrod node
    lies between each pair (the two rules interlace), found by Newton from the
    midpoint in arccos.  Each is then polished at prec + 32 bits, on p_n for a
    Gauss node and on the degree-2n+1 polynomial for a Kronrod node.  A
    Newton step about squares the error, so the polish stops after the first
    step below 2^-((prec + 32)/2 + 4): the third, for prec up to about 320.
    The weights are Christoffel sums."""
    n = GAUSS_NODES
    with mp.workprec(prec + 32):
        beta = _kronrod_betas(n)
        fbeta = [float(b) for b in beta]
        gauss = [_newton(fbeta[:n], cos(pi * (i + 0.75) / (n + 0.5)), 1e-15) for i in range(n // 2)]
        theta = [0.0] + [acos(x) for x in gauss]
        kronrod = [_newton(fbeta, cos((a + b) / 2), 1e-15) for a, b in zip(theta, theta[1:])]
        tol = mpf(2) ** (-mp.prec // 2 - 4)
        half = []
        for xk, xg in zip(kronrod, gauss):
            half += [_newton(beta, mpf(xk), tol), _newton(beta[:n], mpf(xg), tol)]
        half.append(mpf(0))
        weights = [_christoffel(beta, x) for x in half]
        nodes = [-x for x in half] + half[-2::-1]
        kw = [k for _, k in weights]
        gw = [g for g, _ in weights[1::2]]
        return tuple(nodes), tuple(kw + kw[-2::-1]), tuple(gw + gw[::-1])


def _gk_panel(f, a, b, rule):
    """(Kronrod, Gauss) integrals of f over [a, b]."""
    xs, kw, gw = rule
    half = (b - a) / 2
    mid = (a + b) / 2
    fs = [f(mid + half * x) for x in xs]
    return half * mp.fdot(kw, fs), half * mp.fdot(gw, fs[1::2])


def _f_omega_at(omega: OmegaVector, t, threshold):
    acc = mp.mpc(1)
    for o in omega.omegas:
        z = o * t
        d = 1 - mp.exp(-z)
        if abs(d) < threshold:
            _check_small_divisor(z, d, t)
        acc /= d
    return acc


def _check_small_divisor(z, d, t):
    """Raise for a divisor d = 1 - e^{-z} below the pole threshold, unless it
    is the zero at z = 0.  The other zeros z = 2 pi i n lie beyond |z| = pi,
    so there a small d is a pole of f_omega near the path: PolesTooClose.
    Within |z| <= pi, |d| >= 0.3 |z|, so a small d there comes from t near 0,
    where the integrands that reach it (``ray_only_integrate``'s, with a tail
    of valuation at least k + 1 + r) are regular.  d = z + O(2^-prec) then
    has relative error 2^-prec / |d|, which t * f_omega(t) does not amplify;
    below 2^(32 - prec) fewer than 32 bits are left, and PrecisionUnreachable
    names that limit."""
    where = f"|1 - e^(-omega t)| = {mp.nstr(abs(d), 5)} at t = {mp.nstr(t, 5)}"
    if abs(z) > mp.pi:
        raise PolesTooClose(where)
    if abs(d) < mpf(2) ** (32 - mp.prec):
        raise PrecisionUnreachable(
            f"{where} keeps fewer than 32 of the working precision's {mp.prec} bits"
        )


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

    def base(self, t):
        """f_omega(t) e^{-wt} tail(t) t^{-k-1} on the inbound ray (real t > 0)."""
        ispec = self.ispec
        return (
            _f_omega_at(ispec.omega, t, self.thr)
            * mp.exp(-ispec.w * t)
            * _tail_at(ispec, t)
            * mp.power(t, -ispec.k - 1)
        )

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


@lru_cache(maxsize=1)
def _circle_levels(omega: OmegaVector, lam, prec: int, threshold):
    """The circle factors of levels 0 and 1 for one key, appended by ``_circle``."""
    return []


def _circle(ev: _ContourEvaluator, lam, level: int, rule):
    """The (Kronrod, Gauss) integrals around |t| = lam at one level: theta in
    [0, 2 pi] cut into CIRCLE_PANELS * 2**level panels, summed by panel."""
    ispec, k, thr = ev.ispec, ev.ispec.k, ev.thr
    xs, kw, gw = rule
    loglam = mp.log(lam)
    panels = CIRCLE_PANELS * 2 ** level
    h = mp.pi / panels
    stored = _circle_levels(ispec.omega, lam, mp.prec, thr)
    factors = iter(stored[level]) if level < len(stored) else None
    built = [] if level == len(stored) < 2 else None
    ksums, gsums = [], []
    for i in range(panels):
        terms = []
        for x in xs:
            theta = (2 * i + 1 + x) * h
            t = lam * mp.expj(theta)
            if factors is None:
                f = mp.mpc(0, 1) * t * _f_omega_at(ispec.omega, t, thr)
                if built is not None:
                    built.append(f)
            else:
                f = next(factors)
            logt = mp.mpc(loglam, theta)
            if isinstance(k, int):
                f *= mp.exp(-ispec.w * t) * mp.power(t, -k - 1)
            else:
                f *= mp.exp(-ispec.w * t - (k + 1) * logt)
            terms.append(f * _tail_at(ispec, t) * ispec.poly(logt))
        ksums.append(mp.fdot(kw, terms))
        gsums.append(mp.fdot(gw, terms[1::2]))
    if built is not None:
        stored.append(built)
    return h * mp.fsum(ksums), h * mp.fsum(gsums)


def _ray_end(ev: _ContourEvaluator, t, factor, target):
    """Move t by factor until the bound ray_magnitude(t) * t is below
    target / 10 (rule: module docstring); returns (t, bound)."""
    for _ in range(500):
        bound = ev.ray_magnitude(t) * t
        if bound < target / 10:
            return t, bound
        t *= factor
    raise NodeBudgetExceeded("could not find a ray truncation meeting the target")


def _panel(f, a, b, split, rule, depth=0):
    """A ray part: (Kronrod, Gauss, depth, refine) for f over [a, b], where
    refine() evaluates the two halves cut at split(a, b), one depth deeper."""
    kronrod, gauss = _gk_panel(f, a, b, rule)

    def refine():
        m = split(a, b)
        return [_panel(f, a, m, split, rule, depth + 1), _panel(f, m, b, split, rule, depth + 1)]

    return kronrod, gauss, depth, refine


def _ray_panels(f, a, b, rule):
    """The first-pass parts of f over [a, b]: one geometric panel per factor
    RAY_PANEL_FACTOR in t from a, the last one ending at b; each bisects at
    sqrt(ab).  A panel's depth is its level in the schedule that cuts each
    doubling into 2^L panels at level L: -1 for one that spans more than a
    doubling (module docstring)."""
    edges = [mpf(a)]
    while edges[-1] * RAY_PANEL_FACTOR < b:
        edges.append(edges[-1] * RAY_PANEL_FACTOR)
    edges.append(mpf(b))
    split = lambda lo, hi: mp.sqrt(lo * hi)
    return [
        _panel(f, lo, hi, split, rule, -1 if hi > 2 * lo else 0)
        for lo, hi in zip(edges, edges[1:])
    ]


def _log_panels(f, a, b, rule):
    """The first-pass parts of f over [a, b] in u = log t, of t f(t) du:
    [log a, log b] is cut into equal panels, each spanning at most a factor
    NEAR_PANEL_FACTOR in t; each bisects at its midpoint in u."""
    ua, ub = mp.log(a), mp.log(b)
    n = max(1, int(mp.ceil((ub - ua) / mp.log(NEAR_PANEL_FACTOR))))
    h = (ub - ua) / n

    def in_u(u):
        t = mp.exp(u)
        return t * f(t)

    split = lambda lo, hi: (lo + hi) / 2
    return [_panel(in_u, ua + i * h, ua + (i + 1) * h, split, rule) for i in range(n)]


def _circle_part(ev: _ContourEvaluator, lam, rule, level=0):
    """The circle as one part, at one level; refine() moves it to the next."""
    kronrod, gauss = _circle(ev, lam, level, rule)
    return kronrod, gauss, level, lambda: [_circle_part(ev, lam, rule, level + 1)]


def _refine_worst(parts, target, end_bounds):
    """Global-adaptive refinement (QUADPACK's QAG; Piessens et al., 1983):
    while the sum of |Kronrod - Gauss| over the parts plus end_bounds is above
    target, replace the part with the largest difference by its refinement.
    A part already at depth MAX_LEVELS - 1 raises NodeBudgetExceeded instead.
    parts holds (Kronrod, Gauss, depth, refine) tuples; returns (sum of
    Kronrod values, err_estimate)."""
    while True:
        diffs = [abs(kronrod - gauss) for kronrod, gauss, _, _ in parts]
        err = mp.fsum(diffs) + end_bounds
        if err <= target:
            return mp.fsum(kronrod for kronrod, _, _, _ in parts), err
        _, _, depth, refine = parts.pop(max(range(len(parts)), key=diffs.__getitem__))
        if depth == MAX_LEVELS - 1:
            raise NodeBudgetExceeded(
                f"refinement failed to reach {mp.nstr(target, 3)} (at {mp.nstr(err, 3)})"
            )
        parts += refine()


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
        target = p.reachable_target()
        ev = _ContourEvaluator(ispec, p.zero_threshold)
        T, tail_bound = _ray_end(
            ev, max(30 / mp.re(ispec.w), 2 * lam), mpf("1.25"), target
        )
        rule = _legendre_nodes(mp.prec)
        parts = _ray_panels(ev.ray, lam, T, rule) + [_circle_part(ev, lam, rule)]
        return _refine_worst(parts, target, tail_bound)


def ray_only_integrate(ispec: IntegrandSpec, p: PrecisionPolicy = DEFAULT_POLICY):
    """The contour's ray integrand integrated over [0, inf) with no circle:

        int_0^inf f_omega e^{-wt} tail(t) t^{-k-1}
                  (poly(log t + 2 pi i) - poly(log t)) dt.

    By Cauchy's theorem this equals ``hankel_integrate(ispec)`` when the
    integrand is regular at t = 0, which the two checks below ensure: an
    integer k, and a tail whose valuation is at least k + 1 + r.  The ray is
    cut to [eps, T] by the rule in the module docstring, and both end bounds
    go into the estimate.  [eps, lambda] is integrated in log t, one
    first-pass panel per factor 16 in t, and [lambda, T] on the contour's ray
    panels; ``_refine_worst`` refines both (module docstring).  Returns
    (value, err_estimate).

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
        target = p.reachable_target()
        ev = _ContourEvaluator(ispec, p.zero_threshold)
        T, tail_bound = _ray_end(
            ev, max(30 / mp.re(ispec.w), 2 * lam), mpf("1.25"), target
        )
        eps, head_bound = _ray_end(ev, lam, mpf("0.25"), target)
        rule = _legendre_nodes(mp.prec)
        parts = _log_panels(ev.ray, eps, lam, rule) + _ray_panels(ev.ray, lam, T, rule)
        return _refine_worst(parts, target, tail_bound + head_bound)
