"""Public evaluation API.

* ``zeta_direct`` sums the defining lattice series in one pass: a head that
  puts the tail point a distance from the poles that grows with |s|, with
  the digits asked for and with the periods' scale, counted from the level's
  own start point (a level that starts that far out sums no head), then an
  Euler-Maclaurin tail correction in the last omega direction, applied
  recursively down to one omega, until a Bernoulli term is below half the
  policy's target.  Its arguments come in through ``precision._exact``, so
  real ones are mpf and take real arithmetic, whatever the others are.
* ``zeta_contour`` evaluates the Hankel-contour representation, with
  1/(Gamma(s)(e^{2 pi i s}-1)) as its constant weight (generic s only).
* ``log_hyper_gamma`` and ``balanced_P`` evaluate the contour integrals with
  the q/S weight polynomials; integer-point zeta values are always routed
  through these, never through the singular generic-s prefactor.
* ``p0_closed_form`` is the r = 0 closed form of the balanced function.

``zeta_contour``'s value is an mpf where s, w and every period are real, and
an mpc otherwise; every other evaluator's value (``zeta_direct``,
``log_hyper_gamma``, ``balanced_P`` on both routes, ``p0_closed_form``) is an
mpc, for real and complex arguments alike.
"""

from __future__ import annotations

from cmath import phase, rect
from dataclasses import dataclass
from itertools import count
from math import lgamma, nextafter

from mpmath import mp, mpf

from . import constants
from .errors import (
    ConvergenceTooSlow,
    InvalidParameter,
    PrecisionUnreachable,
    TooCloseToInteger,
)
from .hankel import IntegrandSpec, hankel_integrate
from .multibernoulli import OmegaVector
from .precision import (
    DEFAULT_POLICY, QUADRATURE_GUARD_BITS, PrecisionPolicy, _exact, _finite, _index, _right_half,
)
from .qpoly import PolyC, _c_weights, q_poly, s_poly

METHOD_DIRECT = "direct_sum"
METHOD_CONTOUR = "contour"
METHOD_COMBINATION = "combination"

# the tail distance's factor on ln(1/eps) / (2 pi); see _tail_distance
HEAD_FACTOR = mpf("1.3")
# the longest head a level may sum (_head_length), about 14 times the longest
# the tests reach (71 points at |Im s| = 120)
HEAD_LIMIT = 1000


@dataclass(frozen=True)
class EvalResult:
    value: object
    err_estimate: object
    method: str


# -- direct lattice summation ---------------------------------------------


def _lattice_em(s, w, levels, eps):
    """(value, err, size) of the Barnes zeta: head sum plus Euler-Maclaurin in
    the last direction; size is the float sum of |term| over every power
    summed, each weighted as the sum it enters.

    ``levels`` holds, per direction k, (omega_k, the angles of omega_i /
    omega_k for i < k, ln(2 pi / min_{i <= k} |omega_i|)) as from
    ``_levels``.  Each number is an mpf where it is real and an mpc otherwise
    (``_exact``), so real ones meet in real arithmetic.  The recursion ends
    at one omega, whose terms at the tail point wN are powers of wN taken
    from one ``mp.power`` and carry no error of their own.
    """
    if not levels:  # r = 0: one power, nothing summed
        return mp.power(w, -s), mpf(0), 0.0
    (om, angles, scale), rest = levels[-1], levels[:-1]
    d0 = _tail_distance(s, eps, scale)
    N = _head_length(w / om, angles, d0)
    wN = w + N * om
    errs, sizes = [], []
    # at_wN(weight, k) is weight * zeta_{r-1}(s + k, wN) for the tail's offsets k;
    # each weighted inner estimate's share, eps / (2 max(N, d0) + 6), leaves
    # room for N head sums and d0 + 6 tail sums, however short the head
    if rest:

        def inner(weight, s_, x):
            share = eps / (2 * max(N, d0) + 6) / abs(weight)
            value, err, size = _lattice_em(s_, x, rest, share)
            errs.append(abs(weight) * err)
            sizes.append(abs(complex(weight)) * size)
            return weight * value

        head = mp.fsum(inner(1, s, w + n * om) for n in range(N))

        def at_wN(weight, k):
            return inner(weight, s + k, wN)

    else:
        head = [mp.power(w + n * om, -s) for n in range(N)]
        sizes.append(sum(map(abs, map(complex, head))))
        head = mp.fsum(head)
        powers = _tail_powers(wN, s)

        def at_wN(weight, k):
            k_, power = next(powers)
            assert k_ == k, "the tail must ask for the offsets -1, 0, 1, 3, ... in order"
            term = weight * power
            sizes.append(abs(complex(term)))
            return term

    total = head + (at_wN(1 / ((s - 1) * om), -1) + at_wN(mpf(1) / 2, 0))

    def terms():
        rising = s * om  # (s)_{2j-1} om^{2j-1}
        for j in count(1):
            yield at_wN(constants.bernoulli_over_factorial(2 * j) * rising, 2 * j - 1)
            rising *= (s + 2 * j - 1) * (s + 2 * j) * om * om

    total, last = _bernoulli_tail(total, terms(), eps / 2)
    return total, last + mp.fsum(errs), sum(sizes)


def _bernoulli_tail(total, terms, eps):
    """Add the endless Bernoulli-tail ``terms`` to ``total`` up to and including
    the first with |term| < eps; return (total, |last term|).

    Raises ConvergenceTooSlow if a term grows before that: the series is
    asymptotic and its terms only grow from there on.
    """
    prev = mp.inf
    for term in terms:
        mag = abs(term)
        total += term
        if mag < eps:
            return total, mag
        if mag > prev:
            raise ConvergenceTooSlow(f"Bernoulli terms grew before reaching {mp.nstr(eps, 3)}")
        prev = mag


def _tail_distance(s, eps, scale):
    """d0, the distance from the summand's poles, in periods om, at which a
    level's Euler-Maclaurin tail starts, for target eps; scale is
    ln(2 pi / rho), rho the smallest |omega_i| of the level (om and the inner
    periods).

    In units of om the level sums f(t) = zeta(s, w + t om; rest) at t = 0, 1,
    ...  Its Bernoulli terms at a tail point d from the poles fall like
    |T_{j+1} / T_j| <= (|s| + 2j)^2 / (2 pi d)^2, so past d = (|s| + 2) / (2 pi)
    they shrink from j = 1 on.  The smallest of them is about e^{-2 pi d}
    |(2 pi / om)^s / Gamma(s)| (for one period; the inner periods' scale
    enters through rho): up to e^{pi |Im s|} from 1/Gamma(s) and from the
    phase of (w + N om)^{-s} (|arg| < pi/2), and (2 pi / rho)^{Re s} /
    Gamma(Re s) from the level's scale, which exceeds 1 for small periods
    and moderate s (about 450 at most for rho = 1, near Re s = 2 pi).  So
    d0 = max(|s| + 2, c ln(1/eps) + pi |Im s| + ln+((2 pi / rho)^{Re s} /
    Gamma(Re s))) / (2 pi), rounded up, puts the smallest term near eps^c;
    with c = 1.3 rather than 1 the terms fall below eps well before their
    minimum, which keeps the tail short.
    """
    decay = HEAD_FACTOR * -mp.log(eps)
    if s.imag:
        decay += mp.pi * abs(s.imag)
    sigma = float(s.real)
    decay += max(0.0, sigma * scale - lgamma(sigma))
    return int(mp.ceil(max(abs(s) + 2, decay) / (2 * mp.pi)))


def _head_length(x, angles, d0):
    """N, the lattice points a level sums before its tail: the smallest
    integer >= 0 whose point x + N is d0 from the cone where the summand is
    singular, with the gap pointing forward.

    In units of om the summand f(t) = zeta(s, w + t om; rest) is singular
    where x + t lies on the cone -sum n_i om_i / om (n_i >= 0; the point 0
    alone for one omega), x = w / om; ``angles`` are those of the om_i / om.
    The distance to a convex cone is convex along the tail, so once the gap
    points forward every t >= N stays d0 away.  A level that starts d0 from
    the cone, as the tail's inner sums at a far tail point do, sums no head.
    Raises ConvergenceTooSlow, before anything is summed, for an N beyond
    HEAD_LIMIT = 1000: a d0 of about 1000 periods beyond w, which an |s|
    near 6300 or an |Im s| near 2000 asks for.
    """
    x = complex(x)
    for N in range(HEAD_LIMIT + 1):
        gap = _gap_to_cone(x + N, angles)
        if abs(gap) >= d0 and gap.real >= 0:
            return N
    raise ConvergenceTooSlow(
        f"the head needs {HEAD_LIMIT + 1} or more lattice points, beyond {HEAD_LIMIT}"
    )


def _gap_to_cone(z, angles):
    """z - q for q the point of the cone -sum n_i e^{i angle_i}, n_i >= 0,
    nearest to z (the cone is the apex 0 alone when there are no angles).

    The angles are those of omega_i / omega for periods in the right half
    plane, so they span less than pi and the cone is a sector.
    """
    if not angles:
        return z
    lo, hi = min(angles), max(angles)
    if lo <= phase(-z) <= hi:
        return 0j
    gap = z
    for angle in (lo, hi):
        edge = -rect(1, angle)
        reach = (z * edge.conjugate()).real
        if reach > 0 and abs(z - reach * edge) < abs(gap):
            gap = z - reach * edge
    return gap


def _levels(omegas):
    """(omega_k, (angle of omega_i / omega_k for i < k),
    ln(2 pi / min_{i <= k} |omega_i|)) for each direction k."""
    return tuple(
        (
            om,
            tuple(phase(complex(o / om)) for o in omegas[:k]),
            float(mp.log(2 * mp.pi / min(abs(o) for o in omegas[: k + 1]))),
        )
        for k, om in enumerate(omegas)
    )


def _tail_powers(x, s):
    """(k, x^{-(s+k)}) for the tail offsets k = -1, 0, 1, 3, 5, ... in that
    order, from the single power p = x^{-s}: p x, p, then steps of x^{-2}.

    The chain runs with 20 guard bits and each power is rounded once to the
    working precision, as ``mp.power``'s own results are.
    """
    bits = mp.prec + 20
    with mp.workprec(bits):
        p = mp.power(x, -s)
        q = p * x
        step = 1 / (x * x)
    yield -1, +q
    yield 0, +p
    for k in count(1, 2):
        q = mp.fmul(q, step, prec=bits)
        yield k, +q


def zeta_direct(s, w, omega: OmegaVector, p: PrecisionPolicy = DEFAULT_POLICY) -> EvalResult:
    """Barnes multiple zeta by summation of the defining series, in one pass.

    Each level sums the fewest head terms, none if its start point is far
    enough, that put its tail point
    d0 = max(|s| + 2, 1.3 ln(1/eps) + pi |Im s| + ln+((2 pi / rho)^{Re s} /
    Gamma(Re s))) / (2 pi) periods from the summand's poles, where eps is
    that level's target and rho its smallest |omega_i| (``_tail_distance``):
    the Bernoulli terms then shrink from the first, and the smallest of them
    lies near eps^1.3.  Terms are added until one is below eps/2; each inner
    sum gets eps/(2 max(N, d0) + 6)/|weight| for a head of N points, so that
    each weighted estimate gets the same share.
    The last direction (one omega) is summed
    in closed form: its tail terms are powers of one point.  ``err_estimate``
    is the last term plus the weighted inner estimates plus the rounding
    floor 50 * 2^-bits * sum |term| over every power summed, weighted as the
    inner estimates are: mp.power takes x^-s as exp(-s log x) with 10 guard
    bits, so a power's rounding grows with |s log x|, to about 10 units at
    |s| = 1000 (errors of 3 units of the sum were seen at |Im s| <= 120).
    Raises ConvergenceTooSlow if a term grows first or a head would pass
    HEAD_LIMIT points, and PrecisionUnreachable for a target below the unit
    roundoff of the working precision (the policy's bits plus 16 guard
    bits), or where the estimate is above the target; the message names the
    larger part, the truncation estimate or the rounding floor.
    s and w come in through ``_exact``, as the periods do, so each real one
    is an mpf and the sum of real inputs runs in real arithmetic; the value
    is an mpc either way.
    """
    with p.context(16):
        s, w = _finite(_exact(s), "s"), _right_half(w)
        if not mp.re(s) > omega.r + mpf("0.25"):
            raise InvalidParameter(
                "zeta_direct requires Re(s) > r + 0.25; use the contour instead"
            )
        eps = p.reachable_target()
        value, trunc, size = _lattice_em(s, w, _levels(omega.omegas), eps)
        floor = 50 * mp.ldexp(size, -mp.prec)
        err = trunc + floor
        if err > eps:
            part = f"truncation estimate {mp.nstr(trunc, 3)}" if trunc >= floor else (
                f"rounding floor {mp.nstr(floor, 3)} at {mp.prec} bits of terms summing to {size:.3g}"
            )
            raise PrecisionUnreachable(
                f"the {part} lifts the estimate to {mp.nstr(err, 3)}, above the target"
            )
        return EvalResult(mp.mpc(value), err, METHOD_DIRECT)


# -- contour evaluations --------------------------------------------------


def zeta_contour(
    s,
    w,
    omega: OmegaVector,
    p: PrecisionPolicy = DEFAULT_POLICY,
    lam=None,
) -> EvalResult:
    """Barnes multiple zeta from the Hankel representation (generic s).

    The integrand is f_omega(t) e^{-wt} t^{s-1} times the constant weight
    1/(Gamma(s)(e^{2 pi i s}-1)), so the one Hankel integral meets the
    caller's target, as every other integral does.  The weight and k = -s
    are taken at the integral's working precision; w keeps its bits.  Where
    s, w and every period are real the value is real, as zeta_r(conj s,
    conj w; conj omega) = conj zeta_r(s, w; omega), and its real part is
    returned: dropping the imaginary part of a real number's approximation
    moves it no farther from the number, so the estimate stands.
    """
    with p.context(QUADRATURE_GUARD_BITS):
        s = _finite(mp.mpc(s), "s")
        nearest = mp.mpc(mp.nint(mp.re(s)), 0)
        if abs(s - nearest) < mpf("1e-3"):
            raise TooCloseToInteger(
                "s is within 1e-3 of an integer; use log_hyper_gamma(0, k)"
            )
        # 1/Gamma is entire, and s is at least 1e-3 from the zeros of
        # e^{2 pi i s} - 1, the integers
        prefactor = mp.rgamma(s) / mp.expm1(2 * mp.pi * mp.mpc(0, 1) * s)
        ispec = IntegrandSpec(omega=omega, w=w, k=-s, poly=PolyC((prefactor,)))
    value, qerr = hankel_integrate(ispec, lam, p)
    if all(isinstance(x, mpf) for x in (ispec.k, ispec.w, *omega.omegas)):
        value = mp.re(value)
    return EvalResult(value, qerr, METHOD_CONTOUR)


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
    m, k = _index(m, "m"), _index(k, "k")
    if m < 0 or k < 0:
        raise InvalidParameter("log_hyper_gamma needs m, k >= 0")
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
    k = 0.  The secondary path sums the weighted log gammas and needs k >= 0;
    each log gamma aims at the target over the sum of the weights' magnitudes.
    """
    m, k = _index(m, "m"), _index(k, "k")
    if m < 0:
        raise InvalidParameter("balanced_P needs m >= 0")
    if method == METHOD_CONTOUR:
        ispec = IntegrandSpec(omega=omega, w=w, k=k, poly=s_poly(m, max(k, 0), p))
        value, qerr = hankel_integrate(ispec, lam, p)
        return EvalResult(value, qerr, METHOD_CONTOUR)
    if method == METHOD_COMBINATION:
        if k < 0:
            raise InvalidParameter("the combination path needs k >= 0")
        # weighted and summed at the integrals' working precision; each part
        # aims at target / sum |c|, rounded down to a float
        with p.context(QUADRATURE_GUARD_BITS):
            weights = list(_c_weights(m, k))
            share = mpf(p.target_abs_error) / mp.fsum(abs(c) for _, c in weights)
        share = nextafter(float(share), 0)
        if not share > 0:
            raise PrecisionUnreachable(f"target {p.target_abs_error} / sum |c| underflows")
        parts = [log_hyper_gamma(mu, k, w, omega, p.with_target(share), lam) for mu, _ in weights]
        with p.context(QUADRATURE_GUARD_BITS):
            total = mp.fsum(c * part.value for (_, c), part in zip(weights, parts))
            err = mp.fsum(abs(c) * part.err_estimate for (_, c), part in zip(weights, parts))
        return EvalResult(total, err, METHOD_COMBINATION)
    raise InvalidParameter(f"unknown method {method!r}")


def p0_closed_form(m: int, k: int, w, p: PrecisionPolicy = DEFAULT_POLICY):
    """Closed form of the balanced function at r = 0:
    sum_mu c^m_{m-mu,k} (-log w)^mu w^k (from zeta_0(s, w) = w^{-s})."""
    m, k = _index(m, "m"), _index(k, "k")
    if m < 0 or k < 0:
        raise InvalidParameter("p0_closed_form needs m, k >= 0")
    with p.context(16):
        w = _right_half(w)
        lw = -mp.log(w)
        wk = mp.power(w, k)
        total = mp.mpc(0)
        for mu, weight in _c_weights(m, k):
            total += weight * lw ** mu * wk
        return total
