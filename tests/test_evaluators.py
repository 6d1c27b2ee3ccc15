import cmath
import random
import re
import signal
from fractions import Fraction
from itertools import count
from math import lgamma

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from hyperzeta import (
    DEFAULT_POLICY,
    OmegaVector,
    PolyC,
    PrecisionPolicy,
    balanced_P,
    bernoulli_expansion,
    log_hyper_gamma,
    p0_closed_form,
    zeta_contour,
    zeta_direct,
)
from hyperzeta import constants, evaluators, hankel
from hyperzeta.hankel import IntegrandSpec
from hyperzeta.asymptotics import (
    AsymExperiment,
    default_experiment,
    lhs_value,
    remainder_reduction_check,
    rhs_expansion,
)
from hyperzeta.combinatorics import coeff_c, gen_F
from hyperzeta.errors import (
    ConvergenceTooSlow, InvalidParameter, PrecisionUnreachable, TooCloseToInteger,
)
from hyperzeta.evaluators import METHOD_COMBINATION
from hyperzeta.qpoly import q_poly, s_poly
from hyperzeta.series import LaurentSeries

P = DEFAULT_POLICY
SHARP = PrecisionPolicy(P.precision_bits + 64, 1e-40)


def derivative_fd(f, x, h):
    """d/dx f by a 5-point central stencil."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


@pytest.fixture(autouse=True)
def _prec():
    with P.context():
        yield


def test_direct_r1_is_hurwitz():
    res = zeta_direct(mpf("2.5"), mpf("1.3"), OmegaVector.of(1), P.with_target(1e-24))
    assert abs(res.value - mp.zeta(mpf("2.5"), mpf("1.3"))) < mpf("1e-22")
    assert res.method == "direct_sum"


def test_direct_r2_diagonal_collapses():
    # sum over (n1, n2) of (1 + n1 + n2)^{-4} = sum_m (m+1)(m+1)^{-4} = zeta(3)
    res = zeta_direct(4, 1, OmegaVector.of(1, 1), P.with_target(1e-24))
    assert abs(res.value - mp.zeta(3, 1)) < mpf("1e-22")


@pytest.mark.parametrize("r", [1, 2])
def test_direct_reaches_1e55_with_complex_omega(r):
    # the head grows with the digits asked for: a fixed 20-term head leaves
    # the smallest Bernoulli term near e^{-40 pi} ~ 3.5e-55, above the target
    omega = OmegaVector.of(*(mp.exp(1.3j), mpf("1.3"))[:r])
    s, w = r + mpf("1.5"), mpf("1.5")
    res = zeta_direct(s, w, omega, P.with_target(1e-55))
    sharp = PrecisionPolicy(P.precision_bits + 64, 1e-62)
    ref = zeta_direct(s, w, omega, sharp)
    with sharp.context():
        assert abs(res.value - ref.value) <= 5 * res.err_estimate
    assert res.err_estimate <= 1e-55


E13 = mp.exp(mpf("1.3") * 1j)


# periods or w more than pi/2 apart in angle: Re(w / omega) < 0 at some level,
# so the tail point must be placed by its distance from the poles, not by N
@pytest.mark.parametrize(
    "s, w, omegas",
    [
        (mpf("3.5"), mpf("1.5"), (E13, 1 / E13)),
        (mp.mpc("3.5", "10"), mpf("1.5"), (E13, 1 / E13)),
        (mpf("4.5"), mp.mpc(1, 10), (1 / E13,)),
    ],
    ids=["conjugate", "conjugate-im10", "w-opposite"],
)
def test_direct_wide_angles(s, w, omegas):
    omega = OmegaVector.of(*omegas)
    res = zeta_direct(s, w, omega, P.with_target(1e-22))
    ref = zeta_direct(s, w, omega, SHARP)
    with SHARP.context():
        assert abs(res.value - ref.value) <= 5 * res.err_estimate
    assert res.err_estimate <= 1e-22
    if mp.im(s) == 0 and mp.im(w) == 0 and len(omegas) == 2:
        # the lattice is its own conjugate, so the sum is real
        assert abs(mp.im(res.value)) <= res.err_estimate


def test_direct_target_below_working_precision_raises():
    with pytest.raises(PrecisionUnreachable):
        zeta_direct(mpf("2.5"), mpf("1.3"), OmegaVector.of(1), P.with_target(1e-80))


@pytest.mark.parametrize(
    "trunc, size, part",
    [(mpf(1), 1e-30, "the truncation estimate"), (mpf(0), 1e60, "the rounding floor")],
    ids=["truncation", "floor"],
)
def test_direct_unreachable_names_the_part_over_the_target(monkeypatch, trunc, size, part):
    monkeypatch.setattr(evaluators, "_lattice_em", lambda s, w, levels, eps: (mpf(1), trunc, size))
    with pytest.raises(PrecisionUnreachable, match=part):
        zeta_direct(mpf("2.5"), mpf("1.3"), OmegaVector.of(1), P)


def test_direct_keeps_the_bits_of_w(monkeypatch):
    # w reaches the lattice sum unrounded, as it reaches a Hankel integrand
    seen = []
    monkeypatch.setattr(
        evaluators, "_lattice_em",
        lambda s, w, levels, eps: seen.append(w) or (mpf(1), mpf(0), 0.0),
    )
    with mp.workprec(300):
        w = 1 + mpf(1) / 3
    zeta_direct(mpf("2.5"), w, OmegaVector.of(1), P)
    assert seen == [w]


with mp.workprec(300):
    _X, _Y = 1 + mpf(1) / 3, mpf(2) / 3

# each place an argument or a coefficient comes in through precision._exact
_DOORS = {
    "omega": lambda v: OmegaVector.of(v).omegas[0],
    "w": lambda v: IntegrandSpec(omega=OmegaVector.of(1), w=v, k=1, poly=PolyC((1,))).w,
    "k": lambda v: IntegrandSpec(omega=OmegaVector.of(1), w=1, k=v, poly=PolyC((1,))).k,
    "series": lambda v: LaurentSeries(0, (v,)).coeffs[0],
    "poly": lambda v: PolyC((v,)).coeffs[0],
    "a": lambda v: AsymExperiment(OmegaVector.of(1), OmegaVector.of(1), v, 1, 0).a,
}


@pytest.mark.parametrize("door", list(_DOORS))
def test_the_door_makes_real_values_mpf_and_keeps_every_bit(door):
    # a 300-bit mpc with a zero imaginary part becomes that mpf, an mpf stays
    # as it is, and a complex value stays an mpc, each with all 300 bits
    x, y = _X._mpf_, _Y._mpf_
    through = _DOORS[door]
    for value in (mp.make_mpc((x, mpf(0)._mpf_)), _X):
        real = through(value)
        assert isinstance(real, mpf) and real._mpf_ == x
    cplx = through(mp.make_mpc((x, y)))
    assert isinstance(cplx, mp.mpc) and cplx._mpc_ == (x, y)


_INF = float("inf")
_OM1 = OmegaVector.of(1)
# (the input the refusal names, a call that passes it a non-finite or
# non-real value) for each door that takes one
_NON_FINITE = {
    "omega-real": ("omega_i", lambda: zeta_direct(3.5, 1, OmegaVector.of(_INF))),
    "omega-complex": ("omega_i", lambda: OmegaVector.of(1, complex(1, _INF))),
    "w-direct": ("w", lambda: zeta_direct(3.5, _INF, _OM1)),
    "w-closed-form": ("w", lambda: p0_closed_form(1, 1, _INF)),
    "w-contour": ("w", lambda: log_hyper_gamma(1, 1, complex(1, _INF), _OM1)),
    "w-expansion": ("w", lambda: bernoulli_expansion(_OM1, _INF, 4)),
    "s-direct": ("s", lambda: zeta_direct(_INF, 1, _OM1)),
    "s-contour": ("s", lambda: zeta_contour(complex(2.5, _INF), 1, _OM1)),
    "lambda": ("lambda", lambda: log_hyper_gamma(1, 1, 1, _OM1, lam=mp.mpc(0.5, 0.1))),
    "a": ("a", lambda: AsymExperiment(_OM1, _OM1, _INF, 1, 0)),
    "w-grid": ("w_grid", lambda: AsymExperiment(_OM1, _OM1, 0.5, 1, 0, (10, 20, 40, _INF))),
    "bits": ("precision_bits", lambda: PrecisionPolicy(100.5)),
    "target": ("target_abs_error", lambda: PrecisionPolicy(192, _INF)),
}


def _expire(signum, frame):
    raise TimeoutError("no answer within a second")


@pytest.mark.parametrize("case", list(_NON_FINITE))
def test_non_finite_inputs_are_refused_at_the_door(case):
    # InvalidParameter naming the input, within a second: an infinite period
    # or w made zeta_direct's Bernoulli tail NaN, and it never ended, so a
    # timer ends the call
    name, call = _NON_FINITE[case]
    handler = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 1)
    try:
        with pytest.raises(InvalidParameter, match=f"^{re.escape(name)} must be"):
            call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)


# (the argument the refusal names, a call that passes it a value of the wrong
# kind or sign) for each door that takes an integer order, a grid or a target;
# the wrong kinds raised bare TypeError or ValueError from inside the arithmetic
_MALFORMED = {
    "m-log-gamma": ("m", lambda: log_hyper_gamma(1.5, 1, 1, _OM1)),
    "k-log-gamma": ("k", lambda: log_hyper_gamma(1, 1.0, 1, _OM1)),
    "k-balanced": ("k", lambda: balanced_P(1, 0.5, 1, _OM1)),
    "k-combination": ("k", lambda: balanced_P(1, 0.5, 1, _OM1, method=METHOD_COMBINATION)),
    "m-closed-form": ("m", lambda: p0_closed_form(1.5, 1, 1)),
    "m-q-poly": ("m", lambda: q_poly(1.5, 0)),
    "k-s-poly": ("k", lambda: s_poly(0, "1")),
    "m-experiment": ("m", lambda: AsymExperiment(_OM1, _OM1, 0.5, 1.5, 0)),
    "grid-complex": (
        "w_grid", lambda: AsymExperiment(_OM1, _OM1, 0.5, 1, 0, (10, 20, 40, 80 + 1j))
    ),
    "grid-string": ("w_grid", lambda: AsymExperiment(_OM1, _OM1, 0.5, 1, 0, (10, 20, 40, "80"))),
    "target-string": ("target_abs_error", lambda: PrecisionPolicy(192, "x")),
    "target-complex": ("target_abs_error", lambda: PrecisionPolicy(192, 1j)),
    # a Fraction, which the policy's mpf(target) cannot take
    "target-fraction": ("target_abs_error", lambda: PrecisionPolicy(192, Fraction(1, 10**22))),
    "m-negative-log-gamma": ("m", lambda: log_hyper_gamma(-1, 0, 1, _OM1)),
    "m-negative-balanced": ("m", lambda: balanced_P(-1, 0, 1, _OM1)),
    "k-negative-closed-form": ("k", lambda: p0_closed_form(1, -1, 1)),
    "k-negative-weight": ("k", lambda: coeff_c(1, 0, -1)),
    "order-gen-F": ("order", lambda: gen_F(1, 0)),
    "order-expansion": ("order", lambda: bernoulli_expansion(_OM1, 1, -1)),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_inputs_are_refused_at_the_door(case):
    name, call = _MALFORMED[case]
    with pytest.raises(InvalidParameter, match=rf"\b{name}\b"):
        call()


@pytest.mark.parametrize(
    "s, w, periods",
    [
        (mpf("3.5"), mp.mpc("1.3", "0.5"), (1, mpf("0.7"))),
        (mpf("4.5"), mpf("1.3"), (1, mpf("0.7") * mp.expj(mpf("0.3")), mpf("1.2"))),
    ],
    ids=["complex-w", "complex-period"],
)
def test_direct_mixed_inputs_match_complex_arithmetic(widened, s, w, periods):
    # real s with a complex w, and a complex period among real ones: the real
    # ones stay mpf, and the sum agrees with the one built under ``widened``,
    # all mpc, within 2^(8 - bits) of the value; the estimates to 3 digits
    res = zeta_direct(s, w, OmegaVector.of(*periods), P)
    with widened():
        ref = zeta_direct(s, w, OmegaVector.of(*periods), P)
    bound = mpf(2) ** (8 - P.precision_bits - 16)
    assert abs(res.value - ref.value) <= bound * abs(ref.value)
    assert abs(res.err_estimate - ref.err_estimate) <= mpf("1e-3") * ref.err_estimate


@pytest.mark.parametrize("w", [-1, mp.mpc(0, 1)], ids=["negative", "imaginary"])
def test_every_entry_point_requires_the_right_half_plane(w):
    om = OmegaVector.of(1)
    for call in (
        lambda: zeta_direct(mpf("2.5"), w, om, P),
        lambda: zeta_contour(mpf("2.5"), w, om, P),
        lambda: log_hyper_gamma(1, 1, w, om, P),
        lambda: p0_closed_form(1, 1, w, P),
    ):
        with pytest.raises(InvalidParameter, match=r"Re\(w\) > 0"):
            call()


def test_direct_rejects_small_s():
    with pytest.raises(InvalidParameter):
        zeta_direct(1, 1, OmegaVector.of(1), P.with_target(1e-20))


def test_bernoulli_tail_refuses_terms_that_grow_above_eps():
    # the series is asymptotic: once a term grows, none will reach eps
    terms = iter([mpf(1), mpf("0.5"), mpf("0.6"), mpf("1e-40")])
    with pytest.raises(ConvergenceTooSlow, match="grew"):
        evaluators._bernoulli_tail(mpf(0), terms, mpf("1e-30"))


def test_gap_to_cone_is_zero_inside_the_sector():
    # -z = 1 + 0.1i lies between the angles 0 and 0.3, so z is in the cone
    assert evaluators._gap_to_cone(-1 - 0.1j, (0.0, 0.3)) == 0j


def _equal_period_form(s, w, om, r):
    """zeta_r(s, w; (om,) * r) = om^-s sum_n C(n + r - 1, r - 1) (n + x)^-s,
    x = w / om, summed as Hurwitz zetas: C(n + r - 1, r - 1) (r - 1)! is
    prod_{0 < j < r} (y + j - x) in y = n + x, whose y^k takes zeta(s - k, x)."""
    x = w / om
    c = [mpf(1)]
    for j in range(1, r):
        a = j - x
        c = [a * c[0]] + [c[k - 1] + a * c[k] for k in range(1, len(c))] + [c[-1]]
    total = mp.fsum(ck * mp.zeta(s - k, x) for k, ck in enumerate(c))
    return mp.power(om, -s) / mp.factorial(r - 1) * total


# real and complex periods (|arg| <= 0.3), both targets, Im s up to 10
@pytest.mark.parametrize(
    "om, s, target",
    [
        (mpf("1.3"), mpf("4.5"), 1e-22),
        (mpf("0.6"), mpf("3.7"), 1e-30),
        (mp.rect(0.8, 0.3), mp.mpc("4.5", "10"), 1e-22),
        (mp.rect(1.1, -0.25), mp.mpc("3.6", "-4"), 1e-30),
    ],
    ids=["real", "real-1e30", "complex-im10", "complex-1e30"],
)
def test_direct_r3_equal_periods(om, s, target):
    # zeta_3(s, w; (om, om, om)) = om^{-s} sum_n (n + 1)(n + 2)/2 (n + x)^{-s}, x = w/om,
    #   = om^{-s}/2 [zeta(s-2, x) + (3 - 2x) zeta(s-1, x) + (x-1)(x-2) zeta(s, x)]
    w = mpf("1.7")
    res = zeta_direct(s, w, OmegaVector.of(om, om, om), P.with_target(target))
    with SHARP.context():
        assert abs(res.value - _equal_period_form(s, w, om, 3)) <= 5 * res.err_estimate
    assert res.err_estimate <= target


@pytest.mark.parametrize("om, s, target", [(mpf("1.3"), mpf("5.5"), 1e-22)], ids=["r4-real"])
def test_direct_r4_equal_periods(om, s, target):
    # the cubic Hurwitz form of C(n + 3, 3) (n + x)^-s
    w = mpf("1.7")
    res = zeta_direct(s, w, OmegaVector.of(om, om, om, om), P.with_target(target))
    with SHARP.context():
        assert abs(res.value - _equal_period_form(s, w, om, 4)) <= res.err_estimate <= target


# a tail that starts as soon as the level is d0 from the poles needs d0 to
# count the periods' scale, (2 pi / rho)^Re(s) / Gamma(Re s): without it
# these raised ConvergenceTooSlow at small periods and loose targets; and its
# inner sums need room for the tail's terms, not for 2N + 6 of them: at
# |Im s| = 40 a head of one point left the estimate above 1e-10
@pytest.mark.parametrize(
    "r, om, s, w, target",
    [
        (1, mpf(1), mpf("2.5"), mpf(1), 1e-4),
        (1, mpf("0.1"), mpf("9.3"), mpf("0.05"), 1e-22),
        (2, mpf("0.1"), mpf("2.3"), mpf("0.05"), 1e-22),
        (3, mpf(1), mpf("4.5"), mpf("0.05"), 1e-4),
        (2, mp.rect(0.3, 0.9), mp.mpc("3.5", "40"), mp.mpc("0.5", "8"), 1e-10),
    ],
    ids=["r1-loose", "r1-small", "r2-small", "r3-loose", "r2-im40"],
)
def test_direct_tail_distance_counts_scale_and_budget(r, om, s, w, target):
    res = zeta_direct(s, w, OmegaVector.of(*[om] * r), P.with_target(target))
    with mp.workprec(400):
        assert abs(res.value - _equal_period_form(s, w, om, r)) <= res.err_estimate <= target


def test_direct_head_starts_at_d0_from_the_cone():
    # a level that starts d0 from the cone sums no head (the tail's inner
    # sums at a far tail point), and otherwise stops at the first point d0
    # away whose gap points forward
    assert evaluators._head_length(mpf(12), (), 12) == 0
    assert evaluators._head_length(mp.mpc(3, 20), (), 12) == 0
    assert evaluators._head_length(mpf("11.5"), (), 12) == 1
    assert evaluators._head_length(mpf(-20), (), 12) == 32
    # two periods 1 and e^{1.3i}: the cone is the sector between -1 and
    # -e^{1.3i}, and x = 20 e^{-0.5i} is 20 from it
    assert evaluators._head_length(mp.rect(20, -0.5), (0.0, 1.3), 12) == 0


def _mpf_tail_distance(s, eps, scale):
    """d0 as ``evaluators._tail_distance`` took it in mpf, at the working
    precision: the reference for its float form."""
    decay = mpf("1.3") * -mp.log(eps)
    if s.imag:
        decay += mp.pi * abs(s.imag)
    sigma = float(s.real)
    decay += max(0.0, sigma * scale - lgamma(sigma))
    return int(mp.ceil(max(abs(s) + 2, decay) / (2 * mp.pi)))


@pytest.mark.parametrize(
    "s",
    [mpf("1.25"), mpf("2.5"), mpf("4.5"), mpf("17.3"), mpf(300)]
    + [mp.mpc(*x) for x in (("3.5", "10"), ("2.5", "-40"), ("4.5", "120"), ("300", "-120"))],
    ids=str,
)
def test_tail_distance_in_floats_matches_mpf(s):
    # the float bound's ceiling is the mpf one's, for targets from 1e-4 down
    # to 2^-1100 (below the floats' range) and scales of both signs
    with P.context(16):
        for eps in (mpf("1e-4"), mpf("3.7e-23"), mpf("1e-55"), mpf("1e-150"), mpf("1e-300"),
                    mpf(2) ** -1100):
            for scale in (-2.3, -0.5, 0.0, 0.4, float(mp.log(2 * mp.pi)), 3.2):
                assert evaluators._tail_distance(s, eps, scale) == _mpf_tail_distance(s, eps, scale)


def _tail_powers(x, s):
    """(k, x^{-(s+k)}) for the tail offsets k = -1, 0, 1, 3, 5, ... in that
    order, from the single power p = x^{-s}: p x, p, then steps of x^{-2},
    with 20 guard bits, each power rounded once to the working precision."""
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


def _mpf_power_tail(s, om, y, eps):
    """The one-period level's Bernoulli tail summed in mpf, term by term: the
    weight (B_2j / (2j)!) (s)_{2j-1} om^{2j-1} times the power
    y^{-(s+2j-1)} from ``_tail_powers``; the reference for
    ``evaluators._power_tail``.  Returns (sum, |last term|, number of
    terms, sum |term|)."""
    powers = _tail_powers(y, s)
    next(powers), next(powers)  # the two leading terms' powers
    size = []

    def terms():
        rising = s * om  # (s)_{2j-1} om^{2j-1}
        for j in count(1):
            k, power = next(powers)
            assert k == 2 * j - 1
            term = constants.bernoulli_over_factorial(2 * j) * rising * power
            size.append(abs(term))
            yield term
            rising *= (s + 2 * j - 1) * (s + 2 * j) * om * om

    total, last = evaluators._bernoulli_tail(mpf(0), terms(), eps)
    return total, last, len(size), mp.fsum(size)


def _power_tail_cases():
    """(bits, target, s, om, y) on a fixed-seed grid: s real and complex with
    Re s up to 300 and |Im s| up to 120, real and complex periods with |arg|
    <= 1.3, and tail points from d0 to 10 d0 periods out."""
    rng = random.Random(37)
    for bits in (192, 448, 640):
        for target in ("1e-22", "1e-40", "1e-55", "1e-150"):
            for i in range(4):
                with mp.workprec(bits + 16):
                    re_s = mpf(rng.choice((rng.uniform(1.25, 12), rng.uniform(12, 300))))
                    s = re_s if i % 2 else mp.mpc(re_s, rng.uniform(-120, 120))
                    arg = 0 if i == 0 else rng.uniform(-1.3, 1.3)
                    om = mpf(rng.uniform(0.5, 2)) * (mp.expj(arg) if arg else 1)
                    d0 = evaluators._tail_distance(s, mpf(target), 1.0)
                    # y / om at d0 to 10 d0 from the pole, with Re y > 0
                    turn = rng.uniform(-1, 1) * (mp.pi / 2 - abs(arg)) * 0.9
                    y = om * mpf(rng.uniform(1, 10) * d0) * mp.expj(turn)
                yield bits, target, s, om, y


@pytest.mark.parametrize("bits, target, s, om, y", list(_power_tail_cases()))
def test_power_tail_matches_the_mpf_loop(monkeypatch, bits, target, s, om, y):
    # against the mpf loop at 64 more bits, for a target relative to |p|:
    # the same number of terms, the last to 3 digits, and the sum within the
    # bound of _power_tail's docstring (its integer part, the return to mpf,
    # the difference of the two p, and the reference's own rounding)
    terms, fraction = [], evaluators._bernoulli_fraction
    monkeypatch.setattr(evaluators, "_bernoulli_fraction", lambda n: terms.append(n) or fraction(n))
    with mp.workprec(bits + 16):
        with mp.workprec(mp.prec + 20):
            p = mp.power(y, -s)
        eps = mpf(target) * abs(p)
        value, last, size = evaluators._power_tail(s, om, y, p, eps)
    with mp.workprec(bits + 16 + 64):
        ref, ref_last, count_, ref_size = _mpf_power_tail(s, om, y, eps)
        with mp.workprec(mp.prec + 20):
            p_ref = mp.power(y, -s)
        sum_c = ref_size / abs(p)
        u = mpf(2) ** -(bits + 16 + 24)
        bound = abs(p) * (
            count_ * (mpf("1.54") + mpf("4.16") * sum_c) * u
            + 3 * mpf(2) ** -(bits + 16) * sum_c
            + count_ * mpf(2) ** -(bits + 16 + 60) * sum_c
        ) + abs(p - p_ref) * sum_c
        assert len(terms) == count_
        assert abs(value - ref) <= bound
        assert abs(last - ref_last) <= mpf("1e-3") * ref_last
        assert abs(size - float(ref_size)) <= 1e-12 * float(ref_size)  # 0 below floats' range


@pytest.mark.parametrize(
    "s, om, reach",
    [
        (mpf("4.5"), mpf(1), "0.3"),
        (mp.mpc("3.5", "40"), mp.expj(mpf("1.2")), "0.5"),
        (mpf(300), mpf("0.7"), "0.5"),
    ],
    ids=["real", "complex", "large-s"],
)
def test_power_tail_raises_where_the_mpf_loop_does(s, om, reach):
    # a tail point inside d0: the terms grow before they reach the target
    with P.context(16):
        eps = mpf("1e-40")
        y = om * mpf(reach) * evaluators._tail_distance(s, eps, 1.0)
        with mp.workprec(mp.prec + 20):
            p = mp.power(y, -s)
        with pytest.raises(ConvergenceTooSlow, match="grew") as ref:
            _mpf_power_tail(s, om, y, eps * abs(p))
        with pytest.raises(ConvergenceTooSlow, match="grew") as res:
            evaluators._power_tail(s, om, y, p, eps * abs(p))
        assert str(res.value) == str(ref.value)


def test_direct_r0_is_a_power():
    s, w = mp.mpc("3.5", "2"), mp.mpc("1.5", "-0.5")
    res = zeta_direct(s, w, OmegaVector.of(), P)
    with P.context(16):
        assert res.value == mp.power(w, -s)
    assert res.err_estimate == 0


def test_direct_real_inputs_give_mpc():
    om = (mpf("1.1"), mpf("0.7"))
    real = zeta_direct(mpf("3.5"), mpf("1.5"), OmegaVector.of(*om), P)
    cplx = zeta_direct(mp.mpc("3.5", 0), mp.mpc("1.5", 0), OmegaVector.of(*map(mp.mpc, om)), P)
    assert isinstance(real.value, mp.mpc) and isinstance(cplx.value, mp.mpc)
    assert real.value == cplx.value
    assert real.err_estimate == cplx.err_estimate


def test_direct_one_power_per_lattice_point(monkeypatch):
    # r = 2: every one-omega inner sum takes one mp.power per head point and
    # one at its tail point, whose exponents s-1, s, s+1, ... all derive from it
    heads, powers = [], []
    head_length, power = evaluators._head_length, mp.power
    monkeypatch.setattr(
        evaluators, "_head_length", lambda *a: heads.append(head_length(*a)) or heads[-1]
    )
    monkeypatch.setattr(mp, "power", lambda x, y: powers.append(x) or power(x, y))
    zeta_direct(mpf("3.5"), mpf("1.5"), OmegaVector.of(1, mpf("1.3")), P)
    top, *inner = heads
    assert len(inner) > top  # the head's inner sums and the tail's
    assert len(powers) == sum(n + 1 for n in inner)
    # the tail's inner sums start d0 from the poles, where most sum no head
    assert len(powers) <= 100


def test_direct_r3_power_count(monkeypatch):
    # 9965 powers over 2792 distinct points when every head had d0 points
    powers = []
    power = mp.power
    monkeypatch.setattr(mp, "power", lambda x, y: powers.append(x) or power(x, y))
    zeta_direct(mpf("4.5"), mpf("1.7"), OmegaVector.of(mpf("0.9"), mpf("1.3"), mpf("1.6")), P)
    assert len(powers) <= 600


def test_contour_matches_hurwitz():
    for s in (mpf("-2.5"), mpf("0.5"), mpf("3.5")):
        res = zeta_contour(s, mpf("1.3"), OmegaVector.of(1), P)
        assert abs(res.value - mp.zeta(s, mpf("1.3"))) < mpf("1e-22")


def test_contour_value_is_real_for_real_inputs(monkeypatch):
    # real s, w and periods: the value is the integral's real part, an mpf,
    # with the integral's estimate (its imaginary part was rounding noise,
    # 3.1e-154 for omega = (1)); a complex s, w or period keeps the mpc
    om = OmegaVector.of(1, mpf("1.3"))
    integrals, integrate = [], evaluators.hankel_integrate
    monkeypatch.setattr(
        evaluators, "hankel_integrate", lambda *a: integrals.append(integrate(*a)) or integrals[-1]
    )
    for s in (mpf("2.5"), mp.mpc("-2.5", 0)):
        res = zeta_contour(s, mpf("1.3"), om, P)
        value, err = integrals[-1]
        assert isinstance(value, mp.mpc) and mp.im(value) != 0
        assert isinstance(res.value, mpf)
        assert res.value == mp.re(value) and res.err_estimate == err
    for s, w, o in (
        (mp.mpc("2.5", "0.5"), mpf("1.3"), om),
        (mpf("2.5"), mp.mpc("1.3", "0.2"), om),
        (mpf("2.5"), mpf("1.3"), OmegaVector.of(1, mp.expj(mpf("0.3")))),
    ):
        assert isinstance(zeta_contour(s, w, o, P).value, mp.mpc)


def test_contour_target_covers_the_prefactor():
    # 1 / (Gamma(s) (e^{2 pi i s} - 1)) is about 1.8e18 at s = -20.5, and it
    # is the integrand's weight, so the integral meets the target with it;
    # against the equal-period Hurwitz form zeta(s - 1, w) + (1 - w) zeta(s, w)
    s, w = mpf("-20.5"), mpf("2.5")
    res = zeta_contour(s, w, OmegaVector.of(1, 1), P)
    assert res.err_estimate <= P.target_abs_error
    with SHARP.context():
        ref = mp.zeta(s - 1, w) + (1 - w) * mp.zeta(s, w)
        assert abs(res.value - ref) <= 5 * res.err_estimate


def test_contour_target_below_one_over_prefactor(monkeypatch):
    # |prefactor| is about 2e-23 here (the outbound ray carries e^{20 pi}); as
    # the integrand's weight it scales the estimates too, so the integral
    # needs about 5 digits, not the 1e-22 of an unweighted integrand, which
    # took 16323 evaluations of f_omega
    s, w, om = mp.mpc("2.3", "-10"), mp.mpc("0.5", "10"), OmegaVector.of(mpf("0.1"), 2)
    ts = []
    f_omega = hankel._f_omega_at
    monkeypatch.setattr(hankel, "_f_omega_at", lambda o, t, thr: ts.append(t) or f_omega(o, t, thr))
    res = zeta_contour(s, w, om, P)
    assert res.err_estimate <= P.target_abs_error
    assert len(ts) < 8000
    ref = zeta_direct(s, w, om, PrecisionPolicy(P.precision_bits + 64, 1e-30))
    with SHARP.context():
        assert abs(res.value - ref.value) <= res.err_estimate + ref.err_estimate


with mp.workprec(256):
    _S = mpf(3) / 2 + mp.mpc(0, 1) / 3
    _W = mpf(1) / 3 + mp.mpc(0, 1) / 7
    _W_ASYM = mpf(61) / 3
_OM = OmegaVector.of(1, mpf("1.25"))
_EXPERIMENT = default_experiment(1, 0)

_EVALUATORS = {
    "zeta_contour": lambda: zeta_contour(_S, _W, _OM, P),
    "zeta_direct": lambda: zeta_direct(_S + 2, _W, _OM, P),
    "log_hyper_gamma": lambda: log_hyper_gamma(1, 0, _W, _OM, P),
    "balanced_P": lambda: balanced_P(2, 1, _W, _OM, P),
    "balanced_P_combination": lambda: balanced_P(2, 1, _W, _OM, P, METHOD_COMBINATION),
    # lambda = 6 / Re(w) = 0.2 is not a binary fraction
    "hankel_integrate": lambda: hankel.hankel_integrate(
        hankel.IntegrandSpec(omega=OmegaVector.of(1), w=30, k=1, poly=PolyC((0, 1))), None, P
    ),
    "rhs_expansion": lambda: rhs_expansion(_EXPERIMENT, _W_ASYM),
    "lhs_value": lambda: lhs_value(_EXPERIMENT, _W_ASYM),
    "remainder_reduction_check": lambda: remainder_reduction_check(_EXPERIMENT, _W_ASYM, 1),
}


@pytest.mark.parametrize("name", list(_EVALUATORS))
def test_arguments_convert_at_the_working_precision(name):
    # arguments built at 256 bits give bit-identical values whether the
    # caller's context has 53 bits or 256: everything, lambda included, is
    # taken at the policy's precision
    with mp.workprec(53):
        low = _EVALUATORS[name]()
    with mp.workprec(256):
        high = _EVALUATORS[name]()
    assert low == high


def test_periods_keep_their_bits():
    # a 256-bit period wrapped in mpmath's 53-bit default context gives the
    # same log_hyper_gamma as one wrapped at 256 bits
    with mp.workprec(256):
        periods = (1 + mpf(1) / 3, mp.mpc(1, mpf(1) / 7))
        high = OmegaVector.of(*periods)
        w = mpf(1) / 3
    with mp.workprec(53):
        low = OmegaVector.of(*periods)
    assert low == high
    low, high = (log_hyper_gamma(1, 0, w, om, P) for om in (low, high))
    assert abs(low.value - high.value) <= low.err_estimate


def test_values_keep_their_bits():
    # w, a complex k and polynomial and series coefficients wrapped in the
    # 53-bit default context keep the bits they were made with
    with mp.workprec(256):
        w = mpf(1) / 3
        k = mp.mpc(mpf(1) / 3, mpf(2) / 7)
        c = mp.mpc(1, 1) / 7
    with mp.workprec(53):
        poly = PolyC((c, 1))
        tail = LaurentSeries(0, (1, c))
        spec = hankel.IntegrandSpec(omega=OmegaVector.of(1), w=w, k=k, poly=poly, tail=tail)
    assert spec.w == w and spec.w.imag == 0
    assert spec.k == k
    assert poly.coeffs[0] == c
    assert tail.coeffs[1] == c
    # and so do an experiment's shift a and its mpf grid points
    with mp.workprec(256):
        a = mp.mpc(mpf(1) / 3, mpf(1) / 7)
        grid = (mpf(61) / 3, mpf(40), mpf(80), mpf(160))
    with mp.workprec(53):
        e = AsymExperiment(OmegaVector.of(1), OmegaVector.of(1), a, 1, 0, grid)
    assert e.a == a
    assert e.w_grid == grid


def test_contour_hands_the_callers_w_to_the_integral(monkeypatch):
    # a 256-bit w reaches the integrand unrounded under a 192-bit policy, and
    # k = -s is taken at the policy's bits plus 64
    specs = []
    integrate = evaluators.hankel_integrate
    monkeypatch.setattr(
        evaluators, "hankel_integrate", lambda ispec, lam, p: specs.append(ispec) or integrate(ispec, lam, p)
    )
    zeta_contour(_S, _W, _OM, P)
    (ispec,) = specs
    assert ispec.w == _W
    with mp.workprec(256):
        assert ispec.k == -_S


def test_contour_sharp_w_meets_the_target():
    # w = 13/10 at 300 bits: rounded at 208 bits, it put the value 3.0e-63 off
    # with an estimate of 1.9e-63; against the equal-period Hurwitz form
    target = 1e-62
    with mp.workprec(300):
        s, w = mp.mpc("2.5", "0.5"), mpf(13) / 10
    res = zeta_contour(s, w, OmegaVector.of(1, 1), P.with_target(target))
    with mp.workprec(600):
        assert abs(res.value - _equal_period_form(s, w, 1, 2)) <= res.err_estimate <= target


def test_contour_large_prefactor_meets_the_target():
    # the weight is about 8e47 at s = -40.5, and the value about 2.8e16
    s, w = mpf("-40.5"), mpf("2.5")
    res = zeta_contour(s, w, OmegaVector.of(1, 1), P)
    with mp.workprec(600):
        ref = _equal_period_form(s, w, 1, 2)
        assert abs(res.value - ref) <= res.err_estimate <= P.target_abs_error


@pytest.mark.parametrize("s", ["-60.5", "-170.5"])
def test_contour_floor_above_target_raises(s):
    # the weight is about 1e82 at s = -60.5 and 1.5e307 at s = -170.5, so the
    # first pass's rounding floor at 256 bits is far above 1e-22
    with pytest.raises(PrecisionUnreachable, match="rounding floor"):
        zeta_contour(mpf(s), mpf("2.5"), OmegaVector.of(1, 1), P)


def test_contour_rejects_near_integer_s():
    with pytest.raises(TooCloseToInteger):
        zeta_contour(2, 1, OmegaVector.of(1), P)
    with pytest.raises(TooCloseToInteger):
        zeta_contour(mpf("2.0005"), 1, OmegaVector.of(1), P)


def test_right_half_plane_enforced():
    with pytest.raises(InvalidParameter):
        zeta_contour(mpf("2.5"), -1, OmegaVector.of(1), P)
    with pytest.raises(InvalidParameter):
        log_hyper_gamma(1, 0, 0, OmegaVector.of(1), P)
    with pytest.raises(InvalidParameter):
        balanced_P(1, 0, mp.mpc(-2, 1), OmegaVector.of(1), P)


def test_loggamma_point_values():
    # log 1Gamma_{1,0}(w; 1) = log(Gamma(w)/sqrt(2 pi))
    for w in (mpf("0.5"), mpf(1), mpf("2.5")):
        res = log_hyper_gamma(1, 0, w, OmegaVector.of(1), P)
        ref = mp.loggamma(w) - mp.log(2 * mp.pi) / 2
        assert abs(res.value - ref) < mpf("1e-22")


# In these two a ray panel's values run more than 2^1024 below its largest
# (one from 4e-132 to 2e-1752).  Scaled by the middle value, the float sums
# of the panel's estimate overflowed: they raised NodeBudgetExceeded "(at
# nan)" and PrecisionUnreachable with a floor of +inf.


def test_loggamma_at_640_bits_where_panel_values_span_floats():
    p = PrecisionPolicy(640, 1e-140)
    res = log_hyper_gamma(1, 0, mpf("0.5"), OmegaVector.of(1), p)
    with mp.workprec(900):
        ref = mp.loggamma(mpf("0.5")) - mp.log(2 * mp.pi) / 2
        assert abs(res.value - ref) <= res.err_estimate <= p.target_abs_error


def test_r2_loggamma_at_640_bits_where_panel_values_span_floats():
    # the shift relation against the Hurwitz form at 800 bits:
    # zeta_2(s, w) - zeta_2(s, w + 1) = 1.3^-s zeta(s, w / 1.3)
    p, w, om = PrecisionPolicy(640, 1e-150), mpf("0.05"), OmegaVector.of(1, mpf("1.3"))
    res, shifted = (log_hyper_gamma(2, 8, x, om, p) for x in (w, mp.fadd(w, 1, exact=True)))
    with mp.workprec(800):
        o = om.omegas[1]
        log_o, (z0, z1, z2) = mp.log(o), (mp.zeta(-8, w / o, d) for d in range(3))
        ref = o ** 8 * (log_o ** 2 * z0 - 2 * log_o * z1 + z2)
        assert abs(res.value - shifted.value - ref) <= res.err_estimate + shifted.err_estimate
    assert res.err_estimate <= p.target_abs_error


# every m <= 3, k <= 2 and w at least once, in 12 of the 36 combinations
@pytest.mark.parametrize(
    "m, k, w",
    [(m, (m + i) % 3, w) for m in range(4) for i, w in enumerate(("0.7", "2.5", "11"))],
)
def test_loggamma_r2_equal_periods(m, k, w):
    # zeta_2(s, w; (1, 1)) = sum_n (n + 1) (w + n)^{-s}
    #                      = zeta(s - 1, w) + (1 - w) zeta(s, w)
    w = mpf(w)
    res = log_hyper_gamma(m, k, w, OmegaVector.of(1, 1), P)
    oracle = mp.zeta(-k - 1, w, m) + (1 - w) * mp.zeta(-k, w, m)
    assert abs(res.value - oracle) <= 5 * res.err_estimate


def test_m0_gives_zeta_at_minus_k():
    # log 0Gamma_{1,k} = zeta_1(-k, w); zeta(-1, w) = -B_2(w)/2
    for w in (mpf("0.5"), mpf(1), mpf(3)):
        res = log_hyper_gamma(0, 1, w, OmegaVector.of(1), P)
        ref = -mp.bernpoly(2, w) / 2
        assert abs(res.value - ref) < mpf("1e-22")


def test_balanced_two_paths_agree():
    om = OmegaVector.of(1, mpf("1.3"))
    for m, k in ((1, 0), (1, 2), (2, 1), (0, 2)):
        a = balanced_P(m, k, mpf("1.5"), om, P)
        b = balanced_P(m, k, mpf("1.5"), om, P, method=METHOD_COMBINATION)
        assert abs(a.value - b.value) < mpf("1e-20")


# each log gamma aims at target / sum |c|: with the full target apiece the
# weighted estimates summed to 1.73e-55 and 1.22e-32
@pytest.mark.parametrize("m, k, target", [(3, 3, 1e-55), (3, 1, 1e-32)])
def test_balanced_combination_meets_its_target(m, k, target):
    om, w, p = OmegaVector.of(1, mpf("1.3")), mpf(30), P.with_target(target)
    comb = balanced_P(m, k, w, om, p, method=METHOD_COMBINATION)
    contour = balanced_P(m, k, w, om, p)
    assert comb.err_estimate <= target
    with SHARP.context():
        assert abs(comb.value - contour.value) <= comb.err_estimate + contour.err_estimate


def test_balanced_combination_share_underflow_is_unreachable():
    # 5e-324 over the weights' sum 5 rounds to 0, below every float target
    with pytest.raises(PrecisionUnreachable):
        balanced_P(2, 1, 1, OmegaVector.of(1), P.with_target(5e-324), method=METHOD_COMBINATION)


def test_balanced_combination_rejects_negative_k():
    with pytest.raises(InvalidParameter):
        balanced_P(1, -1, 1, OmegaVector.of(1), P, method=METHOD_COMBINATION)


def test_balanced_negative_k_contour():
    # hierarchy: d/dw P(m, 0) = -P(m, -1), realized only by the contour path
    om = OmegaVector.of(1)
    w = mpf("1.5")
    h = w * mpf(2) ** -40
    tight = P.with_target(1e-30)
    fd = derivative_fd(lambda x: balanced_P(1, 0, x, om, tight).value, w, h)
    target = balanced_P(1, -1, w, om, tight).value
    assert abs(fd + target) < mpf("1e-15")


def test_r0_closed_form_matches_contour():
    om = OmegaVector.of()
    for m, k in ((1, 0), (1, 2), (2, 1)):
        for w in (mpf("0.5"), mp.e):
            res = balanced_P(m, k, w, om, P)
            assert abs(res.value - p0_closed_form(m, k, w, P)) < mpf("1e-22")


def test_invalid_method():
    with pytest.raises(InvalidParameter):
        balanced_P(1, 0, 1, OmegaVector.of(1), P, method="nope")


def _shift_holds(fn, periods, i, w):
    """The shift relation F_r(w) - F_r(w + omega_i) = F_{r-1}(w; omega
    without omega_i), within 5 times the summed estimates: it holds for
    every (m, k) because the weights c^m_{mu,k} do not depend on r."""
    om = OmegaVector.of(*(mp.mpmathify(cmath.rect(*pa)) for pa in periods))
    i %= om.r
    short = OmegaVector(om.omegas[:i] + om.omegas[i + 1:])
    parts = [fn(w, om), fn(w + om.omegas[i], om), fn(w, short)]
    with SHARP.context():
        dev = abs(parts[0].value - parts[1].value - parts[2].value)
        return dev <= 5 * mp.fsum(part.err_estimate for part in parts)


# r = 1..3 periods of modulus 0.5..2 with |arg| <= 1.3, the one dropped
# drawn, m <= 3, and Re(w) in [0.5, 4] with |Im w| <= Re(w) / 2
_SHIFT_DRAWS = dict(
    periods=st.lists(st.tuples(st.floats(0.5, 2), st.floats(-1.3, 1.3)), min_size=1, max_size=3),
    i=st.integers(0, 2),
    m=st.integers(0, 3),
    w_re=st.floats(0.5, 4),
    w_slope=st.floats(-0.5, 0.5),
)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(k=st.integers(0, 3), **_SHIFT_DRAWS)
@example(periods=[(1, 1.3), (0.7, -1.3), (1.4, 0.4)], i=1, m=3, k=3, w_re=1.5, w_slope=0.5)
@example(periods=[(2, -1.3)], i=0, m=1, k=0, w_re=0.5, w_slope=-0.5)
def test_shift_relation_log_hyper_gamma(periods, i, m, k, w_re, w_slope):
    w = mp.mpc(w_re, w_re * w_slope)
    assert _shift_holds(lambda x, om: log_hyper_gamma(m, k, x, om, P), periods, i, w)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(k=st.integers(-2, 3), **_SHIFT_DRAWS)
@example(periods=[(1, -1.3), (0.5, 1.3), (1.2, 0)], i=2, m=2, k=-2, w_re=4, w_slope=-0.5)
@example(periods=[(1.3, 1.3), (0.8, 0.2)], i=0, m=3, k=3, w_re=0.7, w_slope=0.3)
def test_shift_relation_balanced_P(periods, i, m, k, w_re, w_slope):
    w = mp.mpc(w_re, w_re * w_slope)
    assert _shift_holds(lambda x, om: balanced_P(m, k, x, om, P), periods, i, w)
