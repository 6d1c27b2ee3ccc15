"""Estimate honesty where the ray end T moves with the integrand, and for
the direct lattice sum.

Each integral grows its own T until the ray tail bound is below target / 10,
so at large w (where lambda is clamped) the tail term dominates the estimate,
and at Im s = -1.1 the outbound ray is ~1e3 times the inbound one.  Every
value must lie within 5 estimates of a reference at +64 bits and a 1e-40
target.  The direct sum's reference is the direct sum itself (at a 1e-40
target the contour raises NodeBudgetExceeded at s = 2.3 - 10i, w = 0.05 + 3i,
omega = (0.1, 2)), and, with equal periods, Hurwitz zetas from mp.zeta.
"""

import cmath
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from hyperzeta import (
    DEFAULT_POLICY,
    OmegaVector,
    PrecisionPolicy,
    balanced_P,
    default_experiment,
    log_hyper_gamma,
    zeta_contour,
    zeta_direct,
)
from hyperzeta.asymptotics import rhs_expansion
from hyperzeta.errors import ConvergenceTooSlow, PrecisionUnreachable

P = DEFAULT_POLICY
SHARP = PrecisionPolicy(P.precision_bits + 64, 1e-40)


# six drawn examples and two corners: eight in all
@settings(max_examples=6, derandomize=True, deadline=None)
@given(
    log_w=st.floats(math.log(0.5), math.log(200)),
    s_int=st.integers(-1, 3),
    s_frac=st.floats(0.1, 0.9),
    s_im=st.floats(-1.1, 1.1),
    k=st.integers(-2, 3),
    omegas=st.sampled_from([(1,), (1, 0.7), (1, cmath.rect(0.7, 1.3))]),
    target=st.sampled_from([1e-22, 1e-32]),
)
@example(log_w=math.log(200), s_int=-1, s_frac=0.1, s_im=-1.1, k=-2, omegas=(1, 0.7), target=1e-22)
@example(log_w=math.log(0.5), s_int=3, s_frac=0.9, s_im=-1.1, k=-1, omegas=(1,), target=1e-32)
def test_contour_estimates_are_honest(log_w, s_int, s_frac, s_im, k, omegas, target):
    w = mpf(math.exp(log_w))
    s = mp.mpc(s_int + s_frac, s_im)
    om = OmegaVector.of(*map(mp.mpmathify, omegas))
    for evaluate in (
        lambda p: zeta_contour(s, w, om, p),
        lambda p: balanced_P(1, k, w, om, p),
    ):
        res = evaluate(P.with_target(target))
        ref = evaluate(SHARP)
        with SHARP.context():
            assert abs(res.value - ref.value) <= 5 * res.err_estimate
        assert res.err_estimate <= target


# the zeta, log-gamma and P(2, 1) integrands at r <= 3 with |arg omega| <= 1.2
# and w in [0.5, 30], down to 1e-55: the estimate bounds the error itself,
# against a reference at +64 bits whose q and S polynomials have +64 bits too
REF = PrecisionPolicy(P.precision_bits + 64, 1e-75)
_INTEGRANDS = {
    "zeta": lambda s, m, k, w, om, p: zeta_contour(s, w, om, p),
    "log_hyper_gamma": lambda s, m, k, w, om, p: log_hyper_gamma(m, k, w, om, p),
    "P21": lambda s, m, k, w, om, p: balanced_P(2, 1, w, om, p),
}


@settings(max_examples=4, derandomize=True, deadline=None)
@given(
    integrand=st.sampled_from(sorted(_INTEGRANDS)),
    periods=st.lists(st.tuples(st.floats(0.5, 2), st.floats(-1.2, 1.2)), min_size=1, max_size=3),
    log_w=st.floats(math.log(0.5), math.log(30)),
    s=st.tuples(st.integers(-3, 4), st.floats(0.1, 0.9), st.floats(-1, 1)),
    m=st.integers(0, 3),
    k=st.integers(0, 3),
    target=st.sampled_from([1e-22, 1e-40, 1e-55]),
)
# the P(2, 1) integrals whose estimates missed rounding at 1e-55 while the
# polynomials carried only 16 guard bits
@example(integrand="P21", periods=[(1, 0), (1.3, 0)], log_w=math.log(8), s=(0, 0.5, 0), m=0, k=0, target=1e-55)
@example(integrand="P21", periods=[(1, 0), (1.3, 0)], log_w=math.log(30), s=(0, 0.5, 0), m=0, k=0, target=1e-55)
# a first pass of one ray panel, whose far-end bound is taken at the cut
# where that panel ends
@example(integrand="P21", periods=[(1, 0), (1.3, 0), (0.7, 0)], log_w=math.log(30), s=(0, 0.5, 0), m=0, k=0, target=1e-40)
def test_estimates_bound_the_error_down_to_1e55(integrand, periods, log_w, s, m, k, target):
    evaluate = _INTEGRANDS[integrand]
    om = OmegaVector.of(*(mp.mpmathify(cmath.rect(*pa)) for pa in periods))
    w = mpf(math.exp(log_w))
    s = mp.mpc(s[0] + s[1], s[2])
    res = evaluate(s, m, k, w, om, P.with_target(target))
    with REF.context():
        ref = evaluate(s, m, k, w, om, REF)
        assert abs(res.value - ref.value) <= res.err_estimate <= target


def _value_err(res):
    return res.value, res.err_estimate


# one complex input among real ones, so the circle evaluates every sample
# and mirrors none: a complex w, a complex period, and for rhs_expansion a
# complex shift a, whose multiple Bernoulli tail has complex coefficients
_REAL_OMEGA = OmegaVector.of(1, mpf(1.3))
_MIXED = {
    "complex-w": lambda p: _value_err(log_hyper_gamma(1, 1, mp.mpc(0.5, -3), _REAL_OMEGA, p)),
    "complex-omega": lambda p: _value_err(
        balanced_P(2, 1, mpf(1.5), OmegaVector.of(1, mp.mpmathify(cmath.rect(1.3, 0.4))), p)
    ),
    "complex-tail": lambda p: rhs_expansion(
        replace(default_experiment(1, 0, policy=p), a=mp.mpc(0.5, 0.4)), mpf(20)
    ),
}


@pytest.mark.parametrize("case", list(_MIXED))
def test_mixed_real_and_complex_inputs_are_honest(case):
    value, err = _MIXED[case](P.with_target(1e-40))
    with REF.context():
        ref, _ = _MIXED[case](REF)
        assert abs(value - ref) <= err <= 1e-40


# at 1e-55 the absorbed tail needs the integral's 64 guard bits: built with
# 16 the error at w = 8000 was 90 times the estimate
@pytest.mark.parametrize(
    "m, k, w, target, ref_policy",
    [
        pytest.param(1, 0, 160, 1e-22, SHARP, id="m1-k0-w160"),
        pytest.param(2, 1, 1000, 1e-55, PrecisionPolicy(256, 1e-62), id="m2-k1-w1000"),
        pytest.param(2, 1, 8000, 1e-55, PrecisionPolicy(256, 1e-62), id="m2-k1-w8000"),
    ],
)
def test_rhs_expansion_estimate_is_honest_at_large_w(m, k, w, target, ref_policy):
    e = default_experiment(m, k, policy=P.with_target(target))
    val, err = rhs_expansion(e, w)
    ref, _ = rhs_expansion(replace(e, policy=ref_policy), w)
    with ref_policy.context():
        assert abs(val - ref) <= err <= target


@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    r=st.integers(1, 2),
    om_abs=st.tuples(st.floats(0.1, 2), st.floats(0.1, 2)),
    om_arg=st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
    w_re=st.floats(0.05, 3),
    w_im=st.floats(-3, 3),
    s_re=st.floats(0.3, 3, exclude_min=True, exclude_max=True),
    s_im=st.floats(-10, 10),
    target=st.sampled_from([1e-22, 1e-30]),
)
def test_direct_estimates_are_honest(r, om_abs, om_arg, w_re, w_im, s_re, s_im, target):
    om = OmegaVector.of(*(mp.rect(a, t) for a, t in zip(om_abs[:r], om_arg[:r])))
    s = mp.mpc(r + s_re, s_im)
    w = mp.mpc(w_re, w_im)
    res = zeta_direct(s, w, om, P.with_target(target))
    ref = zeta_direct(s, w, om, SHARP)
    with SHARP.context():
        assert abs(res.value - ref.value) <= 5 * res.err_estimate
    assert res.err_estimate <= target


# an independent reference: with equal periods the lattice collapses to
# Hurwitz zetas, om^-s zeta(s, x) at r = 1 and
# om^-s [zeta(s-1, x) + (1-x) zeta(s, x)] at r = 2 (x = w / om; |arg om| <= 1
# keeps every arg(x + n) = arg(w + n om) - arg(om) on the principal branch),
# taken from mp.zeta at 600 bits, so a faulty head rule cannot move the
# value and its reference alike
@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    r=st.integers(1, 2),
    om_abs=st.floats(0.1, 2),
    om_arg=st.floats(-1, 1),
    w_re=st.floats(0.05, 3),
    w_im=st.floats(-30, 30),
    s_re=st.floats(0.3, 3, exclude_min=True, exclude_max=True),
    s_im=st.floats(-120, 120),
    target=st.sampled_from([1e-22, 1e-40]),
)
def test_direct_estimates_are_honest_against_hurwitz(r, om_abs, om_arg, w_re, w_im, s_re, s_im, target):
    om = mp.rect(om_abs, om_arg)
    s, w = mp.mpc(r + s_re, s_im), mp.mpc(w_re, w_im)
    try:
        res = zeta_direct(s, w, OmegaVector.of(*[om] * r), P.with_target(target))
    except (PrecisionUnreachable, ConvergenceTooSlow):
        return
    with mp.workprec(600):
        x = w / om
        ref = mp.zeta(s, x) if r == 1 else mp.zeta(s - 1, x) + (1 - x) * mp.zeta(s, x)
        ref *= mp.power(om, -s)
        assert abs(res.value - ref) <= res.err_estimate <= target


@pytest.mark.parametrize(
    "s, w, target",
    [("2.5+120j", "0.3+20j", 1e-22), ("3.5-80j", "0.5-30j", 1e-22), ("2.5+60j", "0.3+5j", 1e-55)],
)
def test_direct_counts_its_rounding(s, w, target):
    # values of 6.8e77, 7.2e48 and 4.2e37, whose rounding at 208 bits exceeds
    # the target: the sum raises, or its estimate covers that rounding
    with mp.workprec(480):
        s, w = mp.mpc(complex(s)), mp.mpc(complex(w))
        ref = mp.zeta(s, w)
    try:
        res = zeta_direct(s, w, OmegaVector.of(1), P.with_target(target))
    except PrecisionUnreachable:
        return
    with mp.workprec(480):
        assert abs(res.value - ref) <= res.err_estimate <= target


def test_direct_head_grows_with_abs_s():
    # at this |s| a fixed 20-term head makes the Bernoulli terms grow
    with SHARP.context():
        s, w = mp.mpc(2.5, 120), mpf("1.3")
        res = zeta_direct(s, w, OmegaVector.of(1), P)
        assert abs(res.value - mp.zeta(s, w)) <= 5 * res.err_estimate
    assert res.err_estimate <= P.target_abs_error


@pytest.mark.xfail(strict=True, reason="known defect: complex periods near the imaginary axis at small Re(w)")
def test_period_near_the_imaginary_axis_is_honest():
    # a period at arg 1.45 puts rows of poles 0.12 from the ray in u = log t,
    # where one first-pass panel's K65 and G32 both miss and the estimate
    # shrinks by orders it has not earned: 8.16e-24 off, estimated 2.31e-31
    # (ROADMAP, "Rotate the problem, not the path"); the change that mends
    # it removes this marker
    with mp.workprec(53):
        o, w = mp.expjpi(mpf(1.45) / mp.pi), mpf("0.005")
    res = log_hyper_gamma(2, 0, w, OmegaVector.of(o), PrecisionPolicy(192, 1e-30))
    with mp.workprec(600):
        # the Hurwitz form: zeta_1(s, w; o) = o^-s zeta(s, w / o), and
        # log_hyper_gamma(2, 0) is its second s-derivative at s = 0
        ref = mp.diff(lambda s: mp.power(o, -s) * mp.zeta(s, w / o), 0, 2)
        assert abs(res.value - ref) <= res.err_estimate


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: periods near the imaginary axis on both sides")
def test_periods_near_the_axis_on_both_sides_are_honest():
    # periods at arg +-1.45 put rows of poles 0.12 from the ray on both
    # sides of the axis, which no rotation of the problem widens: 5.62e-39
    # off, estimated 7.09e-44 (ROADMAP, "Rotate the problem, not the path");
    # the reference, at 256 bits, a 1e-50 target and lam = 0.3, agrees with
    # one at 448 bits and 1e-95 within 2.5e-52.  The change that mends it
    # removes this marker
    with mp.workprec(53):
        o = mp.expjpi(mpf(1.45) / mp.pi)
    omega, w = OmegaVector.of(o, mp.conj(o)), mpf("0.005")
    res = log_hyper_gamma(2, 0, w, omega, PrecisionPolicy(192, 1e-40))
    ref = log_hyper_gamma(2, 0, w, omega, PrecisionPolicy(256, 1e-50), lam=0.3)
    with mp.workprec(600):
        assert abs(res.value - ref.value) <= res.err_estimate
