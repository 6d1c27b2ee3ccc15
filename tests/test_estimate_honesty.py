"""Estimate honesty where the ray end T moves with the integrand, and for
the direct lattice sum.

Each integral grows its own T until the ray tail bound is below target / 10,
so at large w (where lambda is clamped) the tail term dominates the estimate,
and at Im s = -1.1 the outbound ray is ~1e3 times the inbound one.  Every
value must lie within 5 estimates of a reference at +64 bits and a 1e-40
target.  The direct sum's reference is the direct sum itself: at a 1e-40
target the contour raises NodeBudgetExceeded at s = 2.3 - 10i, w = 0.05 + 3i,
omega = (0.1, 2).
"""

import cmath
import math
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from hyperzeta import (
    DEFAULT_POLICY,
    OmegaVector,
    PrecisionPolicy,
    balanced_P,
    default_experiment,
    zeta_contour,
    zeta_direct,
)
from hyperzeta.asymptotics import rhs_expansion

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


def test_rhs_expansion_estimate_is_honest_at_large_w():
    e = default_experiment(1, 0)
    val, err = rhs_expansion(e, 160)
    ref, _ = rhs_expansion(replace(e, policy=SHARP), 160)
    with SHARP.context():
        assert abs(val - ref) <= 5 * err


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


def test_direct_head_grows_with_abs_s():
    # at this |s| a fixed 20-term head makes the Bernoulli terms grow
    with SHARP.context():
        s, w = mp.mpc(2.5, 120), mpf("1.3")
        res = zeta_direct(s, w, OmegaVector.of(1), P)
        assert abs(res.value - mp.zeta(s, w)) <= 5 * res.err_estimate
    assert res.err_estimate <= P.target_abs_error
