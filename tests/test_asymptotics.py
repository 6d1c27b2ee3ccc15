from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from hyperzeta import (
    AsymExperiment,
    AsymRow,
    DEFAULT_POLICY,
    IntegrandSpec,
    OmegaVector,
    PolyC,
    PrecisionPolicy,
    default_experiment,
    fit_one_over_w,
    hankel_integrate,
    remainder_reduction_check,
    run_experiment,
)
from hyperzeta.asymptotics import lhs_value, remainder_tail, rhs_expansion
from hyperzeta.errors import InvalidParameter

P = DEFAULT_POLICY
SHARP = PrecisionPolicy(P.precision_bits + 64, 1e-40)


def small_experiment(**kw):
    defaults = dict(
        omega=OmegaVector.of(1),
        alpha=OmegaVector.of(1),
        a=mpf(1) / 3,
        m=1,
        k=0,
        w_grid=(6.0, 12.0, 24.0, 48.0),
        policy=P,
    )
    defaults.update(kw)
    return AsymExperiment(**defaults)


def test_validation():
    with pytest.raises(InvalidParameter):
        small_experiment(w_grid=(1.0, 2.0, 3.0))
    with pytest.raises(InvalidParameter):
        small_experiment(w_grid=(4.0, 3.0, 2.0, 1.0))
    with pytest.raises(InvalidParameter):
        small_experiment(m=-1)
    with pytest.raises(InvalidParameter):
        small_experiment(a=-1)
    with pytest.raises(InvalidParameter):
        small_experiment(w_grid=(0.0, 1.0, 2.0, 3.0))


def test_default_experiment_shape():
    e = default_experiment(m=2)
    assert e.m == 2 and e.k == 0
    assert e.omega.r == 1 and e.alpha.r == 1
    assert abs(e.a - mpf(1) / 2) < mpf("1e-50")


def test_rows_decay():
    e = small_experiment()
    rows = run_experiment(e)
    assert len(rows) == 4
    errs = [abs(r.error) for r in rows]
    for a, b in zip(errs, errs[1:]):
        assert b < a
    # each remainder is resolved above the quadrature noise of both sides
    for r in rows:
        assert abs(r.error) > 100 * (r.lhs_err + r.rhs_err)


def test_strict_statement_changes_lhs():
    e = small_experiment()
    strict = small_experiment(strict_statement=True)
    with P.context():
        v1, _ = lhs_value(e, mpf(6))
        v2, _ = lhs_value(strict, mpf(6))
        assert abs(v1 - v2) > mpf("1e-10")
        # the two agree as the same function at shifted arguments
        v3, _ = lhs_value(strict, mpf(6) + e.a)
        assert abs(v1 - v3) < mpf("1e-25")


def test_lhs_sharp_shift_meets_the_target():
    # a = 1/3 at 300 bits: w + a rounded at 208 bits put the value 1.6e-59 off
    # with an estimate of 4.6e-60; against a 320-bit, 1e-80 run
    target = 1e-55
    with mp.workprec(300):
        a = mpf(1) / 3
    e = small_experiment(a=a, m=2, k=1, policy=P.with_target(target))
    v, err = lhs_value(e, 20)
    ref, _ = lhs_value(replace(e, policy=PrecisionPolicy(320, 1e-80)), 20)
    with mp.workprec(400):
        assert abs(v - ref) <= err <= target


@pytest.mark.parametrize(
    "kw",
    [
        pytest.param({}, id="base"),
        pytest.param(
            dict(omega=OmegaVector.of(1, 1.3), alpha=OmegaVector.of(0.7), m=2, k=1),
            id="r2-m2-k1",
        ),
        pytest.param(dict(alpha=OmegaVector.of(1, 1.5), k=2), id="l2-k2"),
        pytest.param(dict(m=0), id="m0"),
        pytest.param(dict(a=mp.mpc(0.5, 0.4)), id="complex-a"),
        pytest.param(dict(alpha=OmegaVector.of()), id="empty-alpha"),
    ],
)
def test_rhs_is_finite_sum_of_balanced_values(kw):
    from hyperzeta import balanced_P, bernoulli_a

    # The identity is exact, but the two sides integrate on different nodes,
    # so they differ by quadrature error: up to ~1e-28 at the default 1e-22
    # target (omega = (1, 1.3)).  A 1e-40 target resolves both below the bound.
    tight = PrecisionPolicy(P.precision_bits, 1e-40)
    e = small_experiment(policy=tight, **kw)
    with tight.context():
        val, err = rhs_expansion(e, mpf(6))
        # reference: the paper's sum, one Bernoulli value and one integral per N
        manual = mp.mpc(0)
        for N in range(-e.alpha.r, e.omega.r + e.k + 1):
            manual += bernoulli_a(e.alpha, N, e.a, tight) * balanced_P(
                e.m, e.k - N, mpf(6), e.omega, tight
            ).value
        assert abs(val - manual) < mpf("1e-30")


def test_fit_requires_m1():
    with pytest.raises(InvalidParameter):
        fit_one_over_w(small_experiment(m=2))


def test_fit_requires_three_rows():
    e = small_experiment()
    for n in (0, 2):
        rows = [AsymRow(w, 0, 0, 1 / w, 1) for w in e.w_grid[:n]]
        with pytest.raises(InvalidParameter, match=f"got {n}"):
            fit_one_over_w(e, rows)


def test_remainder_tail_valuation():
    e = small_experiment()
    tail = remainder_tail(e, terms=10)
    assert tail.valuation == e.omega.r + e.k + 1
    assert len(tail.coeffs) == 10


@pytest.mark.parametrize(
    "m, nu, w",
    [
        pytest.param(1, 1, 2, id="nu1-w2"),
        pytest.param(1, 1, 20, id="nu1-w20"),
        pytest.param(1, 1, 40, id="nu1-w40"),
        # lambda clamps to exactly 1, where (log t)^1 vanishes
        pytest.param(2, 2, 12, id="nu2-w12"),
    ],
)
def test_reduction_check(m, nu, w):
    e = small_experiment(m=m)
    with P.context():
        chk = remainder_reduction_check(e, mpf(w), nu, terms=10)
        budget = chk.contour_err + chk.rays_err + mpf("1e-24")
        assert abs(chk.contour - chk.rays) <= budget
    # the ray estimate alone covers the rays' error
    with SHARP.context():
        assert abs(chk.rays - _sharp_reference(e, w, nu, 10)) <= 5 * chk.rays_err


def _sharp_reference(e, w, nu, terms):
    """The contour integral of the reduction's integrand at +64 bits and a
    1e-40 target."""
    with SHARP.context():
        tail = remainder_tail(replace(e, policy=SHARP), terms)
        ispec = IntegrandSpec(
            omega=e.omega, w=mpf(w), k=e.k, poly=PolyC.monomial(nu), tail=tail
        )
        return hankel_integrate(ispec, None, SHARP)[0]


@pytest.mark.parametrize("w", [5, 15])
def test_reduction_check_nu0_rays_are_exactly_zero(w):
    # poly = 1 and an integer k: the outbound and inbound ray integrands are
    # equal, so the ray side is 0 with no error, and the contour, by Cauchy's
    # theorem, is 0 within its own estimate
    e = default_experiment(3, 0)
    with P.context():
        chk = remainder_reduction_check(e, mpf(w), 0, terms=12)
        assert chk.rays == 0 and chk.rays_err == 0
        assert abs(chk.contour) <= chk.contour_err


@pytest.mark.parametrize(
    "m, nu, target",
    [pytest.param(1, 1, 1e-30, id="m1-1e-30"), pytest.param(2, 2, 1e-28, id="m2-1e-28")],
)
def test_reduction_check_near_end_below_pole_threshold(m, nu, target):
    # eps falls below the pole threshold 2^-96, where |1 - e^(-omega t)| ~ |omega t|
    # is the zero at t = 0 that the tail cancels, not a pole of the integrand
    e = small_experiment(m=m, policy=P.with_target(target))
    with P.context():
        chk = remainder_reduction_check(e, 5, nu, terms=12)
        assert chk.agrees
    with SHARP.context():
        assert abs(chk.rays - _sharp_reference(e, 5, nu, 12)) <= 5 * chk.rays_err


# the integrals of remainder_reduction_check(default_experiment(m, 0), w, nu):
# nu <= m, w in {2, 5, 20}, three targets
@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    m_nu=st.integers(1, 3).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))),
    w=st.sampled_from([2, 5, 20]),
    target=st.sampled_from([1e-22, 1e-40, 1e-55]),
)
@example(m_nu=(2, 2), w=5, target=1e-55)
def test_reduction_check_sides_are_honest(m_nu, w, target):
    # each side lies within its own estimate of the contour at +64 bits and
    # 1e-75, and the two agree within their summed estimates
    m, nu = m_nu
    e = default_experiment(m, 0, policy=P.with_target(target))
    with P.context():
        chk = remainder_reduction_check(e, mpf(w), nu, terms=12)
        assert chk.agrees
        assert chk.rays_err <= target and chk.contour_err <= target
    sharp = PrecisionPolicy(P.precision_bits + 64, 1e-75)
    with sharp.context():
        tail = remainder_tail(replace(e, policy=sharp), 12)
        ispec = IntegrandSpec(omega=e.omega, w=mpf(w), k=e.k, poly=PolyC.monomial(nu), tail=tail)
        ref, _ = hankel_integrate(ispec, None, sharp)
        assert abs(chk.rays - ref) <= chk.rays_err
        assert abs(chk.contour - ref) <= chk.contour_err


def test_reduction_check_agrees_reads_the_combined_budget():
    with P.context():
        chk = remainder_reduction_check(small_experiment(), 2, 1, terms=10)
        assert chk.agrees
        assert not replace(chk, rays=chk.contour + 2 * (chk.contour_err + chk.rays_err)).agrees


def test_reduction_check_rejects_bad_nu():
    e = small_experiment()
    with pytest.raises(InvalidParameter):
        remainder_reduction_check(e, mpf(2), 2)  # nu > m
    with pytest.raises(InvalidParameter):
        remainder_reduction_check(e, mpf(2), -1)
