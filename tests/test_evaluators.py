import pytest
from mpmath import mp, mpf

from hyperzeta import (
    DEFAULT_POLICY,
    OmegaVector,
    PrecisionPolicy,
    balanced_P,
    bernoulli_poly_oracle,
    hurwitz_oracle,
    log_hyper_gamma,
    loggamma_oracle,
    p0_closed_form,
    zeta_contour,
    zeta_direct,
)
from hyperzeta.errors import InvalidParameter, PrecisionUnreachable, TooCloseToInteger
from hyperzeta.evaluators import METHOD_COMBINATION, derivative_fd

P = DEFAULT_POLICY


@pytest.fixture(autouse=True)
def _prec():
    with P.context():
        yield


def test_direct_r1_is_hurwitz():
    res = zeta_direct(mpf("2.5"), mpf("1.3"), OmegaVector.of(1), P.with_target(1e-24))
    assert abs(res.value - hurwitz_oracle(mpf("2.5"), mpf("1.3"), P)) < mpf("1e-22")
    assert res.method == "direct_sum"


def test_direct_r2_diagonal_collapses():
    # sum over (n1, n2) of (1 + n1 + n2)^{-4} = sum_m (m+1)(m+1)^{-4} = zeta(3)
    res = zeta_direct(4, 1, OmegaVector.of(1, 1), P.with_target(1e-24))
    assert abs(res.value - hurwitz_oracle(3, 1, P)) < mpf("1e-22")


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


def test_direct_target_below_working_precision_raises():
    with pytest.raises(PrecisionUnreachable):
        zeta_direct(mpf("2.5"), mpf("1.3"), OmegaVector.of(1), P.with_target(1e-80))


def test_direct_rejects_small_s():
    with pytest.raises(InvalidParameter):
        zeta_direct(1, 1, OmegaVector.of(1), P.with_target(1e-20))


def test_contour_matches_hurwitz():
    for s in (mpf("-2.5"), mpf("0.5"), mpf("3.5")):
        res = zeta_contour(s, mpf("1.3"), OmegaVector.of(1), P)
        assert abs(res.value - hurwitz_oracle(s, mpf("1.3"), P)) < mpf("1e-22")


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
        ref = loggamma_oracle(w, P) - mp.log(2 * mp.pi) / 2
        assert abs(res.value - ref) < mpf("1e-22")


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
        ref = -bernoulli_poly_oracle(2, w, P) / 2
        assert abs(res.value - ref) < mpf("1e-22")


def test_balanced_two_paths_agree():
    om = OmegaVector.of(1, mpf("1.3"))
    for m, k in ((1, 0), (1, 2), (2, 1), (0, 2)):
        a = balanced_P(m, k, mpf("1.5"), om, P)
        b = balanced_P(m, k, mpf("1.5"), om, P, method=METHOD_COMBINATION)
        assert abs(a.value - b.value) < mpf("1e-20")


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


def test_oracles_match_mpmath():
    import mpmath

    assert abs(hurwitz_oracle(mpf("2.5"), mpf("0.7"), P) - mpmath.zeta(mpf("2.5"), mpf("0.7"))) < mpf("1e-40")
    assert abs(loggamma_oracle(mpf("3.2"), P) - mp.loggamma(mpf("3.2"))) < mpf("1e-40")
    assert abs(bernoulli_poly_oracle(4, mpf("0.3"), P) - mpmath.bernpoly(4, mpf("0.3"))) < mpf("1e-40")


def test_invalid_method():
    with pytest.raises(InvalidParameter):
        balanced_P(1, 0, 1, OmegaVector.of(1), P, method="nope")
