from math import factorial

import pytest
from mpmath import mp, mpf

from hyperzeta import DEFAULT_POLICY, PolyC, q_poly, s_poly
from hyperzeta.constants import euler_gamma
from hyperzeta.errors import InvalidParameter

P = DEFAULT_POLICY


@pytest.fixture(autouse=True)
def _prec():
    with P.context():
        yield


def test_polyc_basics():
    p = PolyC((1, 2, 3))
    assert p.degree == 2
    assert abs(p(2) - (1 + 4 + 12)) < mpf("1e-50")
    q = p + PolyC((0, -2))
    assert abs(q(2) - (1 + 12)) < mpf("1e-50")
    assert abs(p.scale(2)(1) - 12) < mpf("1e-50")
    assert PolyC.monomial(3).degree == 3


def test_polyc_shift_and_difference():
    # the Taylor shift against evaluation at x + c; a difference drops the
    # top coefficients that cancel exactly
    p = PolyC((mp.mpc(1, 2), -3, mpf(1) / 7, mp.mpc(0, 5)))
    c = 2 * mp.pi * mp.mpc(0, 1)
    for x in (mpf(0), mpf("-2.5"), mp.mpc("0.3", "1.1")):
        assert abs(p.shift(c)(x) - p(x + c)) < mpf("1e-50")
    assert p.shift(c).coeffs[-1] == p.coeffs[-1]
    diff = p.shift(c) - p
    assert diff.degree == 2
    assert abs(diff(mpf(2)) - (p(2 + c) - p(2))) < mpf("1e-50")
    assert (p - p).coeffs == ()
    assert PolyC((3,)).shift(c) - PolyC((3,)) == PolyC(())


def test_m0_is_constant():
    # 0Q_k = (-1)^k k! / (2 pi i)
    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
    for k in range(7):
        poly = q_poly(0, k, P)
        assert poly.degree == 0
        expect = (-1) ** k * factorial(k) / two_pi_i
        assert abs(poly.coeffs[0] - expect) < mpf("1e-50") * factorial(k)


def test_m1_k0_coefficients():
    # 1Q_0(x) = x/(2 pi i) + (gamma/(2 pi i) - 1/2)
    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
    poly = q_poly(1, 0, P)
    gamma = euler_gamma(P)
    assert abs(poly.coeffs[1] - 1 / two_pi_i) < mpf("1e-30")
    assert abs(poly.coeffs[0] - (gamma / two_pi_i - mpf(1) / 2)) < mpf("1e-30")


def test_degree_and_leading_coefficient():
    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
    for m in range(6):
        for k in range(6):
            poly = q_poly(m, k, P)
            assert poly.degree == m
            expect = (-1) ** k * factorial(k) / two_pi_i
            assert abs(poly.coeffs[-1] - expect) < mpf("1e-45") * factorial(k)


def _cauchy_jet(k, order, points=320):
    """Taylor coefficients J_0..J_{order-1} of rgamma(u - k) / expm1(2 pi i u),
    by the trapezoidal Cauchy integral on |u| = 1/2 at 420 bits.  The nearest
    poles are at |u| = 1, so the rule's error falls like 2^-points."""
    with mp.workprec(420):
        nodes = [mp.expjpi(mpf(2 * j) / points) / 2 for j in range(points)]
        values = [mp.rgamma(u - k) / mp.expm1(2j * mp.pi * u) for u in nodes]
        return [mp.fsum(f * u ** -n for f, u in zip(values, nodes)) / points for n in range(order)]


@pytest.mark.parametrize("k", range(4))
def test_q_poly_matches_cauchy_jet(k):
    # q_poly(m, k) coefficient d is m! J_{m-d} / d!; built at the policy's
    # bits plus 64 guard bits, it should be good to 2^-(bits + 58), compared
    # at the reference's 420 bits
    jet = _cauchy_jet(k, 6)
    for m in range(6):
        poly = q_poly(m, k, P)
        with mp.workprec(420):
            bound = mpf(2) ** -(P.precision_bits + 58)
            for d in range(m + 1):
                ref = factorial(m) * jet[m - d] / factorial(d)
                assert abs(poly.coeffs[d] - ref) < bound * abs(ref)


def test_s_poly_k_independence():
    for m in range(6):
        ref = s_poly(m, 0, P)
        for k in range(1, 7):
            got = s_poly(m, k, P)
            for a, b in zip(got.coeffs, ref.coeffs):
                assert abs(a - b) < mpf("1e-45")


def test_s_poly_equals_q0():
    for m in range(7):
        ref = q_poly(m, 0, P)
        for k in range(7):
            got = s_poly(m, k, P)
            scale = max(abs(c) for c in ref.coeffs)
            for a, b in zip(got.coeffs, ref.coeffs):
                assert abs(a - b) < mpf("1e-35") * scale


def test_invalid_arguments():
    with pytest.raises(InvalidParameter):
        q_poly(-1, 0, P)
    with pytest.raises(InvalidParameter):
        q_poly(0, -1, P)
    with pytest.raises(InvalidParameter):
        s_poly(-1, 0, P)
