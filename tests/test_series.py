import random

import pytest
from mpmath import mp

from hyperzeta import DEFAULT_POLICY, LaurentSeries
from hyperzeta.errors import DivisionByZeroSeries, DomainError
from hyperzeta.qpoly import q_poly
from hyperzeta.series import exponential_jet


@pytest.fixture(autouse=True)
def _prec():
    with DEFAULT_POLICY.context():
        yield


def close(a, b, tol="1e-40"):
    return abs(mp.mpc(a) - mp.mpc(b)) < mp.mpf(tol)


def random_series(rng, order, val=0):
    coeffs = tuple(
        mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(order - val)
    )
    return LaurentSeries(val, coeffs)


def test_add_cancellation():
    a = LaurentSeries(-1, (1, 1))  # t^-1 + 1
    b = LaurentSeries(-1, (-1, 0))
    s = (a + b).normalize()
    assert s.valuation == 0
    assert close(s.coeff(0), 1)


def test_add_identity_and_symmetric():
    a = LaurentSeries(0, (1, 1))
    z = LaurentSeries.zero(2)
    assert all(close((a + z).coeff(n), a.coeff(n)) for n in range(2))
    b = LaurentSeries(0, (1, -1))
    s = a + b
    assert close(s.coeff(0), 2) and close(s.coeff(1), 0)


def test_mul_basic():
    a = LaurentSeries(0, (1, 1, 0))
    b = LaurentSeries(0, (1, -1, 0))
    prod = a * b
    assert close(prod.coeff(0), 1)
    assert close(prod.coeff(1), 0)
    assert close(prod.coeff(2), -1)
    tinv = LaurentSeries.monomial(1, -1, 3)
    t = LaurentSeries.monomial(1, 1, 3)
    assert close((tinv * t).coeff(0), 1)


def test_mul_exp_inverse():
    e_plus = exponential_jet(1, 5)
    e_minus = exponential_jet(-1, 5)
    prod = e_plus * e_minus
    assert close(prod.coeff(0), 1)
    for n in range(1, 5):
        assert close(prod.coeff(n), 0)


def test_div_monomial():
    num = LaurentSeries(1, (2 * mp.pi * mp.mpc(0, 1), (2 * mp.pi * mp.mpc(0, 1)) ** 2 / 2))
    den = LaurentSeries.monomial(1, 1, 3)
    q = num / den
    assert q.valuation == 0
    assert close(q.coeff(0), 2 * mp.pi * mp.mpc(0, 1))
    assert close(q.coeff(1), (2 * mp.pi * mp.mpc(0, 1)) ** 2 / 2)


def test_div_geometric():
    one = LaurentSeries.one(8)
    den = LaurentSeries(0, (1, -1) + (0,) * 6)
    q = one / den
    for n in range(8):
        assert close(q.coeff(n), 1)


def test_div_simple_zero_over_simple_zero():
    # (u + gamma u^2)/(2 pi i u + (2 pi i u)^2/2): regular quotient,
    # leading coefficient 1/(2 pi i)
    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
    num = LaurentSeries(0, (0, 1, mp.euler, 0))
    den = LaurentSeries(0, (0, two_pi_i, two_pi_i ** 2 / 2, 0))
    q = num / den
    assert q.valuation == 0
    assert close(q.coeff(0), 1 / two_pi_i)


def test_div_by_zero_raises():
    a = LaurentSeries.one(4)
    with pytest.raises(DivisionByZeroSeries):
        a / LaurentSeries.zero(4)


def test_div_mul_round_trip():
    rng = random.Random(11)
    for _ in range(20):
        a = random_series(rng, 7)
        b = random_series(rng, 7)
        back = (a * b) / b
        for n in range(min(back.order, 7)):
            assert close(back.coeff(n), a.coeff(n), "1e-35")


def test_ring_laws_random():
    rng = random.Random(5)
    thr = mp.mpf(2) ** (-mp.prec + 8)
    for _ in range(10):
        a = random_series(rng, 6)
        b = random_series(rng, 6)
        c = random_series(rng, 6)
        ab_c = (a * b) * c
        a_bc = a * (b * c)
        for n in range(min(ab_c.order, a_bc.order)):
            assert abs(ab_c.coeff(n) - a_bc.coeff(n)) < 100 * thr
        lhs = a * (b + c)
        rhs = a * b + a * c
        for n in range(min(lhs.order, rhs.order)):
            assert abs(lhs.coeff(n) - rhs.coeff(n)) < 100 * thr
        ab = a * b
        ba = b * a
        for n in range(ab.order):
            assert abs(ab.coeff(n) - ba.coeff(n)) < 100 * thr


def test_exp_of_zero():
    z = LaurentSeries(0, (0,) * 4)
    e = z.exp()
    assert close(e.coeff(0), 1)
    for n in range(1, 4):
        assert close(e.coeff(n), 0)


def test_exp_log_round_trip():
    # exp of log(1 + t) = t - t^2/2 + t^3/3 - ... is 1 + t
    log1p = LaurentSeries(0, (0,) + tuple(mp.mpf((-1) ** (n + 1)) / n for n in range(1, 8)))
    a = LaurentSeries(0, (1, 1) + (0,) * 6)
    back = log1p.exp()
    for n in range(8):
        assert close(back.coeff(n), a.coeff(n), "1e-40")


def test_log_exp_round_trip_random():
    # log(exp(a)) = a: exp(a) has constant term e^(a_0), and its logarithmic
    # derivative exp(a)' / exp(a) is a'
    rng = random.Random(3)
    a = LaurentSeries(0, tuple(mp.mpc(rng.uniform(-1, 1)) for _ in range(8)))
    e = a.exp()
    de = LaurentSeries(0, tuple(n * e.coeff(n) for n in range(1, 8)))
    dlog = de / e
    assert close(e.coeff(0), mp.exp(a.coeff(0)), "1e-38")
    for n in range(1, 7):
        assert close(dlog.coeff(n - 1) / n, a.coeff(n), "1e-38")


def test_exponential_jet_coefficients():
    e = exponential_jet(-2, 3)
    assert close(e.coeff(0), 1)
    assert close(e.coeff(1), -2)
    assert close(e.coeff(2), 2)


def test_exp_pole_raises():
    with pytest.raises(DomainError):
        LaurentSeries(-1, (1, 0, 0)).exp()


def test_normalize_strips_roundoff():
    tiny = mp.mpf(2) ** (-mp.prec)
    s = LaurentSeries(-1, (tiny, 1, 2)).normalize()
    assert s.valuation == 0
    assert close(s.coeff(0), 1)


def test_coeff_bounds():
    s = LaurentSeries(-1, (1, 2, 3))
    assert close(s.coeff(-2), 0)
    with pytest.raises(IndexError):
        s.coeff(2)


def test_evaluation_horner():
    s = LaurentSeries(-1, (1, 0, 2))  # t^-1 + 2t
    t = mp.mpf("0.5")
    assert close(s(t), 1 / t + 2 * t)


def test_evaluation_at_real_and_complex_t():
    # a real t stays real through Horner and the power t^valuation, and an
    # integer t is converted at the working precision, not as a float
    a = LaurentSeries(-2, (mp.mpc(1, 2), mp.mpf(3), mp.mpc(0, -1)))
    t = mp.mpf(1) / 3
    expect = (mp.mpc(1, 2) + 3 * t + mp.mpc(0, -1) * t ** 2) / t ** 2
    assert close(a(t), expect, "1e-55")
    assert close(a(mp.mpc(t)), expect, "1e-55")
    assert close(LaurentSeries(-1, (1,))(3), mp.mpf(1) / 3, "1e-55")
    assert LaurentSeries(0, ())(t) == 0


def test_sums_round_once():
    # at 53 bits, each part of each coefficient of a sum of two polynomials
    # built at the policy's quadrature bits, and of the matching series, is
    # the part of their exact sum, rounded at most once (mpmath adds a real
    # to an mpc's real part alone, so 0 + y keeps y's imaginary part)
    a, b = q_poly(1, 0, DEFAULT_POLICY), q_poly(2, 0, DEFAULT_POLICY)
    with mp.workprec(53):
        sums = {
            "poly": (a + b).coeffs,
            "series": (LaurentSeries(0, a.coeffs) + LaurentSeries(0, b.coeffs)).coeffs,
        }
        for name, coeffs in sums.items():
            assert len(coeffs) == (3 if name == "poly" else 2)
            for x, y, z in zip(a.coeffs + (0,), b.coeffs, coeffs):
                exact = mp.fadd(x, y, exact=True)
                for part, whole in ((mp.re(z), mp.re(exact)), (mp.im(z), mp.im(exact))):
                    assert part in (whole, +whole), name


@pytest.mark.parametrize("kind", ["poly", "series"])
def test_differences_round_once(kind):
    # at 53 bits, coefficient 1 of q_poly(2, 0) - q_poly(1, 0), built at the
    # policy's quadrature bits, is their exact difference rounded once; a
    # negation before the sum would round the subtrahend first
    a, b = q_poly(2, 0, DEFAULT_POLICY), q_poly(1, 0, DEFAULT_POLICY)
    with mp.workprec(53):
        if kind == "poly":
            coeff = (a - b).coeffs[1]
        else:
            coeff = (LaurentSeries(0, a.coeffs) - LaurentSeries(0, b.coeffs)).coeffs[1]
        exact = mp.fsub(a.coeffs[1], b.coeffs[1], exact=True)
        assert (mp.re(coeff), mp.im(coeff)) == (+mp.re(exact), +mp.im(exact))
