from fractions import Fraction
from math import comb

from mpmath import mp, mpf

from hyperzeta import DEFAULT_POLICY, PrecisionPolicy
from hyperzeta.constants import bernoulli_number, euler_gamma

P = DEFAULT_POLICY


def bernoulli_poly_coeffs(n: int) -> tuple:
    """Coefficients (x^0 .. x^n) of the Bernoulli polynomial B_n(x), exact."""
    return tuple(comb(n, j) * bernoulli_number(n - j) for j in range(n + 1))


def test_bernoulli_numbers_exact():
    expected = {
        0: Fraction(1),
        1: Fraction(-1, 2),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        12: Fraction(-691, 2730),
    }
    for n, v in expected.items():
        assert bernoulli_number(n) == v
    for n in range(3, 20, 2):
        assert bernoulli_number(n) == 0


def test_bernoulli_poly_coeffs():
    # B_2(x) = x^2 - x + 1/6
    assert bernoulli_poly_coeffs(2) == (Fraction(1, 6), Fraction(-1), Fraction(1))


def test_gamma_constant_against_second_method():
    with P.context():
        ours = euler_gamma(P)
        assert abs(ours - mp.euler) < mpf("1e-50")


def test_precision_doubling_stability():
    lo = PrecisionPolicy(128, 1e-30)
    hi = PrecisionPolicy(256, 1e-30)
    with hi.context():
        assert abs(euler_gamma(lo) - euler_gamma(hi)) < mpf(2) ** -120
