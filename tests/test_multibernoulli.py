from fractions import Fraction
from math import comb

import pytest
from mpmath import mp, mpf

from hyperzeta import (
    DEFAULT_POLICY,
    OmegaVector,
    bernoulli_a,
    bernoulli_a_exact,
    bernoulli_expansion,
)
from hyperzeta.constants import bernoulli_number
from hyperzeta.errors import InvalidParameter

P = DEFAULT_POLICY


def bernoulli_poly_coeffs(n: int) -> tuple:
    """Coefficients (x^0 .. x^n) of the Bernoulli polynomial B_n(x), exact."""
    return tuple(comb(n, j) * bernoulli_number(n - j) for j in range(n + 1))


def classical_bernoulli(n, w):
    coeffs = bernoulli_poly_coeffs(n)
    return sum(c * Fraction(w) ** j for j, c in enumerate(coeffs))


def test_omega_vector_basics():
    om = OmegaVector.of(1, 2)
    assert om.r == 2
    assert abs(om.product - 2) < mpf("1e-50")
    with P.context():
        assert abs(om.pole_bound - mp.pi) < mpf("1e-50")
    assert om.concat(OmegaVector.of(3)).r == 3
    assert om.drop_last().r == 1


def test_omega_vector_validation():
    with pytest.raises(InvalidParameter):
        OmegaVector.of(-1)
    with pytest.raises(InvalidParameter):
        OmegaVector.of().drop_last()


def test_r1_reduces_to_classical_bernoulli():
    # a_{1,N}(w; 1) = (-1)^{N+1} B_{N+1}(w) / (N+1)!
    from math import factorial

    for N in range(-1, 8):
        for w in (Fraction(0), Fraction(1, 2), Fraction(3), Fraction(-2, 5)):
            exact = bernoulli_a_exact((1,), N, w)
            expected = (
                Fraction((-1) ** (N + 1))
                * classical_bernoulli(N + 1, w)
                / factorial(N + 1)
            )
            assert exact == expected


def test_float_path_matches_exact_path():
    with P.context():
        for omegas in [(1,), (1, 2), (Fraction(1, 2), 1, Fraction(3, 2))]:
            om = OmegaVector.of(*[mpf(float(o)) if not isinstance(o, Fraction) else mpf(o.numerator) / o.denominator for o in omegas])
            for N in range(-len(omegas), 5):
                got = bernoulli_a(om, N, mpf("0.75"), P)
                want = bernoulli_a_exact(omegas, N, Fraction(3, 4))
                want_f = mpf(want.numerator) / want.denominator
                assert abs(got - want_f) < mpf("1e-45")


def test_shift_identity_exact():
    # a_{r,N}(w; omega) - a_{r,N}(w + omega_r; omega) = a_{r-1,N}(w; omega')
    omegas = (Fraction(1), Fraction(2, 3))
    w = Fraction(1, 5)
    for N in range(-2, 6):
        lhs = bernoulli_a_exact(omegas, N, w) - bernoulli_a_exact(
            omegas, N, w + omegas[-1]
        )
        # below the valuation of the shorter expansion the coefficient is 0
        rhs = bernoulli_a_exact(omegas[:-1], N, w) if N >= -(len(omegas) - 1) else Fraction(0)
        assert lhs == rhs


def test_permutation_invariance_exact():
    omegas = (Fraction(1), Fraction(1, 2), Fraction(5, 3))
    perm = (Fraction(5, 3), Fraction(1), Fraction(1, 2))
    for N in range(-3, 5):
        assert bernoulli_a_exact(omegas, N, Fraction(2, 7)) == bernoulli_a_exact(
            perm, N, Fraction(2, 7)
        )


def test_derivative_identity_numeric():
    # d/dw a_{r,N}(w) = -a_{r,N-1}(w)
    with P.context():
        om = OmegaVector.of(1, mpf("1.3"))
        w = mpf("0.6")
        h = mpf(2) ** -40
        for N in range(0, 4):
            fd = (bernoulli_a(om, N, w + h, P) - bernoulli_a(om, N, w - h, P)) / (2 * h)
            assert abs(fd + bernoulli_a(om, N - 1, w, P)) < mpf("1e-20")


def test_expansion_object():
    with P.context():
        exp = bernoulli_expansion(OmegaVector.of(1), mpf("0.5"), 6, P)
        assert exp.valuation == -1
        assert abs(exp.coeff(-1) - 1) < mpf("1e-50")
    with pytest.raises(IndexError):
        bernoulli_a(OmegaVector.of(1), -2, mpf("0.5"), P)


def test_valuation_coefficient_is_one_over_product():
    # leading coefficient of f_omega is 1/(omega_1...omega_r), independent of w
    with P.context():
        om = OmegaVector.of(mpf("0.7"), mpf("1.9"), 1)
        lead = bernoulli_a(om, -om.r, mpf("2.3"), P)
        assert abs(lead - 1 / om.product) < mpf("1e-45")


def test_real_inputs_give_real_jets():
    # real periods and a real w: every coefficient of the expansion is an
    # mpf; a complex w makes every one an mpc but the leading 1 / prod omega_i,
    # which does not depend on w
    om = OmegaVector.of(1, mpf("1.3"), mpf("0.7"))
    real = bernoulli_expansion(om, mpf("2.5"), 10, P)
    assert len(real.coeffs) == 13 and all(isinstance(c, mpf) for c in real.coeffs)
    assert isinstance(bernoulli_a(om, 2, mpf("2.5"), P), mpf)
    cplx = bernoulli_expansion(om, mp.mpc("0.5", "0.4"), 10, P)
    lead, *rest = cplx.coeffs
    assert isinstance(lead, mpf) and lead == real.coeffs[0]
    assert all(isinstance(c, mp.mpc) for c in rest)
