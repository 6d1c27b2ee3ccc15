import pytest
from mpmath import mp, mpf

from hyperzeta import (
    DEFAULT_POLICY,
    IntegrandSpec,
    LaurentSeries,
    OmegaVector,
    PolyC,
    PrecisionPolicy,
    auto_spec,
    hankel_integrate,
    q_poly,
)
from hyperzeta.asymptotics import default_experiment, remainder_tail
from hyperzeta.errors import InvalidParameter
from hyperzeta.hankel import ray_only_integrate

P = DEFAULT_POLICY


@pytest.fixture(autouse=True)
def _prec():
    with P.context():
        yield


def test_auto_spec_lambda_examples():
    # lambda = 0.5 * min(pole bound, 2 pi)
    assert abs(auto_spec(OmegaVector.of(1), 1, P) - mp.pi) < mpf("1e-40")
    assert abs(auto_spec(OmegaVector.of(2), 1, P) - mp.pi / 2) < mpf("1e-40")
    assert abs(auto_spec(OmegaVector.of(), 1, P) - mp.pi) < mpf("1e-40")
    # clamped to Re(w) * lambda <= 12
    assert auto_spec(OmegaVector.of(1), 40, P) == mpf(12) / 40


def test_spec_validation():
    ispec = IntegrandSpec(omega=OmegaVector.of(1), w=1, k=0, poly=PolyC((1,)))
    with pytest.raises(InvalidParameter):
        hankel_integrate(ispec, 7.0, P)
    with pytest.raises(InvalidParameter):
        IntegrandSpec(omega=OmegaVector.of(1), w=-1, k=-2, poly=PolyC((1,)))


def test_r0_power_mode():
    # the contour value against the closed form of the r = 0 integral:
    # Gamma(s)(e^{2 pi i s}-1) w^{-s}
    from hyperzeta.constants import gamma_scalar

    om = OmegaVector.of()
    for w in (mpf("0.5"), mpf(2)):
        for s in (mpf("1.7"), mp.mpc("2.3", "-1.1")):
            ispec = IntegrandSpec(omega=om, w=w, k=-s, poly=PolyC((1,)))
            val, err = hankel_integrate(ispec, None, P)
            closed = (
                gamma_scalar(s, P)
                * (mp.exp(2 * mp.pi * mp.mpc(0, 1) * s) - 1)
                * mp.power(w, -s)
            )
            assert abs(val - closed) < mpf("1e-22")


def test_constant_poly_gives_residue():
    # degree-0 polynomial, r = 0: rays cancel and the circle picks up
    # the residue 2 pi i * c of c * e^{-wt}/t
    c = mp.mpf("1.25")
    ispec = IntegrandSpec(omega=OmegaVector.of(), w=1, k=0, poly=PolyC((c,)))
    val, err = hankel_integrate(ispec, None, P)
    assert abs(val - 2 * mp.pi * mp.mpc(0, 1) * c) < mpf("1e-25")


def test_lambda_independence():
    om = OmegaVector.of(1, mpf("0.8"))
    ispec = IntegrandSpec(omega=om, w=mpf("1.2"), k=2, poly=q_poly(2, 2, P))
    lam = auto_spec(om, mpf("1.2"), P)
    v1, e1 = hankel_integrate(ispec, lam, P)
    for factor in ("0.5", "0.3"):
        v2, e2 = hankel_integrate(ispec, lam * mpf(factor), P)
        assert abs(v1 - v2) <= 10 * (e1 + e2) + mpf("1e-25")


def test_linearity_in_poly():
    om = OmegaVector.of(1)
    w = mpf(2)
    p1, p2 = q_poly(1, 0, P), q_poly(2, 0, P)
    va, _ = hankel_integrate(IntegrandSpec(omega=om, w=w, k=0, poly=p1), None, P)
    vb, _ = hankel_integrate(IntegrandSpec(omega=om, w=w, k=0, poly=p2), None, P)
    vc, ec = hankel_integrate(IntegrandSpec(omega=om, w=w, k=0, poly=p1 + p2), None, P)
    assert abs(vc - va - vb) < 100 * ec + mpf("1e-25")


def test_error_estimate_honesty():
    om = OmegaVector.of(1, mpf("1.3"))
    sharp = PrecisionPolicy(256, 1e-34)
    ispec = IntegrandSpec(omega=om, w=mpf("1.5"), k=1, poly=q_poly(1, 1, P))
    val, err = hankel_integrate(ispec, None, P)
    with sharp.context():
        ref, _ = hankel_integrate(ispec, None, sharp)
    assert abs(val - ref) <= 5 * err


def _unit_ray(poly):
    # r = 0, k = 0, tail = t: the ray integrand is e^{-t} times the ray
    # difference poly(log t + 2 pi i) - poly(log t)
    tail = LaurentSeries(1, (mp.mpc(1),))
    return IntegrandSpec(omega=OmegaVector.of(), w=1, k=0, poly=poly, tail=tail)


def test_ray_only_gamma_integral():
    # poly = L / (2 pi i) makes the ray difference 1: int_0^inf e^{-t} dt = 1
    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
    val, err = ray_only_integrate(_unit_ray(PolyC((0, 1 / two_pi_i))), P)
    assert abs(val - 1) < mpf("1e-22")


def test_ray_only_log_moment():
    # poly = L^2 / (4 pi i) - L / 2 makes the ray difference L:
    # int_0^inf e^{-t} log t dt = -gamma
    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
    poly = PolyC((0, -mpf(1) / 2, 1 / (2 * two_pi_i)))
    val, err = ray_only_integrate(_unit_ray(poly), P)
    assert abs(val + mp.euler) < mpf("1e-22")


@pytest.mark.parametrize("w", [20, 160])
@pytest.mark.parametrize("m, nu", [(1, 1), (3, 2)])
def test_ray_only_matches_mpmath_quad(m, nu, w):
    # the remainder's ray integrand against mpmath's tanh-sinh quadrature at
    # 256 bits, split where e^{-wt} and f_omega change scale
    e = default_experiment(m, 0)
    tail = remainder_tail(e, 12)
    ispec = IntegrandSpec(omega=e.omega, w=w, k=e.k, poly=PolyC.monomial(nu), tail=tail)
    val, err = ray_only_integrate(ispec, P)
    with mp.workprec(256):
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)

        def f(t):
            f_omega = mp.fprod(1 / (1 - mp.exp(-o * t)) for o in e.omega.omegas)
            L = mp.log(t)
            diff = (L + two_pi_i) ** nu - L ** nu
            return f_omega * mp.exp(-w * t) * tail(t) * t ** (-e.k - 1) * diff

        ref = mp.quad(f, [0, mpf(12) / w, 1, mp.inf])
        assert abs(val - ref) <= 5 * err


def test_ray_only_requires_tail():
    ispec = IntegrandSpec(omega=OmegaVector.of(), w=1, k=0, poly=PolyC((1,)))
    with pytest.raises(InvalidParameter):
        ray_only_integrate(ispec, P)


def test_ray_only_rejects_singular_tail():
    tail = LaurentSeries(0, (mp.mpc(1),))
    ispec = IntegrandSpec(
        omega=OmegaVector.of(1), w=1, k=0, poly=PolyC((1,)), tail=tail
    )
    with pytest.raises(InvalidParameter):
        ray_only_integrate(ispec, P)


def test_ray_only_requires_integer_k():
    tail = LaurentSeries(3, (mp.mpc(1),))
    ispec = IntegrandSpec(
        omega=OmegaVector.of(), w=1, k=mpf("0.5"), poly=PolyC((1,)), tail=tail
    )
    with pytest.raises(InvalidParameter):
        ray_only_integrate(ispec, P)
