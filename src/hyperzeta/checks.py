"""Runnable invariant suites behind the ``check`` CLI command.

Each suite returns a list of :class:`CheckResult`; everything is
deterministic for a given seed.  The pytest suite runs deeper variants of
the same identities; these are the quick self-check versions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from mpmath import mp, mpf

from . import evaluators as ev
from .asymptotics import default_experiment, remainder_reduction_check
from .combinatorics import (
    coeff_c,
    gen_F,
    multi_harmonic,
    multi_harmonic_by_enumeration,
)
from .hankel import IntegrandSpec, auto_spec, hankel_integrate
from .multibernoulli import OmegaVector
from .precision import DEFAULT_POLICY, QUADRATURE_GUARD_BITS, PrecisionPolicy
from .qpoly import PolyC, q_poly, s_poly

@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite, name, passed, detail=""):
    return CheckResult(suite, name, bool(passed), detail)


def combinatorics_suite() -> list:
    out = []
    ok = all(
        k * multi_harmonic(k, mu)
        - multi_harmonic(k, mu - 1)
        - k * multi_harmonic(k - 1, mu)
        == 0
        for k in range(1, 13)
        for mu in range(1, 9)
    )
    out.append(_result("combinatorics", "harmonic-recurrence", ok))
    ok = all(
        gen_F(k, 11)[mu] == multi_harmonic(k, mu)
        for k in range(11)
        for mu in range(11)
    )
    out.append(_result("combinatorics", "generating-function-coefficients", ok))
    ok = True
    for m in range(9):
        for k in range(1, 11):
            if k * coeff_c(m, 0, k) + coeff_c(m, 0, k - 1) != 0:
                ok = False
            for mu in range(1, m + 1):
                lhs = (
                    k * coeff_c(m, mu, k)
                    - (m - mu + 1) * coeff_c(m, mu - 1, k)
                    + coeff_c(m, mu, k - 1)
                )
                if lhs != 0:
                    ok = False
    out.append(_result("combinatorics", "weight-telescoping", ok))
    ok = all(
        multi_harmonic(k, mu) == multi_harmonic_by_enumeration(k, mu)
        for k in range(7)
        for mu in range(7)
    )
    out.append(_result("combinatorics", "recurrence-vs-enumeration", ok))
    return out


def qpoly_suite(p: PrecisionPolicy = DEFAULT_POLICY) -> list:
    out = []
    with p.context():
        tol = 10 * p.zero_threshold
        worst = mpf(0)
        for m in range(7):
            ref = q_poly(m, 0, p)
            for k in range(7):
                sp = s_poly(m, k, p)
                worst = max(
                    worst,
                    max(abs(a - b) for a, b in zip(sp.coeffs, ref.coeffs)),
                )
        out.append(
            _result("qpoly", "s-poly-equals-q0", worst < tol, f"worst={mp.nstr(worst, 3)}")
        )
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        q10 = q_poly(1, 0, p)
        gamma = ev.constants.euler_gamma(p)
        dev = max(
            abs(q10.coeffs[1] - 1 / two_pi_i),
            abs(q10.coeffs[0] - (gamma / two_pi_i - mpf(1) / 2)),
        )
        out.append(
            _result("qpoly", "m1-k0-integrand-coefficients", dev < tol, f"dev={mp.nstr(dev, 3)}")
        )
        ok = True
        for m in range(7):
            for k in range(7):
                qp = q_poly(m, k, p)
                lead = qp.coeffs[-1]
                expect = (-1) ** k * factorial(k) / two_pi_i
                if qp.degree != m or abs(lead - expect) > tol * factorial(k):
                    ok = False
        out.append(_result("qpoly", "degree-and-leading-coefficient", ok))
        worst = mpf(0)
        for k in range(4):
            worst = max(worst, _generating_identity_dev(k, 5, p))
        out.append(
            _result("qpoly", "generating-identity", worst < tol, f"worst={mp.nstr(worst, 3)}")
        )
    return out


def _generating_identity_dev(k: int, m_max: int, p: PrecisionPolicy):
    """Deviation of sum_m S_{m,k}(x) u^m / m! from
    (-1)^k/k! F_k(u) e^{ux} / (Gamma(u-k)(e^{2 pi i u} - 1)), per x-degree."""
    from .qpoly import _quotient_jet
    from .series import LaurentSeries

    order = m_max + 3
    # at the bits the q and S polynomials are built at
    jet = _quotient_jet(k, order, p.precision_bits + QUADRATURE_GUARD_BITS)
    fk = gen_F(k, order)
    fk_series = LaurentSeries(
        0, tuple(mpf(c.numerator) / c.denominator for c in fk)
    )
    sign = Fraction((-1) ** k, factorial(k))
    base = (fk_series * jet).scale(mpf(sign.numerator) / sign.denominator)
    # coefficient of x^d u^mu in e^{ux} * base is base_{mu-d} / d!
    worst = mpf(0)
    for m in range(m_max + 1):
        sp = s_poly(m, k, p)
        for d in range(m + 1):
            rhs = base.coeff(m - d) / factorial(d) * factorial(m)
            worst = max(worst, abs(sp.coeffs[d] - rhs))
    return worst


def quadrature_suite(p: PrecisionPolicy = DEFAULT_POLICY, seed: int = 0) -> list:
    out = []
    rng = random.Random(seed)
    with p.context():
        r0 = OmegaVector.of()
        # Hankel representation of 1/Gamma applied to e^{-wt} t^{s-1}
        s, w = mpf("1.7"), mpf(2)
        res = ev.zeta_contour(s, w, r0, p)
        dev = abs(res.value - mp.power(w, -s))
        out.append(
            _result("quadrature", "r0-power-identity", dev < 1e-20, f"dev={mp.nstr(dev, 3)}")
        )
        # degree-0 polynomial: rays cancel, circle residue gives 2 pi i * c
        c = mp.mpf("0.7")
        ispec = IntegrandSpec(omega=r0, w=1, k=0, poly=PolyC((c,)))
        val, err = hankel_integrate(ispec, None, p)
        dev = abs(val - 2 * mp.pi * mp.mpc(0, 1) * c)
        out.append(
            _result("quadrature", "constant-poly-residue", dev < 1e-20, f"dev={mp.nstr(dev, 3)}")
        )
        # lambda independence
        om = OmegaVector.of(1, mpf("1.4"))
        ispec = IntegrandSpec(omega=om, w=mpf("1.5"), k=1, poly=q_poly(1, 1, p))
        lam = auto_spec(om, mpf("1.5"), p)
        v1, e1 = hankel_integrate(ispec, lam, p)
        v2, e2 = hankel_integrate(ispec, lam / 2, p)
        dev = abs(v1 - v2)
        out.append(
            _result(
                "quadrature",
                "lambda-independence",
                dev <= 10 * (e1 + e2),
                f"dev={mp.nstr(dev, 3)}",
            )
        )
        # linearity in the polynomial
        p1, p2 = q_poly(1, 0, p), q_poly(2, 0, p)
        both = p1 + p2
        va, _ = hankel_integrate(IntegrandSpec(omega=om, w=2, k=0, poly=p1), None, p)
        vb, _ = hankel_integrate(IntegrandSpec(omega=om, w=2, k=0, poly=p2), None, p)
        vc, ec = hankel_integrate(IntegrandSpec(omega=om, w=2, k=0, poly=both), None, p)
        dev = abs(vc - va - vb)
        out.append(
            _result("quadrature", "linearity", dev < 100 * ec + mpf("1e-25"), f"dev={mp.nstr(dev, 3)}")
        )
        # error-estimate honesty against a sharper reference
        honest = True
        sharp = PrecisionPolicy(p.precision_bits + 64, 1e-34)
        for _ in range(3):
            wv = mpf(1) + 2 * mpf(rng.random())
            sv = mpf("1.3") + mpf(rng.random())
            res = ev.zeta_contour(sv, wv, om, p)
            ref = ev.zeta_contour(sv, wv, om, sharp)
            if abs(res.value - ref.value) > 5 * res.err_estimate:
                honest = False
        out.append(_result("quadrature", "error-estimate-honesty", honest))
        # the remainder integrand over the contour and over the rays from 0
        e = default_experiment(3, 0, policy=p)
        checks = [remainder_reduction_check(e, 2, nu, terms=12) for nu in (1, 2, 3)]
        worst = max(abs(c.contour - c.rays) for c in checks)
        out.append(
            _result(
                "quadrature",
                "ray-only-reduction",
                all(c.agrees for c in checks),
                f"worst={mp.nstr(worst, 3)}",
            )
        )
    return out


def evaluators_suite(p: PrecisionPolicy = DEFAULT_POLICY, seed: int = 0) -> list:
    out = []
    rng = random.Random(seed)
    with p.context():
        om1 = OmegaVector.of(1)
        d = ev.zeta_direct(mpf("2.5"), mpf("1.3"), om1, p)
        c = ev.zeta_contour(mpf("2.5"), mpf("1.3"), om1, p)
        dev = abs(d.value - c.value)
        out.append(
            _result("evaluators", "direct-vs-contour", dev < 1e-20, f"dev={mp.nstr(dev, 3)}")
        )
        # equal periods: zeta_3(s, w; (om, om, om)) = om^{-s}/2 [zeta(s-2, x)
        # + (3 - 2x) zeta(s-1, x) + (x-1)(x-2) zeta(s, x)], x = w/om
        s, w, om = mpf("4.5"), mpf("1.5"), mpf("0.8")
        d = ev.zeta_direct(s, w, OmegaVector.of(om, om, om), p)
        x = w / om
        ref = mp.power(om, -s) / 2 * (
            mp.zeta(s - 2, x) + (3 - 2 * x) * mp.zeta(s - 1, x) + (x - 1) * (x - 2) * mp.zeta(s, x)
        )
        dev = abs(d.value - ref)
        out.append(
            _result("evaluators", "direct-r3-hurwitz", dev < 1e-20, f"dev={mp.nstr(dev, 3)}")
        )
        worst = mpf(0)
        for s in (mpf("-1.5"), mpf("0.5"), mpf("2.5")):
            worst = max(
                worst,
                abs(ev.zeta_contour(s, mpf("1.0"), om1, p).value - mp.zeta(s, 1)),
            )
        out.append(
            _result("evaluators", "hurwitz-consistency", worst < 1e-20, f"worst={mp.nstr(worst, 3)}")
        )
        # ladder: zeta(s,w,omega) - zeta(s,w+omega_r) = zeta over the shorter tuple
        ok = True
        for r in (2, 3):
            omegas = tuple(mpf("0.5") + mpf("1.5") * mpf(rng.random()) for _ in range(r))
            om = OmegaVector(omegas)
            s = om.r + mpf("1.5")
            w = mpf(1) + mpf(rng.random())
            full = ev.zeta_direct(s, w, om, p.with_target(1e-24))
            shifted = ev.zeta_direct(s, w + omegas[-1], om, p.with_target(1e-24))
            short = ev.zeta_direct(s, w, om.drop_last(), p.with_target(1e-24))
            if abs(full.value - shifted.value - short.value) > 1e-20:
                ok = False
        out.append(_result("evaluators", "ladder-relation", ok))
        # shift: F(w) - F(w + omega_r) = F over the shorter tuple, on the contour
        ok, worst = True, mpf(0)
        for r, fn in ((2, ev.log_hyper_gamma), (3, ev.balanced_P)):
            omegas = tuple(mpf("0.5") + mpf("1.5") * mpf(rng.random()) for _ in range(r))
            om = OmegaVector(omegas)
            w = mpf(1) + mpf(rng.random())
            parts = [fn(1, 1, x, o, p) for x, o in ((w, om), (w + omegas[-1], om), (w, om.drop_last()))]
            dev = abs(parts[0].value - parts[1].value - parts[2].value)
            worst = max(worst, dev)
            ok = ok and dev <= 5 * mp.fsum(part.err_estimate for part in parts)
        out.append(_result("evaluators", "shift-relation", ok, f"worst={mp.nstr(worst, 3)}"))
        lg = ev.log_hyper_gamma(1, 0, 1, om1, p)
        dev = abs(lg.value + mp.log(2 * mp.pi) / 2)
        out.append(
            _result("evaluators", "loggamma-point", dev < 1e-18, f"dev={mp.nstr(dev, 3)}")
        )
        two = ev.balanced_P(1, 1, mpf("1.5"), om1, p)
        comb_path = ev.balanced_P(1, 1, mpf("1.5"), om1, p, method=ev.METHOD_COMBINATION)
        dev = abs(two.value - comb_path.value)
        out.append(
            _result("evaluators", "balanced-two-path", dev < 1e-18, f"dev={mp.nstr(dev, 3)}")
        )
        r0 = OmegaVector.of()
        dev = abs(ev.balanced_P(1, 2, mp.e, r0, p).value - ev.p0_closed_form(1, 2, mp.e, p))
        out.append(
            _result("evaluators", "r0-closed-form", dev < 1e-20, f"dev={mp.nstr(dev, 3)}")
        )
    return out


# suite name -> runner(p, seed), in the order ``check all`` runs them
SUITES = {
    "combinatorics": lambda p, seed: combinatorics_suite(),
    "qpoly": lambda p, seed: qpoly_suite(p),
    "quadrature": quadrature_suite,
    "evaluators": evaluators_suite,
}


def run_suite(
    name: str, p: PrecisionPolicy = DEFAULT_POLICY, seed: int = 0
) -> list:
    if name == "all":
        return [r for suite in SUITES.values() for r in suite(p, seed)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](p, seed)
