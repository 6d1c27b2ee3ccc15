"""Acceptance suite: eleven named criteria, one pass/fail line each.

Each test prints its verdict line directly to the process stdout so the
summary survives pytest's capture, then asserts.  All tolerances are stated
in the line.  The whole file is deterministic (fixed seeds).
"""

import random
import sys
import time

import pytest
from mpmath import mp, mpf

from hyperzeta import (
    DEFAULT_POLICY,
    AsymExperiment,
    OmegaVector,
    balanced_P,
    bernoulli_a,
    default_experiment,
    fit_one_over_w,
    log_hyper_gamma,
    p0_closed_form,
    q_poly,
    remainder_reduction_check,
    run_experiment,
    s_poly,
    zeta_contour,
    zeta_direct,
)
from hyperzeta.combinatorics import gen_F, multi_harmonic
from hyperzeta.constants import euler_gamma

P = DEFAULT_POLICY


def derivative_fd(f, x, h):
    """d/dx f by a 5-point central stencil."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


_CAPSYS = None


def report(number: int, name: str, passed: bool, detail: str, started: float):
    line = (
        f"criterion {number:2d} [{'PASS' if passed else 'FAIL'}] {name}: "
        f"{detail} ({time.time() - started:.1f}s)"
    )
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert passed, line


@pytest.fixture(autouse=True)
def _prec(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    with P.context():
        yield
    _CAPSYS = None


def test_criterion_01_exact_combinatorics():
    t0 = time.time()
    ok = all(
        k * multi_harmonic(k, mu)
        == multi_harmonic(k, mu - 1) + k * multi_harmonic(k - 1, mu)
        for k in range(1, 13)
        for mu in range(1, 9)
    )
    ok = ok and all(
        gen_F(k, 11)[mu] == multi_harmonic(k, mu)
        for k in range(11)
        for mu in range(11)
    )
    report(1, "exact combinatorics", ok, "recurrence k<=12 mu<=8 and F_k coefficients k,mu<=10, exact", t0)


def test_criterion_02_s_poly_collapse():
    t0 = time.time()
    worst = mpf(0)
    for m in range(7):
        ref = q_poly(m, 0, P)
        scale = max(abs(c) for c in ref.coeffs)
        for k in range(7):
            got = s_poly(m, k, P)
            dev = max(abs(a - b) for a, b in zip(got.coeffs, ref.coeffs)) / scale
            worst = max(worst, dev)
    report(2, "S_{m,k} collapses to the m,0 polynomial", worst < mpf("1e-30"),
           f"m,k<=6, worst relative dev {mp.nstr(worst, 3)} < 1e-30", t0)


def test_criterion_03_k_independence_and_generating_identity():
    from hyperzeta.checks import _generating_identity_dev

    t0 = time.time()
    worst = mpf(0)
    for m in range(6):
        ref = s_poly(m, 0, P)
        for k in range(7):
            got = s_poly(m, k, P)
            worst = max(
                worst, max(abs(a - b) for a, b in zip(got.coeffs, ref.coeffs))
            )
    for k in range(7):
        worst = max(worst, _generating_identity_dev(k, 5, P))
    report(3, "k-independence and generating identity", worst < mpf("1e-28"),
           f"m<=5 k<=6, worst dev {mp.nstr(worst, 3)} < 1e-28", t0)


def test_criterion_04_first_order_integrand_coefficients():
    t0 = time.time()
    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
    poly = q_poly(1, 0, P)
    gamma = euler_gamma(P)
    dev = max(
        abs(poly.coeffs[1] - 1 / two_pi_i),
        abs(poly.coeffs[0] - (gamma / two_pi_i - mpf(1) / 2)),
    )
    report(4, "first-order integrand coefficients", dev < mpf("1e-30"),
           f"(1/2pi i, gamma/2pi i - 1/2), dev {mp.nstr(dev, 3)} < 1e-30", t0)


def test_criterion_05_quadrature_vs_closed_form():
    t0 = time.time()
    om = OmegaVector.of()
    worst = mpf(0)
    for w in (mpf(1) / 2, mpf(1), mp.e, mpf(10)):
        for s in (mpf("1.7"), mp.mpc("2.3", "-1.1")):
            res = zeta_contour(s, w, om, P)
            worst = max(worst, abs(res.value - mp.power(w, -s)))
        for m, k in ((1, 1), (2, 2)):
            res = balanced_P(m, k, w, om, P)
            worst = max(worst, abs(res.value - p0_closed_form(m, k, w, P)))
    report(5, "r=0 quadrature vs closed forms", worst < mpf("1e-20"),
           f"w in {{1/2,1,e,10}}, worst dev {mp.nstr(worst, 3)} < 1e-20", t0)


def test_criterion_06_direct_vs_contour():
    t0 = time.time()
    rng = random.Random(2024)
    worst = mpf(0)
    for i in range(10):
        r = (i % 3) + 1
        om = OmegaVector.of(*[mpf("0.5") + mpf("1.5") * mpf(rng.random()) for _ in range(r)])
        w = mpf(1) if i % 2 == 0 else mpf("2.5")
        s = r + mpf("1.5")
        d = zeta_direct(s, w, om, P.with_target(1e-22))
        c = zeta_contour(s, w, om, P)
        worst = max(worst, abs(d.value - c.value))
    report(6, "direct sum vs contour", worst < mpf("1e-20"),
           f"10 draws, r<=3, s=r+1.5, worst dev {mp.nstr(worst, 3)} < 1e-20", t0)


def test_criterion_07_classical_oracles():
    t0 = time.time()
    om = OmegaVector.of(1)
    worst_zeta = mpf(0)
    for s in (mpf("-3.5"), mpf("-1.25"), mpf("0.5"), mpf("2.5")):
        res = zeta_contour(s, mpf(1), om, P)
        worst_zeta = max(worst_zeta, abs(res.value - mp.zeta(s, 1)))
    lg = log_hyper_gamma(1, 0, 1, om, P)
    dev_lg = abs(lg.value + mp.log(2 * mp.pi) / 2)
    worst_b = mpf(0)
    for w in (mpf(1) / 2, mpf(1), mpf(3)):
        res = log_hyper_gamma(0, 1, w, om, P)
        worst_b = max(worst_b, abs(res.value + mp.bernpoly(2, w) / 2))
    ok = worst_zeta < mpf("1e-20") and dev_lg < mpf("1e-18") and worst_b < mpf("1e-20")
    report(7, "classical oracles", ok,
           f"Hurwitz {mp.nstr(worst_zeta, 3)} < 1e-20, "
           f"log-gamma point {mp.nstr(dev_lg, 3)} < 1e-18, "
           f"Bernoulli {mp.nstr(worst_b, 3)} < 1e-20", t0)


def test_criterion_08_derivative_hierarchy():
    t0 = time.time()
    tight = P.with_target(1e-32)
    worst = mpf(0)
    for om in (OmegaVector.of(1), OmegaVector.of(1, mpf("1.3"))):
        w = mpf("1.5")
        h = w * mpf(2) ** -48
        for m in (1, 2):
            for k in (1, 2):
                fd = derivative_fd(
                    lambda x: balanced_P(m, k, x, om, tight).value, w, h
                )
                target = -balanced_P(m, k - 1, w, om, tight).value
                rel = abs(fd - target) / max(mpf(1), abs(target))
                worst = max(worst, rel)
        for k in (1, 2):
            fd = derivative_fd(
                lambda x: log_hyper_gamma(1, k, x, om, tight).value, w, h
            )
            target = (
                k * log_hyper_gamma(1, k - 1, w, om, tight).value
                - log_hyper_gamma(0, k - 1, w, om, tight).value
            )
            rel = abs(fd - target) / max(mpf(1), abs(target))
            worst = max(worst, rel)
    report(8, "derivative hierarchy", worst < mpf("1e-10"),
           f"(m,k,r)<=(2,2,2) finite differences, worst rel residual {mp.nstr(worst, 3)} < 1e-10", t0)


def test_criterion_09_remainder_decay():
    t0 = time.time()
    ok = True
    details = []
    for m in (1, 2):
        e = default_experiment(m=m, w_grid=(10.0, 20.0, 40.0, 80.0, 160.0), policy=P)
        rows = run_experiment(e)
        for prev, nxt in zip(rows, rows[1:]):
            if prev.w < 20:
                continue
            ratio = abs(prev.error) / abs(nxt.error)
            if ratio < mpf("1.5"):
                ok = False
            if nxt.normalized_error > mpf("1.2") * prev.normalized_error:
                ok = False
        details.append(
            f"m={m} last decay x{mp.nstr(abs(rows[-2].error) / abs(rows[-1].error), 3)}"
        )
    report(9, "remainder decay", ok,
           ">=1.5x error drop per doubling and bounded normalized error over w in [20,160]; "
           + ", ".join(details), t0)


def test_criterion_10_leading_coefficient_fit():
    t0 = time.time()
    # a = 1/3 keeps the predicted coefficient away from the zeros of the
    # cubic Bernoulli polynomial, so the 1/w fit has a nonzero target
    e = AsymExperiment(
        omega=OmegaVector.of(1),
        alpha=OmegaVector.of(1),
        a=mpf(1) / 3,
        m=1,
        k=0,
        w_grid=(25.0, 50.0, 100.0, 200.0),
        policy=P,
    )
    fitted, reference = fit_one_over_w(e)
    rel = abs(fitted - reference) / abs(reference)
    report(10, "leading remainder coefficient", rel < mpf("0.05"),
           f"Richardson fit {mp.nstr(fitted.real, 8)} vs predicted "
           f"{mp.nstr(reference.real, 8)}, rel dev {mp.nstr(rel, 3)} < 5%", t0)


def test_criterion_11_remainder_reduction():
    t0 = time.time()
    e = AsymExperiment(
        omega=OmegaVector.of(1),
        alpha=OmegaVector.of(1),
        a=mpf(1) / 2,
        m=3,
        k=0,
        w_grid=(10.0, 20.0, 40.0, 80.0),
        policy=P,
    )
    ok = True
    worst = mpf(0)
    for nu in range(4):
        chk = remainder_reduction_check(e, mpf(2), nu, terms=12)
        gap = abs(chk.contour - chk.rays)
        budget = chk.contour_err + chk.rays_err + mpf("1e-24")
        worst = max(worst, gap)
        if gap > budget:
            ok = False
    report(11, "remainder contour-to-ray reduction", ok,
           f"nu<=3 at w=2, worst gap {mp.nstr(worst, 3)} within combined error estimates", t0)
