import cmath
import gc
import math
import random
import time
import weakref
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest, to_fixed

from hyperzeta import (
    DEFAULT_POLICY,
    IntegrandSpec,
    LaurentSeries,
    OmegaVector,
    PolyC,
    PrecisionPolicy,
    auto_spec,
    bernoulli_expansion,
    hankel_integrate,
    q_poly,
)
from hyperzeta.asymptotics import default_experiment, remainder_reduction_check, remainder_tail
from hyperzeta.errors import InvalidParameter, NodeBudgetExceeded, PolesTooClose, PrecisionUnreachable
from hyperzeta import asymptotics, balanced_P, hankel, log_hyper_gamma, zeta_contour
from hyperzeta.hankel import CIRCLE_SAMPLES, KRONROD_NODES, PANEL_WIDTH, ray_only_integrate
from hyperzeta.precision import QUADRATURE_GUARD_BITS

P = DEFAULT_POLICY
SHARP = PrecisionPolicy(P.precision_bits + 64, 1e-40)


@pytest.fixture(autouse=True)
def _prec():
    with P.context():
        yield


def test_auto_spec_lambda_examples():
    # lambda = 1/4 * min(pole bound, 2 pi)
    assert abs(auto_spec(OmegaVector.of(1), 1, P) - mp.pi / 2) < mpf("1e-40")
    assert abs(auto_spec(OmegaVector.of(2), 1, P) - mp.pi / 4) < mpf("1e-40")
    assert abs(auto_spec(OmegaVector.of(), 1, P) - mp.pi / 2) < mpf("1e-40")
    # clamped to Re(w) * lambda <= 6
    assert auto_spec(OmegaVector.of(1), 40, P) == mpf(6) / 40


def test_spec_validation():
    ispec = IntegrandSpec(omega=OmegaVector.of(1), w=1, k=0, poly=PolyC((1,)))
    with pytest.raises(InvalidParameter):
        hankel_integrate(ispec, 7.0, P)
    with pytest.raises(InvalidParameter):
        IntegrandSpec(omega=OmegaVector.of(1), w=-1, k=-2, poly=PolyC((1,)))


def test_r0_power_mode():
    # the contour value against the closed form of the r = 0 integral:
    # Gamma(s)(e^{2 pi i s}-1) w^{-s}
    om = OmegaVector.of()
    for w in (mpf("0.5"), mpf(2)):
        for s in (mpf("1.7"), mp.mpc("2.3", "-1.1")):
            ispec = IntegrandSpec(omega=om, w=w, k=-s, poly=PolyC((1,)))
            val, err = hankel_integrate(ispec, None, P)
            closed = (
                mp.gamma(s)
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


def _record_panels(monkeypatch):
    """(a, b, depth) of every ray panel an integral evaluates, in order."""
    panels, panel = [], hankel._panel
    monkeypatch.setattr(
        hankel, "_panel",
        lambda g, a, b, rule, depth: panels.append((a, b, depth)) or panel(g, a, b, rule, depth),
    )
    return panels


def _record_circle(monkeypatch):
    """(samples N, depth) of every circle part an integral forms, in order."""
    parts, part = [], hankel._ContourEvaluator.part

    def recording(ev, n):
        result = part(ev, n)
        parts.append((n, result[2]))
        return result

    monkeypatch.setattr(hankel._ContourEvaluator, "part", recording)
    return parts


def _record_f_omega(monkeypatch):
    """Every _f_omega_at call as (t, j), j the cut of the end bound that made
    it or None, and every cut j that an end bound probed, in order."""
    calls, probes, probing = [], [], [None]
    f_omega, end_bound = hankel._f_omega_at, hankel._ContourEvaluator.end_bound

    def probe(ev, j):
        probes.append(j)
        probing[0] = j
        try:
            return end_bound(ev, j)
        finally:
            probing[0] = None

    monkeypatch.setattr(
        hankel, "_f_omega_at", lambda om, t, thr: calls.append((t, probing[0])) or f_omega(om, t, thr)
    )
    monkeypatch.setattr(hankel._ContourEvaluator, "end_bound", probe)
    return calls, probes


# w real, then complex, every other input real
_W = (mpf("1.5"), mp.mpc("1.5", "0.5"))


def _evaluated(n, x):
    """The samples of a circle of N = n samples that an integral evaluates,
    x its one input that may be complex: all N for a complex x; for a real
    one those with 2l <= N, N/2 + 1, whose mirrors give the rest."""
    return n if isinstance(x, mp.mpc) else n // 2 + 1


def _rule_moment(weights, nodes, e):
    return mp.fsum(wgt * x ** e for wgt, x in zip(weights, nodes))


def _exact_mpf(x, unit):
    """The integer x in the unit 2^-unit as an mpf, exactly."""
    return mp.make_mpf(from_man_exp(x, -unit))


def _exact_mpcs(re, im, unit):
    """The integers re[i] + i im[i] in the unit 2^-unit as mpc, exactly."""
    return [mp.make_mpc((from_man_exp(a, -unit), from_man_exp(b, -unit))) for a, b in zip(re, im)]


def _exact_rule(prec):
    """hankel._legendre_nodes(prec) with its integer nodes and weights as
    mpf, exactly: (nodes, Kronrod weights, Gauss weights, float weights)."""
    *fixed, fkw = hankel._legendre_nodes(prec)
    return tuple(tuple(_exact_mpf(x, prec + 32) for x in xs) for xs in fixed) + (fkw,)


def _mpf_gk_sums(fs, half, rule):
    """The mpf panel sums that the integer panel replaced: (Kronrod integral,
    its estimate, rounding floor) of a panel of half-width half from its
    values fs at the nodes of the mpf rule (module docstring of hankel), in
    floats scaled by 2^-e: e is 0, or the largest value's magnitude beyond
    2^+-512, so that no value overflows a float."""
    _, kw, gw, fkw = rule
    kronrod = mp.fdot(kw, fs)
    diff = abs(kronrod - mp.fdot(gw, fs[1::2]))
    e = max((mp.mag(f) for f in fs if f), default=0)
    e = e if abs(e) > 512 else 0
    vs = [complex(mp.ldexp(mp.re(f), -e), mp.ldexp(mp.im(f), -e)) if e else complex(f) for f in fs]
    mean = sum(w * v for w, v in zip(fkw, vs)) / 2
    resabs = sum(w * abs(v) for w, v in zip(fkw, vs))
    resasc = sum(w * abs(v - mean) for w, v in zip(fkw, vs))
    d = float(mp.ldexp(diff, -e))
    err = resasc * min(1.0, (200 * d / resasc) ** 1.5) if resasc else d
    scale = abs(half)
    return half * kronrod, scale * mp.ldexp(err, e), scale * mp.ldexp(50 * resabs, e - mp.prec)


class _Values:
    """A stand-in evaluator whose ray values are the given mpf or mpc fs,
    rounded as ``_ContourEvaluator.ray_values`` rounds term * diff with a
    diff of 1."""

    def __init__(self, fs):
        self.fs = fs

    def ray_values(self, mid, half, xs):
        unit = mp.prec + 16 - max(mp.mag(f) for f in self.fs if f)
        fr, fi = zip(*(hankel._fixed(f, unit) for f in self.fs))
        return list(fr), list(fi), unit


def test_gk_sums_scale_by_the_largest_value():
    # values from 2^-430 down to 2^-3630, at 640 bits as in the CLI's
    # 640-bit case: scaled by the middle one, 2^-2030, the largest overflowed
    # a float; the integer panel's floats from its integers' top bits keep
    # the estimate and the floor finite, and they and the value agree with
    # the mpf sums: the floor is the rounding floor of the sum
    with mp.workprec(640):
        rule = hankel._legendre_nodes(mp.prec)
        fs = [mp.ldexp(1 + mpf(i) / 7, -430 - 50 * i) for i in range(KRONROD_NODES)]
        kronrod, err, _, _, floor = hankel._panel(_Values(fs), mpf(-1), mpf(1), rule, 0)
        assert kronrod > 0 and mp.isfinite(err) and mp.isfinite(floor)
        ref = _mpf_gk_sums(fs, mpf(1), _exact_rule(mp.prec))
        resabs = mp.fdot(_exact_rule(mp.prec)[1], fs)
        assert abs(floor / mp.ldexp(50 * resabs, -mp.prec) - 1) < 1e-12
        assert abs(kronrod - ref[0]) <= floor / 45
        assert abs(err / ref[1] - 1) < 1e-12 and abs(floor / ref[2] - 1) < 1e-12


def test_kronrod_rule_degree():
    # K65 is exact through degree 3 * 32 + 1 = 97, G32 through 63
    nodes, kw, gw, _ = _exact_rule(mp.prec)
    assert abs(mp.fsum(kw) - 2) < mpf("1e-55")
    assert abs(mp.fsum(gw) - 2) < mpf("1e-55")
    assert abs(_rule_moment(kw, nodes, 96) - mpf(2) / 97) < mpf("1e-55")
    assert abs(_rule_moment(kw, nodes, 98) - mpf(2) / 99) > mpf("1e-40")
    assert abs(_rule_moment(gw, nodes[1::2], 62) - mpf(2) / 63) < mpf("1e-55")
    assert abs(_rule_moment(gw, nodes[1::2], 64) - mpf(2) / 65) > mpf("1e-25")


def test_kronrod_rule_shape():
    # positive weights, nodes symmetric about 0, ascending in (-1, 1), and
    # each Gauss node (odd index) between two Kronrod nodes
    nodes, kw, gw, fkw = _exact_rule(mp.prec)
    assert fkw == tuple(w / (1 << mp.prec + 32) for w in hankel._legendre_nodes(mp.prec)[1])
    assert len(nodes) == len(kw) == KRONROD_NODES == 2 * len(gw) + 1
    assert min(kw) > 0 and min(gw) > 0
    assert all(a + b == 0 for a, b in zip(nodes, reversed(nodes)))
    assert -1 < nodes[0] and nodes[-1] < 1
    assert all(a < b for a, b in zip(nodes, nodes[1:]))
    assert all(a == b for a, b in zip(kw, reversed(kw)))
    # the Gauss subset is the 32-point Gauss-Legendre rule
    for x in nodes[1::2]:
        assert abs(mp.legendre(32, x)) < mpf("1e-50")


def _mpf_newton(beta, x, tol):
    """A zero of the monic p_len(beta) by Newton's method from x, in the
    numbers of x; stops after the first step below tol."""
    for _ in range(8):
        p0, p1, d0, d1 = 0, 1, 0, 0
        for b in beta:
            p0, p1, d0, d1 = p1, x * p1 - b * p0, d1, p1 + x * d1 - b * d0
        dx = p1 / d1
        x -= dx
        if abs(dx) < tol:
            break
    return x


def _mpf_christoffel(beta, x):
    """(Gauss, Kronrod) weights at x: 1 / sum_k p_k(x)^2 / (beta_0 ... beta_k)
    over k < 32 and over k < len(beta)."""
    p0, p1, norm, csum = 0, 1, 1, 0
    for k, b in enumerate(beta):
        if k == 32:
            gauss = 1 / csum
        norm *= b
        csum += p1 * p1 / norm
        p0, p1 = p1, x * p1 - b * p0
    return gauss, 1 / csum


def _mpf_rule(prec):
    """The Gauss-Kronrod rule of hankel._legendre_nodes(prec), built from the
    same betas and float seeds by monic Newton and Christoffel sums in mpf
    at prec + 32 bits: (nodes, Kronrod weights, Gauss weights)."""
    n = 32
    with mp.workprec(prec + 32):
        beta = hankel._kronrod_betas(n)
        fbeta = [float(b) for b in beta]
        gauss = [_mpf_newton(fbeta[:n], math.cos(math.pi * (i + 0.75) / (n + 0.5)), 1e-15) for i in range(n // 2)]
        theta = [0.0] + [math.acos(x) for x in gauss]
        kronrod = [_mpf_newton(fbeta, math.cos((a + b) / 2), 1e-15) for a, b in zip(theta, theta[1:])]
        tol = mpf(2) ** (-mp.prec // 2 - 4)
        half = []
        for xk, xg in zip(kronrod, gauss):
            half += [_mpf_newton(beta, mpf(xk), tol), _mpf_newton(beta[:n], mpf(xg), tol)]
        half.append(mpf(0))
        weights = [_mpf_christoffel(beta, x) for x in half]
        nodes = [-x for x in half] + half[-2::-1]
        kw = [k for _, k in weights]
        gw = [g for g, _ in weights[1::2]]
        return nodes, kw + kw[-2::-1], gw + gw[::-1]


@pytest.mark.parametrize("prec", [256, 320, 448, 704])
def test_rule_matches_the_mpf_construction(prec):
    # the integer polish gives every node and weight of the monic mpf
    # construction from the same betas and seeds, within 2^-(prec + 28)
    rule = _exact_rule(prec)
    with mp.workprec(prec + 64):
        for ours, ref in zip(rule, _mpf_rule(prec)):
            assert len(ours) == len(ref)
            assert max(abs(a - b) for a, b in zip(ours, ref)) <= mp.ldexp(1, -prec - 28)


def test_gauss_half_matches_golub_welsch():
    # mp.gauss_quadrature takes the eigenvalues and eigenvectors of the
    # Jacobi matrix (Golub-Welsch), with neither Laurie's betas nor Newton
    prec = P.precision_bits + QUADRATURE_GUARD_BITS
    nodes, _, gw, _ = _exact_rule(prec)
    with mp.workprec(prec + 64):
        xs, ws = map(list, mp.gauss_quadrature(32, "legendre"))
        assert len(xs) == len(gw) == 32
        assert max(abs(a - b) for a, b in zip(nodes[1::2], xs)) <= mp.ldexp(1, -prec - 24)
        assert max(abs(a - b) for a, b in zip(gw, ws)) <= mp.ldexp(1, -prec - 24)


def test_polish_that_cannot_converge_raises():
    # at x = 0 the step r_32 q_31 / sum q_k^2 is 0, as q_31 is odd, yet
    # r_32(0) is not: the polish stays at 0 and raises rather than return it
    unit = mp.prec + 64
    roots = [math.isqrt(to_fixed(b._mpf_, 2 * unit)) for b in hankel._kronrod_betas(32)]
    inv = [(1 << 2 * unit) // r for r in roots]
    with pytest.raises(NodeBudgetExceeded):
        hankel._polish(0.0, 32, roots, inv, unit)
    # 0 is a zero of the odd r_65: the middle Kronrod node, in one pass
    assert hankel._polish(0.0, 65, roots, inv, unit)[0] == 0


def test_contour_evaluates_65_nodes_per_panel(monkeypatch):
    # a default-target integral is certified by its first pass: f_omega is
    # evaluated once per Kronrod node of each ray panel and once per circle
    # sample it evaluates, besides the ray-end probes
    om = OmegaVector.of(1, mpf("1.3"))
    ts, ends = [], []
    f_omega, ray_end = hankel._f_omega_at, hankel._ray_end

    def probed_end(*args):
        n = len(ts)
        result = ray_end(*args)
        ends.append(len(ts) - n)
        return result

    monkeypatch.setattr(
        hankel, "_f_omega_at", lambda om, t, thr: ts.append(t) or f_omega(om, t, thr)
    )
    monkeypatch.setattr(hankel, "_ray_end", probed_end)
    panels = _record_panels(monkeypatch)
    circle = _record_circle(monkeypatch)
    for w in _W:
        for record in (ts, ends, panels, circle):
            record.clear()
        hankel._node_store.cache_clear()
        ispec = IntegrandSpec(omega=om, w=w, k=1, poly=q_poly(1, 1, P))
        _, err = hankel_integrate(ispec, None, P)
        assert err <= P.target_abs_error
        assert circle == [(CIRCLE_SAMPLES, -1)]
        # the first pass cuts [log lambda, log T] into equal panels at most
        # PANEL_WIDTH wide, at depth -2
        widths = [b - a for a, b, _ in panels]
        assert all(depth == -2 for _, _, depth in panels)
        assert max(widths) <= PANEL_WIDTH and max(widths) - min(widths) < mpf("1e-50")
        assert len(ts) - sum(ends) == KRONROD_NODES * len(panels) + _evaluated(CIRCLE_SAMPLES, w)


def test_contour_refines_only_the_ray_panels_that_miss(monkeypatch):
    # at 1e-48 the circle starts with 64 samples, and the first pass misses
    # on the circle and the ray: _refine_worst doubles the circle once and
    # refines ray panels worst estimate first, and leaves the other parts as
    # they are.  w = 0.3 puts the far end past three panels of the grid,
    # and the last of them, where e^{-wt} has decayed, meets its share
    om = OmegaVector.of(1, mpf("1.3"))
    ispec = IntegrandSpec(omega=om, w=mpf("0.3"), k=1, poly=q_poly(1, 1, P))
    ref, _ = hankel_integrate(ispec, None, SHARP.with_target(1e-60))
    first, refined, rays = [], [], []
    refine_worst, segment = hankel._refine_worst, hankel._segment

    def first_pass(ev, width, js, rule, depth):
        parts = segment(ev, width, js, rule, depth)
        if depth == -2:
            rays.extend(parts)
        return parts

    def recording(parts, target, end_bounds):
        first.extend(part[1] for part in parts)
        wrapped = [
            (kronrod, e, depth, lambda i=i, refine=refine: refined.append(i) or refine(), floor)
            for i, (kronrod, e, depth, refine, floor) in enumerate(parts)
        ]
        return refine_worst(wrapped, target, end_bounds)

    monkeypatch.setattr(hankel, "_refine_worst", recording)
    monkeypatch.setattr(hankel, "_segment", first_pass)
    circle = _record_circle(monkeypatch)
    val, err = hankel_integrate(ispec, None, P.with_target(1e-48))
    assert err <= 1e-48
    # the rays, then the circle
    assert len(first) == len(rays) + 1
    assert circle == [(CIRCLE_SAMPLES, -1), (2 * CIRCLE_SAMPLES, 0)]
    assert refined.count(len(rays)) == 1
    assert 0 < len(refined) - 1 < len(rays)
    kept = [e for i, e in enumerate(first) if i not in refined]
    assert min(first[i] for i in refined) >= max(kept)
    with SHARP.context():
        assert abs(val - ref) <= err


@pytest.mark.parametrize("omegas", [("1.3274", "1.3532"), ("1.2127", "0.82523")])
def test_circle_first_pass_is_set_by_the_target(monkeypatch, omegas):
    # the first pass is 64 circle samples at both targets; at 1e-32 they pass
    # for both omegas, the nearly coincident poles of the first included
    # (estimates near 4e-35), and at 1e-55 _refine_worst doubles them once, to
    # 128, so the circle's work does not turn on omega
    ispec = IntegrandSpec(omega=OmegaVector.of(*map(mpf, omegas)), w=mpf("2.3"), k=2,
                          poly=q_poly(1, 2, P))
    circle = _record_circle(monkeypatch)
    first, doubled = (CIRCLE_SAMPLES, -1), (2 * CIRCLE_SAMPLES, 0)
    for target, parts in ((1e-32, [first]), (1e-55, [first, doubled])):
        circle.clear()
        _, err = hankel_integrate(ispec, None, P.with_target(target))
        assert err <= target
        assert circle == parts


def test_circle_doubles_in_refinement_keeping_every_sample(monkeypatch):
    # at 1e-55 the first pass is 64 samples, and _refine_worst doubles them
    # to 128 by the odd samples of the finer grid alone: the circle calls
    # f_omega once per sample of the finest part that it evaluates, none
    # twice (128 for a complex w; 33 and 32 odd ones, 65, for a real one)
    om = OmegaVector.of(1, mpf("1.3"))
    ts, f_omega = [], hankel._f_omega_at
    monkeypatch.setattr(
        hankel, "_f_omega_at", lambda om, t, thr: ts.append(t) or f_omega(om, t, thr)
    )
    circle = _record_circle(monkeypatch)
    for w in _W:
        ts.clear()
        circle.clear()
        hankel._node_store.cache_clear()
        ispec = IntegrandSpec(omega=om, w=w, k=1, poly=q_poly(1, 1, P))
        _, err = hankel_integrate(ispec, None, P.with_target(1e-55))
        assert err <= 1e-55
        assert circle[:2] == [(CIRCLE_SAMPLES, -1), (2 * CIRCLE_SAMPLES, 0)]
        assert sum(1 for t in ts if isinstance(t, mp.mpc)) == _evaluated(2 * CIRCLE_SAMPLES, w)


@pytest.mark.parametrize("w", _W, ids=["real", "complex"])
def test_a_refined_circle_part_is_a_cold_one(w):
    # a refined part reads the even samples of its grid from the nodes the
    # coarser grid kept: its value, estimate and floor equal, bit for bit,
    # those of the same grid's part on a cleared store
    om = OmegaVector.of(1, mpf("1.3"))
    ispec = IntegrandSpec(omega=om, w=w, k=1, poly=q_poly(1, 1, P))

    def cleared():
        hankel._node_store.cache_clear()
        return hankel._ContourEvaluator(ispec, P.zero_threshold, auto_spec(om, w, P))

    with P.context(QUADRATURE_GUARD_BITS):
        first = cleared().first_pass()
        refined = first[3]()[0]
        cold = cleared().part(2 * CIRCLE_SAMPLES)
    assert first[2] == -1 and refined[2] == cold[2] == 0
    assert (refined[0], refined[1], refined[4]) == (cold[0], cold[1], cold[4])


def test_refinement_takes_the_first_of_equal_estimates():
    # three parts with equal estimates, each refined into one part with a
    # thousandth of its estimate: a target of 1/2 takes two steps, which
    # refine the first inserted part, then the second, not the third or the
    # first's refinement; the estimate is the exact sum of the last
    # estimates, floors and end bounds, rounded once.  Each floor is 3/8 of
    # the sum's unit, so a sum that rounds term by term drops them; the end
    # bound, a multiple of that unit, leaves the sum in its binade
    refined, third, end = [], mpf(1) / 3, mpf(2) ** -10
    floor = 3 * mpf(2) ** -(mp.prec + 4)

    def part(i, estimate):
        def refine():
            refined.append(i)
            return [part(i + 10, estimate / 1000)]

        return mpf(i), estimate, -2, refine, floor

    value, err = hankel._refine_worst([part(0, third), part(1, third), part(2, third)], mpf("0.5"), end)
    assert refined == [0, 1]
    last = [third, third / 1000, third / 1000, floor, floor, floor, end]
    exact = sum(Fraction((-1) ** x._mpf_[0] * x.man) * Fraction(2) ** x.exp for x in last)
    assert err._mpf_ == from_rational(exact.numerator, exact.denominator, mp.prec, round_nearest)
    assert value == 2 + 10 + 11


@pytest.mark.parametrize(
    "integrate",
    [lambda ispec: hankel_integrate(ispec, None, P), lambda ispec: ray_only_integrate(ispec, P)],
    ids=["contour", "ray-only"],
)
def test_refinement_budget(monkeypatch, integrate):
    # with a K - G that never shrinks, the refinement stops where a ray panel
    # would pass depth MAX_LEVELS - 1: each first-pass panel at depth d and its
    # halves down to that depth, 2^(MAX_LEVELS - d) - 1 panels, at most 255
    # for a ray panel of four doublings (level -2)
    first, evaluated = [], []
    segment, panel = hankel._segment, hankel._panel

    def first_pass(*args):
        parts = segment(*args)
        first.extend(parts)
        return parts

    def recorded(ev, a, b, rule, depth):
        evaluated.append((b - a, depth))
        return panel(ev, a, b, rule, depth)

    # the same alternating values on every panel, whatever its width
    def values(ev, mid, half, xs):
        return [(-1) ** i << 20 for i in range(len(xs))], [0] * len(xs), 0

    monkeypatch.setattr(hankel, "_segment", first_pass)
    monkeypatch.setattr(hankel, "_panel", recorded)
    monkeypatch.setattr(hankel._ContourEvaluator, "ray_values", values)
    with pytest.raises(NodeBudgetExceeded):
        integrate(_unit_ray(PolyC((0, 1))))
    assert len(evaluated) <= sum(2 ** (hankel.MAX_LEVELS - part[2]) - 1 for part in first)
    assert max(depth for _, depth in evaluated) == hankel.MAX_LEVELS - 1
    # a ray panel at depth d spans at most 2^-d doublings of t, so the
    # deepest spans at most 2^(1/32), the doubling schedule's finest level
    rays = [(width, depth) for width, depth in evaluated if not isinstance(width, mp.mpc)]
    assert all(width <= PANEL_WIDTH * 2 ** -(depth + 2) * (1 + 1e-40) for width, depth in rays)


@pytest.mark.parametrize(
    "integrate, step",
    [
        (lambda ispec: hankel_integrate(ispec, None, P), 1),
        (lambda ispec: ray_only_integrate(ispec, P), -1),
    ],
    ids=["far-walk", "near-walk"],
)
def test_ray_end_budget(monkeypatch, integrate, step):
    # an end bound that never falls below target / 10: the walk gives up
    # after 500 consecutive cuts, upwards from j >= 1 at the far end (the
    # contour), downwards from j = 0 at the near end (ray-only, walked first)
    cuts = []
    monkeypatch.setattr(
        hankel._ContourEvaluator, "end_bound", lambda ev, j: cuts.append(j) or mpf(1)
    )
    with pytest.raises(NodeBudgetExceeded, match="ray truncation"):
        integrate(_unit_ray(PolyC((0, 1))))
    assert cuts == list(range(cuts[0], cuts[0] + 500 * step, step))
    assert cuts[0] >= 1 if step == 1 else cuts[0] == 0


def test_contour_reaches_the_finest_doubling_level():
    # Im(s) = -10 makes the outbound ray e^{20 pi} times the inbound one, and
    # Im(w) = 10 puts about 5 periods in a panel spanning a factor 2^(1/32) at
    # t = 150: the ray needs the doubling schedule's finest level.  r = 0
    # against the closed form Gamma(s) (e^{2 pi i s} - 1) w^{-s}
    s, w = mp.mpc("2.3", "-10"), mp.mpc("0.5", "10")
    ispec = IntegrandSpec(omega=OmegaVector.of(), w=w, k=-s, poly=PolyC((1,)))
    val, err = hankel_integrate(ispec, None, P)
    assert err <= P.target_abs_error
    with SHARP.context():
        closed = mp.gamma(s) * (mp.exp(2 * mp.pi * mp.mpc(0, 1) * s) - 1) * mp.power(w, -s)
        assert abs(val - closed) <= 5 * err


def test_rounding_floor_above_target_raises_within_one_pass(monkeypatch):
    # q_poly(3, 40) has coefficients near 40!, which the integral cancels to
    # about 7e20: rounding at 256 bits leaves far more than 1e-55, and the
    # first pass shows it
    om = OmegaVector.of(1, mpf("1.3"), mpf("0.7"))
    ispec = IntegrandSpec(omega=om, w=mpf("1.5"), k=40, poly=q_poly(3, 40, P))
    first, segment = [], hankel._segment

    def first_pass(*args):
        parts = segment(*args)
        first.extend(parts)
        return parts

    monkeypatch.setattr(hankel, "_segment", first_pass)
    panels = _record_panels(monkeypatch)
    circle = _record_circle(monkeypatch)
    with pytest.raises(PrecisionUnreachable):
        hankel_integrate(ispec, None, P.with_target(1e-55))
    assert len(panels) == len(first)
    # the circle's first pass is its 64 samples at depth -1
    assert circle == [(CIRCLE_SAMPLES, -1)]


@pytest.mark.parametrize("target", [1e-100, 1e-300])
def test_contour_target_below_working_precision_raises(target):
    # 192 bits plus at least 64 guard bits reach 2^-256 ~ 8.6e-78; a lower
    # target is refused before any node is evaluated
    p = P.with_target(target)
    ispec = IntegrandSpec(omega=OmegaVector.of(1), w=mpf("1.3"), k=1, poly=q_poly(1, 0, P))
    with pytest.raises(PrecisionUnreachable):
        hankel_integrate(ispec, None, p)
    ray = IntegrandSpec(
        omega=OmegaVector.of(), w=1, k=0, poly=PolyC((0, 1)), tail=LaurentSeries(1, (mp.mpc(1),))
    )
    with pytest.raises(PrecisionUnreachable):
        ray_only_integrate(ray, p)


# (w, lambda) above auto_spec's clamp Re(w) * lambda <= 6
_OVERRIDES = [(mpf("4.2"), mpf("2.8")), (20, mpf("2.5")), (40, mpf("2.5"))]


def test_every_integral_works_at_one_precision(monkeypatch):
    # a default integral and three lambda overrides all ask for the one
    # Gauss-Kronrod rule at the policy's bits plus QUADRATURE_GUARD_BITS
    precs, nodes = [], hankel._legendre_nodes
    monkeypatch.setattr(hankel, "_legendre_nodes", lambda prec: precs.append(prec) or nodes(prec))
    om = OmegaVector.of(1)
    balanced_P(1, 1, mpf("1.5"), om, P)
    for w, lam in _OVERRIDES:
        balanced_P(1, 1, w, om, P, lam=lam)
    assert precs and set(precs) == {P.precision_bits + QUADRATURE_GUARD_BITS}


@pytest.mark.parametrize("w", [60, 80])
def test_override_above_the_floor_raises_from_the_first_pass(w):
    # e^{Re(w) lambda} lifts the first pass's rounding floor above the target
    start = time.perf_counter()
    with pytest.raises(PrecisionUnreachable, match="rounding floor"):
        balanced_P(1, 1, w, OmegaVector.of(1), P, lam=mpf("2.5"))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("w, lam", _OVERRIDES[1:], ids=["w20", "w40"])
def test_override_is_within_its_estimate(w, lam):
    om = OmegaVector.of(1)
    res = balanced_P(1, 1, w, om, P, lam=lam)
    ref_policy = PrecisionPolicy(448, 1e-60)
    with ref_policy.context():
        ref = balanced_P(1, 1, w, om, ref_policy)
    assert abs(res.value - ref.value) <= res.err_estimate <= P.target_abs_error


@pytest.mark.parametrize("c", [mpf("1e-30"), mpf("1e30")], ids=["small", "large"])
def test_ray_end_bound_scales_with_the_polynomial(c):
    # the bound of c * poly at a cut is |c| times the bound of poly, so the
    # far end does not depend on a constant weight such as zeta_contour's
    om, poly = OmegaVector.of(1, mpf("1.3")), q_poly(1, 1, P)
    with P.context(QUADRATURE_GUARD_BITS):
        def bound(q):
            ispec = IntegrandSpec(omega=om, w=mpf("1.5"), k=1, poly=q)
            lam = auto_spec(om, ispec.w, P)
            return hankel._ContourEvaluator(ispec, P.zero_threshold, lam).end_bound(1)

        assert abs(bound(poly.scale(c)) / bound(poly) / c - 1) < mpf("1e-60")


_CIRCLE_OMEGAS = {
    "r2-real": OmegaVector.of(1, mpf("0.7")),
    "complex": OmegaVector.of(1, mpf("0.7") * mp.expj(mpf("1.3"))),
}


@pytest.mark.parametrize("name", list(_CIRCLE_OMEGAS))
def test_circle_cache_changes_no_result(monkeypatch, name):
    # integer and complex k at three w sharing lambda and working precision:
    # a cold run of each, with the node store cleared, against the same
    # integrals run twice in a row, which read circle samples, ray nodes and
    # moment windows that an earlier integral kept
    om = _CIRCLE_OMEGAS[name]
    ispecs = [
        IntegrandSpec(omega=om, w=mpf("1.1"), k=1, poly=q_poly(1, 1, P)),
        IntegrandSpec(omega=om, w=mpf("1.4"), k=-mp.mpc("2.5", "0.5"), poly=PolyC((1,))),
        IntegrandSpec(omega=om, w=mp.mpc("1.9", "0.6"), k=-1, poly=q_poly(2, 0, P)),
    ]
    cold = []
    for ispec in ispecs:
        hankel._node_store.cache_clear()
        cold.append(hankel_integrate(ispec, 1, P))
    hits = hankel._node_store.cache_info().hits
    found, get = set(), hankel._Group.get

    def spied(group, key):
        value = get(group, key)
        if value is not None:
            # a circle sample's fraction of the turn, a circle level's N, a
            # ray panel's centre node or term by u._mpf_, its other nodes
            # and terms by (mid, half, index), or a window
            found.add(len(key) if isinstance(key, tuple) else type(key).__name__)
        return value

    monkeypatch.setattr(hankel._Group, "get", spied)
    warm = [hankel_integrate(ispec, 1, P) for ispec in ispecs for _ in range(2)]
    assert warm == [result for result in cold for _ in range(2)]
    assert found == {"float", "int", 3, 4, 5}
    # every warm integral finds the store of its key
    assert hankel._node_store.cache_info().hits >= hits + 2 * len(ispecs)


def _circle_keys(store):
    """The keys of a node store's circle samples, in its group None:
    fractions of the turn."""
    return [key for key in store[None] if isinstance(key, float)]


def _record_stores(monkeypatch):
    """Every node store an integral is handed, in order."""
    stored, nodes_of = [], hankel._node_store
    monkeypatch.setattr(hankel, "_node_store", lambda *key: stored.append(nodes_of(*key)) or stored[-1])
    return stored


def test_circle_cache_keeps_two_levels(monkeypatch):
    keys, nodes_of, sample = [], hankel._node_store, hankel._ContourEvaluator.sample
    stored = _record_stores(monkeypatch)
    monkeypatch.setattr(
        hankel._ContourEvaluator, "sample", lambda ev, l, n: keys.append(l / n) or sample(ev, l, n)
    )
    for o in ("1", "0.8", "1.3"):
        keys.clear()
        ispec = IntegrandSpec(omega=OmegaVector.of(mpf(o)), w=1, k=0, poly=q_poly(1, 0, P))
        hankel_integrate(ispec, None, P)
    # one key at a time, holding (t, t f_omega(t)) at every sample its
    # integral reached, by the sample's fraction of the turn
    assert nodes_of.cache_info().currsize == 1
    assert set(_circle_keys(stored[-1])) == set(keys) and 2 * len(keys) < hankel.STORE_NUMBERS
    lam = auto_spec(OmegaVector.of(mpf("1.3")), 1, P)
    for key in _circle_keys(stored[-1]):
        t, _ = stored[-1][None][key]
        assert abs(t - lam * mp.expj(2 * mp.pi * key)) < mpf("1e-50")
    # lambda at 0.8 times the pole bound takes 512 samples at 1e-40, more than
    # the store holds besides the rays and the moments; it keeps what came
    # first, up to its bound: the first pass's 64 samples and at least the 64
    # of its first doubling
    keys.clear()
    nodes_of.cache_clear()
    om = _CIRCLE_OMEGAS["complex"]
    ispec = IntegrandSpec(omega=om, w=1, k=1, poly=q_poly(1, 1, P))
    _, err = hankel_integrate(ispec, om.pole_bound * mpf("0.8"), PrecisionPolicy(192, 1e-40))
    assert err <= 1e-40
    circle = _circle_keys(stored[-1])
    assert len(set(keys)) == 512 > len(circle)
    assert circle == list(dict.fromkeys(keys))[: len(circle)]
    assert set(circle) >= {l / 128 for l in range(128)}


def test_ray_nodes_are_reused_across_w(monkeypatch):
    # the first-pass ray panels lie on the grid log lambda + j PANEL_WIDTH,
    # which does not move with w: a second w at the same (omega, lambda)
    # finds every ray node, circle sample and end probe of the first in the
    # store, so it calls f_omega only at cuts that the first did not probe.
    # That holds after a 40-point w sweep too, which drops (w, tail) groups
    # but never the nodes, which no w owns
    om = OmegaVector.of(1, mpf("1.3"))
    calls, probes = _record_f_omega(monkeypatch)
    panels = _record_panels(monkeypatch)
    hankel._node_store.cache_clear()
    stored = _record_stores(monkeypatch)

    def integrate(w, k):
        hankel_integrate(IntegrandSpec(omega=om, w=w, k=k, poly=q_poly(k, k, P)), None, P)

    integrate(mpf("1.2"), 1)
    before, probed = set(panels), set(probes)
    calls.clear()
    probes.clear()
    panels.clear()
    integrate(mpf("1.3"), 2)
    assert panels and set(panels) <= before
    assert probes and all(j is not None and j not in probed for _, j in calls)
    for i in range(40):
        integrate(1 + mpf(i) / 16, 1)
    assert all(store is stored[0] for store in stored) and len(stored[0]) < 40
    before, probed = set(panels), set(probes)
    calls.clear()
    probes.clear()
    panels.clear()
    integrate(mpf("2.01"), 2)
    assert panels and set(panels) <= before
    assert probes and all(j is not None and j not in probed for _, j in calls)


def test_every_f_omega_call_goes_through_the_store(monkeypatch):
    # with a cold store, f_omega is evaluated once per node the store is
    # offered, circle samples, ray nodes and the end probes at the cuts
    # alike, in a contour integral and in a ray-only integral
    ts, offered = [], []
    f_omega, keep = hankel._f_omega_at, hankel._Store.keep

    def spied(store, group, key, value, numbers):
        if group is store[None]:  # not a (w, tail) group's level or term
            offered.append(key)
        return keep(store, group, key, value, numbers)

    monkeypatch.setattr(
        hankel, "_f_omega_at", lambda om, t, thr: ts.append(t) or f_omega(om, t, thr)
    )
    monkeypatch.setattr(hankel._Store, "keep", spied)
    e = default_experiment(1, 0)
    contour = IntegrandSpec(omega=OmegaVector.of(1, mpf("1.3")), w=mpf("1.5"), k=1, poly=q_poly(1, 1, P))
    ray = IntegrandSpec(omega=e.omega, w=20, k=e.k, poly=PolyC.monomial(1), tail=remainder_tail(e))
    p = P.with_target(1e-40)
    for integrate in (lambda: hankel_integrate(contour, None, p), lambda: ray_only_integrate(ray, p)):
        hankel._node_store.cache_clear()
        ts.clear()
        offered.clear()
        integrate()
        # a node's key is a fraction of the turn, the 4-tuple u._mpf_ (a
        # cut or a panel's centre) or the 3-tuple (mid, half, index); a
        # moment window's is a 5-tuple
        nodes = [key for key in offered if not isinstance(key, tuple) or len(key) in (3, 4)]
        assert ts and len(ts) == len(nodes)


def test_circle_cache_is_hit_across_w(monkeypatch):
    # the looser target keeps the ray short
    p = PrecisionPolicy(192, 1e-15)
    lam = mpf("2.8")
    calls, probes = _record_f_omega(monkeypatch)
    circle = _record_circle(monkeypatch)
    om = OmegaVector.of(1)
    balanced_P(1, 1, mpf("3.9"), om, p, lam=lam)
    probed = set(probes)
    calls.clear()
    circle.clear()
    balanced_P(1, 0, mpf("4.2"), om, p, lam=lam)
    # no circle sample is evaluated at the second w, and every f_omega call
    # is at a cut that the first w did not probe
    assert not any(isinstance(t, mp.mpc) for t, _ in calls)
    assert all(j is not None and j not in probed for _, j in calls)
    assert circle == [(CIRCLE_SAMPLES, -1)]
    # a new omega evaluates the circle samples of the parts it reaches
    # again: a complex one every sample, a real one those with 2l <= N
    for omega in (mpf("0.8") * mp.expj(mpf("0.2")), mpf("0.8")):
        calls.clear()
        circle.clear()
        balanced_P(1, 0, mpf("4.2"), OmegaVector.of(omega), p, lam=lam)
        assert sum(1 for t, _ in calls if isinstance(t, mp.mpc)) == _evaluated(circle[-1][0], omega)


_GROUP_CASES = {
    # balanced_P on both routes and log_hyper_gamma across k at one w
    "real": (OmegaVector.of(1, mpf("1.3")), mpf("1.7"), [
        lambda om, w: balanced_P(2, 1, w, om, P),
        lambda om, w: balanced_P(2, 0, w, om, P),
        lambda om, w: balanced_P(2, 1, w, om, P, "combination"),
        lambda om, w: log_hyper_gamma(1, 1, w, om, P),
        lambda om, w: log_hyper_gamma(0, 1, w, om, P),
        lambda om, w: log_hyper_gamma(2, 0, w, om, P),
    ]),
    # complex k (zeta_contour), complex periods and a complex w
    "complex": (OmegaVector.of(1, mpf("1.3") * mp.expj(mpf("0.4"))), mp.mpc("1.7", "0.8"), [
        lambda om, w: zeta_contour(mp.mpc("2.5", "0.3"), w, om, P),
        lambda om, w: zeta_contour(mpf("1.5"), w, om, P),
        lambda om, w: balanced_P(1, 1, w, om, P),
        lambda om, w: balanced_P(1, 1, w, om, P, "combination"),
        lambda om, w: log_hyper_gamma(1, 0, w, om, P),
    ]),
    # two tails at one w, the remainder's and the expansion's, both with k = 0
    "tails": (OmegaVector.of(1), mpf(5), [
        lambda om, w: remainder_reduction_check(default_experiment(3, 0), w, 2),
        lambda om, w: asymptotics.rhs_expansion(default_experiment(1, 0), w),
        lambda om, w: remainder_reduction_check(default_experiment(3, 0), w, 3),
        lambda om, w: asymptotics.rhs_expansion(default_experiment(2, 0), w),
    ]),
}


@pytest.mark.parametrize("name", list(_GROUP_CASES))
def test_warm_groups_change_no_result(monkeypatch, name):
    # integrals at one w that differ in k, poly or the tail, each run cold
    # (store cleared) and then in a row, twice: the warm runs read the
    # exponentials, circle levels and end probes that earlier ones of their
    # (w, tail) kept, and return the same values and estimates, bit for bit
    om, w, calls = _GROUP_CASES[name]
    cold = []
    for call in calls:
        hankel._node_store.cache_clear()
        cold.append(call(om, w))
    # each term as (integer k, on a ray: t real)
    terms, term = [], hankel._ContourEvaluator._term
    monkeypatch.setattr(
        hankel._ContourEvaluator, "_term",
        lambda ev, t, *a: terms.append((ev.power, isinstance(t, mpf))) or term(ev, t, *a),
    )
    # the last cold run kept its group, which may already hold every term
    hankel._node_store.cache_clear()
    first = [call(om, w) for call in calls]
    evaluated = list(terms)
    terms.clear()
    second = [call(om, w) for call in calls]
    assert first == cold and second == cold
    # the second round finds every circle level and every term of an integer
    # k in its group; a k that is not an integer (zeta_contour's) keeps no
    # ray term, so it evaluates as many ray terms as in the first round
    assert evaluated and terms == [(False, True)] * evaluated.count((False, True))


def test_a_new_k_at_a_kept_w_evaluates_no_term(monkeypatch):
    # a ray node keeps tf e^{-wt} before its power t^{-k-1}, so a new k at a
    # w whose group is kept evaluates no exponential, on the rays or the
    # circle, whichever k came first
    terms, term = [], hankel._ContourEvaluator._term
    monkeypatch.setattr(
        hankel._ContourEvaluator, "_term", lambda ev, *a: terms.append(a) or term(ev, *a)
    )
    om, w = OmegaVector.of(1, mpf("1.3")), mpf("1.7")
    for first, then in (((2, 0), (1, 2)), ((1, 2), (2, 0))):
        hankel._node_store.cache_clear()
        balanced_P(*first, w, om, P)
        assert terms
        terms.clear()
        log_hyper_gamma(*then, w, om, P)
        assert not terms


def test_reduction_checks_read_kept_terms(monkeypatch):
    # remainder_reduction_check at one w for nu = 0..3 shares (w, tail) and
    # k: nu = 0's contour evaluates the circle (33 of 64 samples, its rays
    # cancel), and no later circle evaluates a sample; each ray-only
    # integral finds its far panels' terms kept by the contour before it and
    # evaluates only the near segment's, below lambda, and the head's probe
    # at the cut t = lambda itself, which the contour never probes
    new, term = [], hankel._ContourEvaluator._term
    monkeypatch.setattr(
        hankel._ContourEvaluator, "_term", lambda ev, t, *a: new.append((ev.lam, t)) or term(ev, t, *a)
    )
    starts, rays = [], asymptotics.ray_only_integrate
    monkeypatch.setattr(
        asymptotics, "ray_only_integrate", lambda *a: starts.append(len(new)) or rays(*a)
    )
    hankel._node_store.cache_clear()
    for nu in range(4):
        new.clear()
        starts.clear()
        check = remainder_reduction_check(default_experiment(3, 0), 2, nu)
        assert abs(check.contour - check.rays) <= check.contour_err + check.rays_err
        contour, ray_only = new[: starts[0]], new[starts[0]:]
        assert sum(isinstance(t, mp.mpc) for _, t in contour) == (33 if nu == 0 else 0)
        assert all(t <= lam * (1 + mpf(2) ** -100) for lam, t in ray_only)


def _group_numbers(key, group):
    """The numbers a store's group of key holds, counted as the store counts
    them: in the group None 2 per node and N per window of N moments, in a
    (w, tail) group 1 per ray term and, per circle level of N, its N
    coefficients."""

    def numbers(entry_key, entry):
        if isinstance(entry_key, int):  # a circle level of N
            return entry_key
        if isinstance(entry_key, tuple) and len(entry_key) == 5:  # a window
            return len(entry[1])
        return 2 if key is None else 1

    return sum(numbers(*entry) for entry in group.items())


def _within_budget(store, w):
    """After an integral at w: the groups hold at most STORE_NUMBERS numbers
    between them, as counted, and the newest two are the integral's own,
    the group None and its (w, tail) group."""
    for key, group in store.items():
        assert _group_numbers(key, group) == group.numbers
    assert sum(group.numbers for group in store.values()) == store.numbers <= hankel.STORE_NUMBERS
    assert list(store)[-2:] == [None, (w, None)]
    assert 1 < len(store) < 40


def test_node_store_stays_within_its_bound(monkeypatch):
    # one integral that offers more than the store holds (512 samples of a
    # complex integrand at 1e-40, 960 numbers in its four circle levels):
    # the store keeps its windows and nodes, and never its numbers past
    # STORE_NUMBERS
    offered, keep = [], hankel._Store.keep
    hankel._node_store.cache_clear()
    stored = _record_stores(monkeypatch)
    monkeypatch.setattr(
        hankel._Store, "keep", lambda store, *entry: offered.append(entry[3]) or keep(store, *entry)
    )
    om = _CIRCLE_OMEGAS["complex"]
    ispec = IntegrandSpec(omega=om, w=1, k=1, poly=q_poly(1, 1, P))
    hankel_integrate(ispec, om.pole_bound * mpf("0.8"), PrecisionPolicy(192, 1e-40))
    store = stored[-1]
    _within_budget(store, ispec.w)
    assert sum(offered) > hankel.STORE_NUMBERS
    assert any(isinstance(key, tuple) and len(key) == 5 for key in store[None])
    assert 256 in store[ispec.w, None]


def test_groups_stay_within_their_budget(monkeypatch):
    # a 40-point w sweep at one (omega, lambda), then the integral above:
    # after each, the groups stay within the one budget, the least recently
    # used are dropped first, and the integral's own two stay
    hankel._node_store.cache_clear()
    stored = _record_stores(monkeypatch)
    om = OmegaVector.of(1, mpf("1.3"))
    for i in range(40):
        w = 1 + mpf(i) / 16
        log_hyper_gamma(1, 1, w, om, P)
        _within_budget(stored[-1], w)
    assert all(store is stored[0] for store in stored)
    om = _CIRCLE_OMEGAS["complex"]
    ispec = IntegrandSpec(omega=om, w=1, k=1, poly=q_poly(1, 1, P))
    hankel_integrate(ispec, om.pole_bound * mpf("0.8"), PrecisionPolicy(192, 1e-40))
    _within_budget(stored[-1], ispec.w)
    assert 256 in stored[-1][ispec.w, None]


def test_dropped_store_is_freed_without_the_collector(monkeypatch):
    # a store and its groups form no reference cycle: with the collector
    # off, the store of the old key is freed as soon as a new key replaces it
    refs, nodes_of = [], hankel._node_store
    nodes_of.cache_clear()
    monkeypatch.setattr(
        hankel, "_node_store", lambda *key: refs.append(weakref.ref(nodes_of(*key))) or nodes_of(*key)
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        log_hyper_gamma(1, 1, mpf("1.7"), OmegaVector.of(1, mpf("1.3")), P)
        balanced_P(2, 1, mpf("1.7"), OmegaVector.of(1, mpf("1.3")), P)
        assert refs[0]() and all(refs[0]().values())
        log_hyper_gamma(1, 1, mpf("1.7"), OmegaVector.of(1, mpf("1.2")), P)
        assert refs[0]() is None and refs[-1]() is not None
    finally:
        if enabled:
            gc.enable()


def test_identically_zero_rays_are_skipped(monkeypatch):
    # log_hyper_gamma(0, 2)'s integrand: integer k and a constant poly, so the
    # outbound and inbound rays cancel exactly; only the circle is evaluated,
    # and no ray end bound enters the estimate
    om = OmegaVector.of(1, mpf("1.3"))
    ts, ends = [], []
    f_omega, ray_end = hankel._f_omega_at, hankel._ray_end
    monkeypatch.setattr(
        hankel, "_f_omega_at", lambda om, t, thr: ts.append(t) or f_omega(om, t, thr)
    )
    monkeypatch.setattr(hankel, "_ray_end", lambda *a: ends.append(a) or ray_end(*a))
    panels = _record_panels(monkeypatch)
    circle = _record_circle(monkeypatch)
    for w in _W:
        ts.clear()
        circle.clear()
        hankel._node_store.cache_clear()
        ispec = IntegrandSpec(omega=om, w=w, k=2, poly=q_poly(0, 2, P))
        val, err = hankel_integrate(ispec, None, P)
        assert not ends
        assert not panels
        assert circle == [(CIRCLE_SAMPLES, -1)]
        assert len(ts) == _evaluated(CIRCLE_SAMPLES, w)
        assert all(isinstance(t, mp.mpc) for t in ts)
        with SHARP.context():
            sharp = IntegrandSpec(omega=om, w=w, k=2, poly=q_poly(0, 2, SHARP))
            ref, _ = hankel_integrate(sharp, None, SHARP)
            assert abs(val - ref) <= err <= P.target_abs_error


def _ray(ev, u):
    """The outbound-minus-inbound integrand t F(t) at real u, its term from
    the node store by u's exact bits."""
    return ev.term(u._mpf_, lambda: u) * ev.diff(u)


def _product_form(ispec, t, logt=None):
    """f_omega(t) e^{-wt} tail(t) t^{-k-1} as a product of its factors, with
    t^{-k-1} on the branch of logt; without t^{-k-1} if logt is None."""
    f_omega = mp.fprod(1 / (1 - mp.exp(-o * t)) for o in ispec.omega.omegas)
    tail = ispec.tail(t) if ispec.tail is not None else 1
    k = ispec.k
    if logt is None:
        power = 1
    else:
        power = mp.power(t, -k - 1) if isinstance(k, int) else mp.exp(-(k + 1) * logt)
    return f_omega * mp.exp(-ispec.w * t) * tail * power


@pytest.mark.parametrize("k", [1, mp.mpc("-2.5", "-0.5")], ids=["integer_k", "complex_k"])
@pytest.mark.parametrize("tail", [None, (1, "0.5", "0.25+0.1j")], ids=["no_tail", "tail"])
@pytest.mark.parametrize("args", [(0, 0), ("0.6", "-0.4")], ids=["real", "complex"])
def test_nodes_match_the_product_form(k, tail, args):
    # the ray terms t F(t) in u = log t, taken as one exponential and one
    # difference polynomial, against t times the product
    # f_omega e^{-wt} tail t^{-k-1} times jump poly(log t + 2 pi i) - poly(log t),
    # and the circle samples phi(t_l) against t f_omega e^{-wt} tail at
    # t_l = lambda e^{2 pi i l / 64}, evaluated at 64 more bits
    om = OmegaVector.of(*(size * mp.expj(mpf(arg)) for size, arg in zip((1, mpf("1.3")), args)))
    tail = None if tail is None else LaurentSeries(1, tuple(mp.mpmathify(c) for c in tail))
    ispec = IntegrandSpec(omega=om, w=mp.mpc("1.5", "0.5"), k=k, poly=q_poly(2, 1, P), tail=tail)
    lam = auto_spec(om, ispec.w, P)
    with P.context(QUADRATURE_GUARD_BITS):
        prec = mp.prec
        hankel._node_store.cache_clear()
        ev = hankel._ContourEvaluator(ispec, P.zero_threshold, lam)
        ts = [lam / 3, lam, mpf("1.7"), mpf("9.1")]
        rays = [_ray(ev, mp.log(t)) for t in ts]
        samples = [ev.sample(l, CIRCLE_SAMPLES) for l in range(CIRCLE_SAMPLES)]
    with mp.workprec(prec + 64):
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        jump = 1 if isinstance(k, int) else mp.exp(-two_pi_i * k)
        for t, value in zip(ts, rays):
            logt = mp.log(t)
            diff = jump * ispec.poly(logt + two_pi_i) - ispec.poly(logt)
            ref = t * _product_form(ispec, t, logt) * diff
            assert abs(value - ref) <= mpf(2) ** (8 - prec) * abs(ref)
        for l, value in enumerate(samples):
            t = lam * mp.expj(2 * mp.pi * l / CIRCLE_SAMPLES)
            ref = t * _product_form(ispec, t)
            assert abs(value - ref) <= mpf(2) ** (8 - prec) * abs(ref)


def test_warm_circle_node_takes_one_exponential(monkeypatch):
    # with the circle's t and t f_omega(t) cached, a circle sample it
    # evaluates costs one mp.exp, e^{-wt}, and none for t, which comes from
    # cached roots of unity; nothing in the integral takes mp.power or mp.expj
    om = OmegaVector.of(1, mpf("1.3"))
    calls = {"power": 0, "expj": 0, "exp": 0}
    inside = {"circle": False, "f_omega": False}
    exp, power, expj = mp.exp, mp.power, mp.expj

    def counted_exp(z):
        calls["exp"] += inside["circle"] and not inside["f_omega"]
        return exp(z)

    def within(key, fn):
        def wrapped(*args):
            inside[key] = True
            try:
                return fn(*args)
            finally:
                inside[key] = False

        return wrapped

    monkeypatch.setattr(mp, "exp", counted_exp)
    monkeypatch.setattr(mp, "power", lambda *a: calls.update(power=calls["power"] + 1) or power(*a))
    monkeypatch.setattr(mp, "expj", lambda *a: calls.update(expj=calls["expj"] + 1) or expj(*a))
    monkeypatch.setattr(hankel, "_f_omega_at", within("f_omega", hankel._f_omega_at))
    monkeypatch.setattr(
        hankel._ContourEvaluator, "sample", within("circle", hankel._ContourEvaluator.sample)
    )
    circle = _record_circle(monkeypatch)
    for w in _W:
        hankel_integrate(IntegrandSpec(omega=om, w=w, k=1, poly=q_poly(2, 1, P)), None, P)
        calls.update(power=0, expj=0, exp=0)
        circle.clear()
        ispec = IntegrandSpec(omega=om, w=w + mpf("0.2"), k=1, poly=q_poly(2, 1, P))
        _, err = hankel_integrate(ispec, None, P)
        assert err <= P.target_abs_error
        assert circle == [(CIRCLE_SAMPLES, -1)]
        assert calls == {"power": 0, "expj": 0, "exp": _evaluated(CIRCLE_SAMPLES, w)}


_OM = OmegaVector.of(1, mpf("1.3"))
# the circle alone, with one input real or complex and every other real:
# (omega, w, tail)
_REAL_TAIL = LaurentSeries(-1, (mpf("0.5"), mpf(1), mpf("-0.25")))
_MIRROR_CASES = {
    "real": (_OM, mpf("1.5"), _REAL_TAIL),
    "complex-omega": (OmegaVector.of(1, mpf("1.3") * mp.expj(mpf("0.2"))), mpf("1.5"), _REAL_TAIL),
    "complex-w": (_OM, mp.mpc("1.5", "0.5"), _REAL_TAIL),
    "complex-tail": (_OM, mpf("1.5"), LaurentSeries(-1, (mpf("0.5"), mp.mpc(1, "0.3"), mpf("-0.25")))),
}


@pytest.mark.parametrize("case", list(_MIRROR_CASES))
def test_real_integrand_circle_evaluates_half_its_samples(monkeypatch, case):
    # phi(conj t) = conj phi(t) when every period, w and tail coefficient is
    # real: a circle of N samples then calls f_omega at l = 0..N/2 alone,
    # 33 of 64 and 65 of 128 after a doubling, and keeps only those in the
    # store; one complex input makes it evaluate all N
    om, w, tail = _MIRROR_CASES[case]
    ispec = IntegrandSpec(omega=om, w=w, k=1, poly=q_poly(2, 1, P), tail=tail)
    ts, f_omega = [], hankel._f_omega_at
    monkeypatch.setattr(
        hankel, "_f_omega_at", lambda om, t, thr: ts.append(t) or f_omega(om, t, thr)
    )
    circle = _record_circle(monkeypatch)
    half = case == "real"
    for target, n in ((1e-22, CIRCLE_SAMPLES), (1e-55, 2 * CIRCLE_SAMPLES)):
        p = P.with_target(target)
        ts.clear()
        circle.clear()
        hankel._node_store.cache_clear()
        with p.context(QUADRATURE_GUARD_BITS):
            ev = hankel._ContourEvaluator(ispec, p.zero_threshold, auto_spec(om, w, P))
            hankel._refine_worst([ev.first_pass()], mpf(target), 0)
        assert circle[-1][0] == n
        assert len(ts) == (n // 2 + 1 if half else n)
        kept = sorted(key for key in ev.nodes if isinstance(key, float))
        assert kept == [l / n for l in range(n) if 2 * l <= n or not half]


@pytest.mark.parametrize("omega", [mpf("1.3"), mpf("1.3") * mp.expj(mpf("0.2"))], ids=["real", "complex"])
def test_ray_nodes_of_real_periods_are_real(monkeypatch, omega):
    # t = e^u and t f_omega(t) at a ray node are kept as mpf for real
    # periods, and t f_omega(t) as mpc for a complex period
    ispec = IntegrandSpec(omega=OmegaVector.of(1, omega), w=mpf("1.5"), k=1, poly=q_poly(1, 1, P))
    hankel._node_store.cache_clear()
    stored = _record_stores(monkeypatch)
    hankel_integrate(ispec, None, P)
    nodes = stored[-1][None]
    rays = [nodes[key] for key in nodes if isinstance(key, tuple) and len(key) in (3, 4)]
    assert rays and all(isinstance(t, mpf) for t, _ in rays)
    kind = mpf if isinstance(omega, mpf) else mp.mpc
    assert all(isinstance(tf, kind) for _, tf in rays)


def _cold_run(ispec, p):
    """(value, estimate, ray nodes by key, 64 circle samples, bits) of a cold
    hankel_integrate of ispec, with the nodes evaluated again after it; a
    real integrand's samples with 2l > N are the mirrors of those it evaluates."""
    with p.context(QUADRATURE_GUARD_BITS):
        hankel._node_store.cache_clear()
        value, err = hankel_integrate(ispec, None, p)
        ev = hankel._ContourEvaluator(ispec, p.zero_threshold, auto_spec(ispec.omega, ispec.w, p))
        # a cut's or a centre's key is u's exact bits; another node's
        # (mid, half, index) gives its u as log t
        rays = {}
        for key, node in ev.nodes.items():
            if isinstance(key, tuple) and len(key) in (3, 4):
                u = mp.make_mpf(key) if len(key) == 4 else mp.log(node[0])
                rays[key] = ev.term(key, lambda: u) * ev.diff(u)
        samples = ev.samples(range(CIRCLE_SAMPLES), CIRCLE_SAMPLES)
        if ev.real:  # phi_{N-l} = conj phi_l
            samples += [mp.conj(x) for x in samples[-2:0:-1]]
        return value, err, rays, samples, mp.prec


@settings(max_examples=6, derandomize=True, deadline=None)
@given(
    periods=st.lists(st.floats(0.5, 2), min_size=1, max_size=3),
    k=st.one_of(st.integers(-1, 3), st.tuples(st.floats(-3, 1), st.floats(-2, 2))),
    m=st.integers(0, 2),
    w=st.floats(0.5, 30),
    tail=st.one_of(
        st.none(), st.tuples(st.integers(-2, 2), st.lists(st.floats(-2, 2), min_size=1, max_size=4))
    ),
    target=st.sampled_from([1e-22, 1e-40]),
)
@example(periods=[1, 1.3, 0.7], k=1, m=2, w=1.5, tail=(-1, [0.5, 1, -0.25]), target=1e-40)
@example(periods=[1, 1.3], k=(2.5, 0.5), m=1, w=3, tail=None, target=1e-40)
def test_real_arithmetic_matches_complex(widened, periods, k, m, w, tail, target):
    # real periods, w and tail: the integral with its inputs real (mpf) and
    # its circle mirrored, against the same integral built under ``widened``,
    # whose inputs are mpc with zero imaginary parts, in complex arithmetic
    # throughout with every sample evaluated.  They take the same ray nodes;
    # each ray node and each of 64 circle samples agrees within 2^(8 - bits)
    # of its magnitude, and the estimates agree to 3 digits
    poly = q_poly(m, 1, P)

    def build():
        k_ = k if isinstance(k, int) else -mp.mpc(*k)
        tail_ = None if tail is None else LaurentSeries(tail[0], tuple(map(mpf, tail[1])))
        return IntegrandSpec(omega=OmegaVector.of(*map(mpf, periods)), w=mpf(w), k=k_,
                             poly=poly, tail=tail_)

    p = P.with_target(target)
    ispec = build()
    assert isinstance(ispec.w, mpf)
    value, err, rays, samples, prec = _cold_run(ispec, p)
    with widened():
        ref_ispec = build()
        assert isinstance(ref_ispec.w, mp.mpc)
        ref_value, ref_err, ref_rays, ref_samples, _ = _cold_run(ref_ispec, p)
    bound = mpf(2) ** (8 - prec)
    assert rays.keys() == ref_rays.keys()
    for key, node in rays.items():
        assert abs(node - ref_rays[key]) <= bound * abs(ref_rays[key])
    for sample, ref_sample in zip(samples, ref_samples):
        assert abs(sample - ref_sample) <= bound * abs(ref_sample)
    assert abs(err - ref_err) <= mpf("1e-3") * ref_err
    assert abs(value - ref_value) <= err


# the circle's integrands for the spectral part against mp.quad: (omega, w,
# k, poly, tail, lambda as a fraction of the pole bound or None for auto_spec's)
_SPECTRAL_CASES = {
    "integer-k-m4": (_OM, mpf("1.5"), 2, q_poly(4, 2, P), None, None),
    "complex-k-im-up": (_OM, mpf("1.5"), -mp.mpc("2.5", "10"), PolyC((1,)), None, None),
    "complex-k-im-down": (_OM, mpf("1.5"), -mp.mpc("-1.5", "-10"), PolyC((mpf("1e-25"),)),
                          None, None),
    "negative-tail": (_OM, mpf("1.5"), 1, q_poly(2, 1, P),
                      bernoulli_expansion(OmegaVector.of(mpf("0.7")), mpf("0.4"), 5, P), None),
    "complex-w": (_OM, mp.mpc("1.5", "2"), 1, q_poly(2, 1, P), None, None),
    "complex-omega": (OmegaVector.of(1, mpf("0.9") * mp.expj(mpf("1.3"))), mpf("1.5"), 1,
                      q_poly(3, 1, P), None, None),
    "lam-override": (_OM, mpf("1.5"), 1, q_poly(2, 1, P), None, mpf("0.8")),
}


@pytest.mark.parametrize("case", list(_SPECTRAL_CASES))
def test_spectral_circle_matches_mpmath_quad(case):
    # the circle part alone, refined by _refine_worst, against mpmath's
    # tanh-sinh quadrature of i t F(t) over theta in [0, 2 pi], t = lambda
    # e^{i theta} and log t = log lambda + i theta, at 64 more bits
    om, w, k, poly, tail, fraction = _SPECTRAL_CASES[case]
    ispec = IntegrandSpec(omega=om, w=w, k=k, poly=poly, tail=tail)
    lam = auto_spec(om, w, P) if fraction is None else om.pole_bound * fraction
    assert tail is None or tail.valuation < 0
    with SHARP.context():
        loglam = mp.log(lam)

        def integrand(theta):
            t, logt = lam * mp.expj(theta), mp.mpc(loglam, theta)
            return mp.mpc(0, 1) * t * _product_form(ispec, t, logt) * ispec.poly(logt)

        ref = mp.quad(integrand, mp.linspace(0, 2 * mp.pi, 5))
    for target in (1e-22, 1e-40):
        p = P.with_target(target)
        with p.context(QUADRATURE_GUARD_BITS):
            ev = hankel._ContourEvaluator(ispec, p.zero_threshold, mpf(lam))
            val, err = hankel._refine_worst([ev.first_pass()], mpf(target), 0)
        with SHARP.context():
            assert abs(val - ref) <= err <= target


def _dft(samples):
    """A'_m = (1/n) sum_l phi_l e^{-2 pi i m l / n}, m < n, from its
    definition at 600 bits: the samples' parts as exact integers times one
    power of 2, summed exactly against the roots of unity rounded to 600 bits."""
    n = len(samples)
    parts = [x for sample in samples for x in (mp.re(sample), mp.im(sample))]
    low = min((x._mpf_[2] for x in parts if x), default=0)
    ints = [int(mp.ldexp(x, -low)) for x in parts]
    xr, xi = ints[::2], ints[1::2]
    with mp.workprec(600):
        roots = [mp.expjpi(-mpf(2 * j) / n) for j in range(n)]
        c, s = ([int(mp.nint(mp.ldexp(f(r), 600))) for r in roots] for f in (mp.re, mp.im))
        spectrum = []
        for m in range(n):
            order = [m * l % n for l in range(n)]
            cm, sm = [c[j] for j in order], [s[j] for j in order]
            re = sum(map(mul, xr, cm)) - sum(map(mul, xi, sm))
            im = sum(map(mul, xr, sm)) + sum(map(mul, xi, cm))
            spectrum.append(mp.mpc(mp.ldexp(re, low - 600), mp.ldexp(im, low - 600)) / n)
        return spectrum


def _kernel_samples(case, n, rng):
    """n samples at the working precision: complex; Hermitian (x_{n-l} =
    conj x_l, x_0 and x_{n/2} mpf); either with sizes spread over 2^40
    from the smallest to the largest ("wide"); complex with every third
    an mpf ("mixed"); or one sample whose mp.mag overstates its size most,
    1 + 2^-100 i with mag 2, and n - 1 zeros ("spike"), so that mean|phi_l|
    is the least the largest sample allows."""
    bits = mp.prec
    if case == "spike":
        return [mp.mpc(1, mp.ldexp(1, -100))] + [mp.mpc(0)] * (n - 1)

    def draw(l):
        size = mpf(2) ** (40 * min(l, n - l) / mpf(n // 2)) if case.startswith("wide") else 1
        parts = (mp.ldexp(rng.getrandbits(bits) - 2 ** (bits - 1), -bits) for _ in range(2))
        return mp.mpc(*parts) * size

    if case.endswith("hermitian"):
        half = [draw(l) for l in range(n // 2 + 1)]
        half[0], half[-1] = mp.re(half[0]), mp.re(half[-1])
        return half + [mp.conj(x) for x in half[-2:0:-1]]
    return [mp.re(draw(l)) if case == "mixed" and l % 3 == 0 else draw(l) for l in range(n)]


@pytest.mark.parametrize("n", [64, 128, 512])
@pytest.mark.parametrize("case", ["complex", "hermitian", "wide", "wide-hermitian", "mixed", "spike"])
def test_integer_transform_matches_the_definition(monkeypatch, case, n):
    # each coefficient of _spectrum against a 600-bit DFT from its
    # definition is within the module docstring's bound
    # (log2 N + 3) 2^-(bits + 8) mean|phi_l|, and the error it puts into a
    # part's value, through that circle's moments, is below the part's
    # floor 50 2^-bits mean|phi_l| sum|B_n| (both without |lambda^{-k-1}|);
    # the unit it rounds the samples in is at most 2^-(bits + 8)
    # mean|phi_l|, and the mean it returns, taken from its integers, is
    # within 2^(2 - bits) of mean|phi_l| relatively; Hermitian samples,
    # given by their half l <= N/2, give zero imaginary parts
    real = case.endswith("hermitian")
    ispec = IntegrandSpec(omega=_OM, w=mpf("1.5"), k=1, poly=q_poly(2, 1, P))
    with P.context(QUADRATURE_GUARD_BITS):
        bits = mp.prec
        ev = hankel._ContourEvaluator(ispec, P.zero_threshold, auto_spec(_OM, ispec.w, P))
        b_unit, br, bi, _, total = ev.moments(n)
        samples = _kernel_samples(case, n, random.Random(n))
        units = []
        fixed = hankel._fixed
        monkeypatch.setattr(hankel, "_fixed", lambda x, unit: units.append(unit) or fixed(x, unit))
        mean, yr, yi, unit = hankel._spectrum(samples[: n // 2 + 1] if real else samples, real)
    assert not real or not any(yi)
    spectrum, moments = _exact_mpcs(yr, yi, unit), _exact_mpcs(br, bi, b_unit)
    ref = _dft(samples)
    with mp.workprec(600):
        ref_mean = mp.fsum(map(abs, samples)) / n
        assert len(set(units)) == 1 and mp.ldexp(1, -units[0]) <= mp.ldexp(ref_mean, -bits - 8)
        assert abs(mean - ref_mean) <= mp.ldexp(ref_mean, 2 - bits)
        bound = (n.bit_length() - 1 + 3) * mp.ldexp(ref_mean, -bits - 8)
        errs = [a - b for a, b in zip(spectrum, ref)]
        assert max(map(abs, errs)) <= bound
        window = [errs[m % n] for m in range(ev.n0, ev.n0 + n)]
        assert abs(mp.fdot(window, moments)) < 50 * mp.ldexp(ref_mean * total, -bits) / 45


@pytest.mark.parametrize("n", [64, 128, 512])
def test_zero_samples_give_an_exactly_zero_circle(n):
    ispec = IntegrandSpec(omega=_OM, w=mpf("1.5"), k=1, poly=q_poly(2, 1, P))
    # a cleared store keeps no level, so the part takes the samples given;
    # it is cleared again after, so that no integral reads the zeros
    hankel._node_store.cache_clear()
    try:
        with P.context(QUADRATURE_GUARD_BITS):
            ev = hankel._ContourEvaluator(ispec, P.zero_threshold, auto_spec(_OM, ispec.w, P))
            assert ev.real
            # a real integrand's part takes its N/2 + 1 samples with 2l <= N
            zeros = [mpf(0)] * (n // 4) + [mp.mpc(0)] * (n // 4 + 1)
            ev.samples = lambda ls, size: zeros
            value, err, _, _, floor = ev.part(n)
            assert (value, err, floor) == (0, 0, 0)
            for real in (False, True):
                zeros = [mp.mpc(0)] * (n // 2 + 1 if real else n)
                assert hankel._spectrum(zeros, real) == (0, [0] * n, [0] * n, 0)
    finally:
        hankel._node_store.cache_clear()


@pytest.mark.parametrize("n", [64, 128, 512])
def test_mirrored_circle_matches_the_complex_one(widened, n):
    # a real integrand's circle part, from its n/2 + 1 samples mirrored into
    # the one n-point transform, against the part of the same integrand built
    # under ``widened``, in complex arithmetic with all n samples evaluated:
    # within the sum of their floors, each on a cleared store; the real
    # side's coefficients have exactly zero imaginary parts
    def part():
        hankel._node_store.cache_clear()
        tail = LaurentSeries(-1, (mpf("0.5"), mpf(1), mpf("-0.25")))
        ispec = IntegrandSpec(omega=OmegaVector.of(1, mpf("1.3"), mpf("0.7")), w=mpf("1.5"), k=1,
                              poly=q_poly(2, 1, P), tail=tail)
        with P.context(QUADRATURE_GUARD_BITS):
            ev = hankel._ContourEvaluator(ispec, P.zero_threshold, auto_spec(ispec.omega, ispec.w, P))
            value, _, _, _, floor = ev.part(n)
            return ev.real, value, floor, ev.group[n][2]

    try:
        real, value, floor, coeffs = part()
        with widened():
            ref_real, ref_value, ref_floor, ref_coeffs = part()
    finally:
        hankel._node_store.cache_clear()
    assert real and not ref_real
    assert not any(coeffs) and any(ref_coeffs)
    assert abs(value - ref_value) <= floor + ref_floor


def _mpf_moments(ev, n, extra=0):
    """The mpf moment loop that the integer moments replaced: (B_m for the
    window n0 <= m < n0 + n, max |B_m|, sum |B_m|), B_m = sum_i (-1)^i
    diff^(i)(log lam) / beta^(i+1), beta = m - k - 1, and for beta = 0 the
    integral of poly over the segment.  The jet and the flat integral are
    taken at the working precision, and the loop at extra more bits (none
    in the loop it replaced)."""
    a = ev.origin
    jet = [c * math.factorial(i) for i, c in enumerate(ev.diff.shift(a).coeffs)]
    two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
    flat = mp.fsum(c * two_pi_i ** (j + 1) / (j + 1) for j, c in enumerate(ev.ispec.poly.shift(a).coeffs))
    moments = []
    with mp.workprec(mp.prec + extra):
        for m in range(ev.n0, ev.n0 + n):
            beta = m + ev.neg_k1
            if beta == 0:
                moments.append(flat)
                continue
            inv, acc = 1 / mp.mpmathify(beta), mp.mpc(0)
            for g in reversed(jet):
                acc = acc * -inv + g
            moments.append(acc * inv)
        sizes = [abs(b) for b in moments]
        return moments, max(sizes), mp.fsum(sizes)


_S = mpf("-170.5")
# (omega, w, k, poly, policy): real inputs whose ray difference is real (so
# real ray values), complex inputs, a complex k, a constant poly (no ray
# difference), 640 bits with panel values far beyond 2^+-512, and the weight
# 1 / (Gamma(s) (e^{2 pi i s} - 1)) ~ 1.5e307 of the Barnes zeta at s = -170.5
_KERNEL_CASES = {
    "real-values": (_OM, mpf("1.5"), 1, PolyC((0, mp.mpc(0, -1 / (2 * mp.pi)))), P),
    "complex": (OmegaVector.of(1, mpf("1.3") * mp.expj(mpf("0.2"))), mp.mpc("1.5", "0.5"), 2,
                q_poly(3, 2, P), P),
    "complex-k": (_OM, mpf("1.5"), -mp.mpc("2.5", "0.3"), PolyC((mpf("0.7"),)), P),
    "near-integer-k": (_OM, mpf("1.5"), mpf("0.999"), q_poly(2, 1, P), P),
    "constant-poly": (_OM, mpf("1.5"), 1, PolyC((mpf("1.25"),)), P),
    "640-bits": (OmegaVector.of(1), mpf("0.5"), 0, q_poly(1, 0, PrecisionPolicy(640, 1e-140)),
                 PrecisionPolicy(640, 1e-140)),
    "s-170.5": (OmegaVector.of(1, 1), mpf("2.5"), -_S,
                PolyC((1 / (mp.gamma(_S) * (mp.exp(2 * mp.pi * mp.mpc(0, 1) * _S) - 1)),)), P),
}


def _kernel_evaluator(case):
    """A cold evaluator of the case, built in the context it must be used in."""
    om, w, k, poly, p = _KERNEL_CASES[case]
    hankel._node_store.cache_clear()
    ispec = IntegrandSpec(omega=om, w=w, k=k, poly=poly)
    return hankel._ContourEvaluator(ispec, p.zero_threshold, auto_spec(om, w, p))


@pytest.mark.parametrize("case", list(_KERNEL_CASES))
def test_integer_panel_matches_the_mpf_sums(case):
    # panels near lambda, below it, and far out: the integer panel against
    # the mpf sums of the same terms times diff(u) at the same nodes u (the
    # panel the integer one replaced), and against sums at twice the bits
    # of those terms times the exact diff at the integer nodes; its
    # rounding is within a 45th of the floor three times over (the values,
    # diff's Horner, the return to bits), its estimate and floor are the
    # mpf sums' to 1e-9, and real values give an mpf
    p = _KERNEL_CASES[case][4]
    with p.context(QUADRATURE_GUARD_BITS):
        ev = _kernel_evaluator(case)
        bits, prec = mp.prec + 32, mp.prec
        rule, mpf_rule = hankel._legendre_nodes(mp.prec), _exact_rule(mp.prec)
        width = mpf(PANEL_WIDTH)
        for a, b in ((0, 1), (-2, 0), (1, mpf("1.5")), (4, 5)):
            a, b = a * width, b * width
            seen, term = [], ev.term
            ev.term = lambda key, u: seen.append((u(), term(key, u))) or seen[-1][1]
            value, err, _, _, floor = hankel._panel(ev, a, b, rule, 0)
            del ev.term
            half = (b - a) / 2
            if not ev.diff.coeffs:
                assert (value, err, floor) == (0, 0, 0)
                continue
            fs = [t * ev.diff(u) for u, t in seen]
            ref = _mpf_gk_sums(fs, half, mpf_rule)
            base, h = ev.fixed_origin + to_fixed(((a + b) / 2)._mpf_, bits), to_fixed(half._mpf_, bits)
            us = [base + (h * x >> bits) for x in rule[0]]
            assert isinstance(value, mpf) == all(isinstance(f, mpf) for f in fs)
            assert abs(err / ref[1] - 1) < 1e-9 and abs(floor / ref[2] - 1) < 1e-9
            assert abs(value - ref[0]) <= floor / 15
            with mp.workprec(2 * bits):
                exact = half * mp.fsum(
                    _exact_mpf(w, bits) * t * ev.diff(_exact_mpf(u, bits))
                    for w, (_, t), u in zip(rule[1], seen, us)
                )
                assert abs(value - exact) <= 3 * floor / 45
            assert prec == mp.prec


@pytest.mark.parametrize("case", list(_KERNEL_CASES))
@pytest.mark.parametrize("n", [64, 256])
def test_integer_moments_match_the_mpf_loop(case, n):
    # each integer moment B_m: for an integer beta the floor, in its unit,
    # of the exact sum over beta^(i+1) of the jet's integers (a negative
    # beta included); within twice the module docstring's 2 (d + 2) a^(d+1)
    # units (room for nu's rounding) of the sum of the same jet at twice the
    # bits for any beta; and
    # within 2^(8 - bits) of the terms' sizes of the mpf loop it replaced,
    # whose max |B| and sum |B| it gives to 1e-12 (that loop loses 17 bits
    # to cancellation at beta = 0.001, where the sum at twice the bits
    # finds the integer moment within 1e-84).  The window's sum |B| is at
    # least 2^need units, so that the moments' rounding stays below a 45th
    # of the part's floor
    p = _KERNEL_CASES[case][4]
    with p.context(QUADRATURE_GUARD_BITS):
        ev = _kernel_evaluator(case)
        bits = mp.prec
        unit, br, bi, largest, total = ev.moments(n)
        ref, ref_largest, ref_total = _mpf_moments(ev, n)
        jet = [c * math.factorial(i) for i, c in enumerate(ev.diff.shift(ev.origin).coeffs)]
        betas = [m + ev.neg_k1 for m in range(ev.n0, ev.n0 + n)]
        exact_k = isinstance(ev.neg_k1, int)
        assert any(beta == 0 for beta in betas) == exact_k
        a = 1 if exact_k else max(1, max(1 / abs(beta) for beta in betas))
        d = len(jet) - 1
        moments = _exact_mpcs(br, bi, unit)
        assert ref_largest and abs(largest / ref_largest - 1) < 1e-12 and abs(total / ref_total - 1) < 1e-12
        for beta, x, y, ours, theirs in zip(betas, br, bi, moments, ref):
            if beta == 0:
                assert abs(ours - theirs) <= mp.ldexp(abs(theirs), 1 - bits) + mp.ldexp(1, 1 - unit)
                continue
            terms = sum(abs(g) / abs(beta) ** (i + 1) for i, g in enumerate(jet))
            assert abs(ours - theirs) <= mp.ldexp(ref_largest + terms, 8 - bits)
            if exact_k and jet:
                fixed = [hankel._fixed(g, unit) for g in jet]
                for part, got in ((0, x), (1, y)):
                    exact = sum(Fraction((-1) ** i * g[part], beta ** (i + 1)) for i, g in enumerate(fixed))
                    assert got == math.floor(exact)
            with mp.workprec(2 * bits):
                exact = mp.fsum((-1) ** i * g / mp.mpmathify(beta) ** (i + 1) for i, g in enumerate(jet))
                assert abs(ours - exact) <= 4 * (d + 2) * a ** (d + 1) * mp.ldexp(1, -unit)
        assert sum(math.isqrt(x * x + y * y) for x, y in zip(br, bi)) >= 2 ** (
            bits + n.bit_length() - 1 + (4 * len(jet) + 4).bit_length())
        # the first unit is 2^-(bits + 16) / N times 2^J, J the largest mag
        # of the jet and (in a window with beta = 0) the flat integral; only
        # the near-integer k's window needs a finer one
        flat = [b for b, beta in zip(ref, betas) if beta == 0]
        start = bits + 16 + n.bit_length() - 1 - max(mp.mag(g) for g in jet + flat if g)
        assert unit == start if case != "near-integer-k" else unit > start


def test_panel_units_follow_the_module_docstring(monkeypatch):
    # diff's coefficients are integers in the unit 2^-(bits + 32) of the
    # largest; a panel whose terms are all 1 (mag 1) and whose diff is 2^40
    # of those units (bit length 41) rounds its terms in the unit
    # 2^(top - bits - 16) / 2^dmax = 2^-(bits + 15), top = 1 + 41 and
    # dmax = 41, and its Kronrod value is the integral of that constant
    with P.context(QUADRATURE_GUARD_BITS):
        ev = _kernel_evaluator("complex")
        assert ev.diff_unit == mp.prec + 32 - max(mp.mag(c) for c in ev.diff.coeffs)
        ev.term = lambda key, u: mpf(1)
        ev.diff_fixed = [(1 << 40, 0)]
        units, fixed = [], hankel._fixed
        monkeypatch.setattr(hankel, "_fixed", lambda x, unit: units.append(unit) or fixed(x, unit))
        width = mpf(PANEL_WIDTH)
        value, _, _, _, floor = hankel._panel(ev, width, 2 * width, hankel._legendre_nodes(mp.prec), -2)
        assert set(units) == {mp.prec + 15}
        assert abs(value - width * mp.ldexp(1, 40 - ev.diff_unit)) <= floor / 45


@pytest.mark.parametrize("case", ["real-values", "complex", "complex-k", "near-integer-k", "constant-poly"])
def test_integer_circle_part_matches_the_mpf_dot_product(case):
    # the circle part's value, estimate and floor against the mpf part: its
    # mpf coefficients (the integers rounded to the working precision) dotted
    # with the mpf moments, their loop at 64 more bits (at beta = 0.001 the
    # replaced loop lost 17 bits, beyond its floor); the value within a 10th
    # of the floor, the estimate and floor to 1e-9 (a real integrand's
    # moments keep their imaginary parts)
    p = _KERNEL_CASES[case][4]
    with p.context(QUADRATURE_GUARD_BITS):
        ev = _kernel_evaluator(case)
        for n in (64, 128):
            value, err, _, _, floor = ev.part(n)
            mean, yr, yi, unit = ev.group[n]
            coeffs = [+x for x in _exact_mpcs(yr, yi, unit)]
            coeffs = [coeffs[m % n] for m in range(ev.n0, ev.n0 + n)]
            moments, largest, total = _mpf_moments(ev, n, 64)
            scale = abs(ev.scale)
            ref = ev.scale * mp.fdot(coeffs, moments)
            ref_err = ev.factor * max(map(abs, coeffs[-4:])) * largest * scale
            ref_floor = 50 * mp.ldexp(mean * total * scale, -mp.prec)
            assert abs(value - ref) <= floor / 10
            assert abs(err / ref_err - 1) < 1e-9 and abs(floor / ref_floor - 1) < 1e-9


def _unit_ray(poly):
    # r = 0, k = 0, tail = t: the ray integrand is e^{-t} times the ray
    # difference poly(log t + 2 pi i) - poly(log t)
    tail = LaurentSeries(1, (mp.mpc(1),))
    return IntegrandSpec(omega=OmegaVector.of(), w=1, k=0, poly=poly, tail=tail)


def test_ray_only_vanishing_ray_is_exactly_zero(monkeypatch):
    # a constant poly with integer k: the ray difference has no coefficients,
    # the test that skips the contour's rays, so no end is searched for
    ends, ray_end = [], hankel._ray_end
    monkeypatch.setattr(hankel, "_ray_end", lambda *a: ends.append(a) or ray_end(*a))
    assert ray_only_integrate(_unit_ray(PolyC((3,))), P) == (0, 0)
    assert not ends


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


def _remainder_ray(m, w, nu):
    """The ray side of remainder_reduction_check(default_experiment(m, 0), w, nu)."""
    e = default_experiment(m, 0)
    with P.context(16):
        return IntegrandSpec(
            omega=e.omega, w=w, k=e.k, poly=PolyC.monomial(nu), tail=remainder_tail(e)
        )


def test_ray_only_near_segment_is_a_few_log_panels(monkeypatch):
    # the ray side of remainder_reduction_check(default_experiment(1, 0), 20, 1):
    # eps is about 1e-11 (cut -9), and one panel per doubling of [eps, T]
    # would be 39, one per cut 10; the graded near segment takes panels of
    # 4, 4 and 1 cuts, and the far end one more
    panels = _record_panels(monkeypatch)
    ray_only_integrate(_remainder_ray(1, 20, 1), P)
    assert len(panels) <= 4


@pytest.mark.parametrize("m, w, nu", [(1, 20, 1), (1, 2, 1), (3, 2, 3), (3, 5, 2), (2, 12, 2)])
def test_ray_only_near_panels_widen_toward_zero(monkeypatch, m, w, nu):
    # the first pass's panels are 2^i cuts wide at depth -2 - i, and their
    # widths do not shrink going left; the near end eps is the first cut
    # j = 0, -1, -2, ... whose end bound is below target / 10, as with equal
    # panels; at the default target no first-pass panel is refined
    first, segment = [], hankel._segment

    def first_pass(*args):
        parts = segment(*args)
        first.append(parts)
        return parts

    monkeypatch.setattr(hankel, "_segment", first_pass)
    panels = _record_panels(monkeypatch)
    ispec = _remainder_ray(m, w, nu)
    _, err = ray_only_integrate(ispec, P)
    assert err <= P.target_abs_error
    assert len(first) == 1 and len(panels) == len(first[0])
    cuts = [a / mpf(PANEL_WIDTH) for a, _, _ in panels] + [panels[-1][1] / mpf(PANEL_WIDTH)]
    assert all(j == int(j) for j in cuts)
    widths = [int(b - a) for a, b in zip(cuts, cuts[1:])]
    assert all(width & (width - 1) == 0 for width in widths)
    assert all(depth == -1 - width.bit_length() for width, (_, _, depth) in zip(widths, panels))
    assert all(left >= right for left, right in zip(widths, widths[1:]))
    target = P.reachable_target()
    with P.context(QUADRATURE_GUARD_BITS):
        ev = hankel._ContourEvaluator(ispec, P.zero_threshold, auto_spec(ispec.omega, w, P))
        eps = int(cuts[0])
        assert ev.end_bound(eps) < target / 10
        assert all(ev.end_bound(j) >= target / 10 for j in range(eps + 1, 1))


def test_ray_only_refines_only_the_panels_that_miss(monkeypatch):
    # at w = 0.5 - 3i, T is about 183, and the first pass's last panels hold
    # dozens of periods of e^{3it}: only those are bisected (doubling every
    # panel took 196 panels here)
    om = OmegaVector.of(mp.expj(mpf("-0.7")))
    tail = LaurentSeries(2, (mp.mpc(1), mpf("0.3"), mp.mpc("-0.2", "0.1")))
    ispec = IntegrandSpec(omega=om, w=mp.mpc("0.5", "-3"), k=0, poly=PolyC.monomial(1), tail=tail)
    panels = _record_panels(monkeypatch)
    val, err = ray_only_integrate(ispec, P)
    assert len(panels) <= 60
    ref, _ = hankel_integrate(ispec, None, SHARP)
    with SHARP.context():
        assert abs(val - ref) <= 5 * err


# r = 1 or 2 periods with |arg| <= 1.3 and modulus up to 2, k = 0..2, nu = 1..3,
# Re(w) in [0.5, 40] with |Im w| <= Re(w) / 2, a tail of valuation exactly
# k + 1 + r with a nonzero leading coefficient, and a target of 1e-22 or 1e-40
@settings(max_examples=3, derandomize=True, deadline=None)
@given(
    periods=st.lists(st.tuples(st.floats(0.5, 2), st.floats(-1.3, 1.3)), min_size=1, max_size=2),
    k=st.integers(0, 2),
    nu=st.integers(1, 3),
    w_re=st.floats(0.5, 40),
    w_slope=st.floats(-0.5, 0.5),
    lead_arg=st.floats(-3, 3),
    target=st.sampled_from([1e-22, 1e-40]),
)
@example(periods=[(2, 1.3), (0.5, -1.3)], k=2, nu=3, w_re=5, w_slope=0.5, lead_arg=1, target=1e-40)
@example(periods=[(1, -1.3)], k=0, nu=1, w_re=0.5, w_slope=-0.5, lead_arg=0, target=1e-40)
@example(periods=[(1, 1.3)], k=1, nu=2, w_re=40, w_slope=0.5, lead_arg=2, target=1e-40)
def test_ray_only_estimates_are_honest(periods, k, nu, w_re, w_slope, lead_arg, target):
    om = OmegaVector.of(*(mp.mpmathify(cmath.rect(*pa)) for pa in periods))
    tail = LaurentSeries(
        k + 1 + om.r, (mp.mpmathify(cmath.rect(1, lead_arg)), mpf("0.3"), mp.mpc("-0.2", "0.1"))
    )
    w = mp.mpc(w_re, w_re * w_slope)
    ispec = IntegrandSpec(omega=om, w=w, k=k, poly=PolyC.monomial(nu), tail=tail)
    val, err = ray_only_integrate(ispec, P.with_target(target))
    # the contour integral of the same integrand, which Cauchy's theorem
    # equates to the rays, at 64 more bits and 1e-55
    ref_policy = PrecisionPolicy(P.precision_bits + 64, 1e-55)
    ref, _ = hankel_integrate(ispec, None, ref_policy)
    with ref_policy.context():
        assert abs(val - ref) <= 5 * err
    assert err <= target


def test_small_divisor_near_zero_is_not_a_pole():
    # |1 - e^(-omega t)| ~ |omega t| below the pole threshold: the zero at t = 0
    om = OmegaVector.of(1, mp.expj(mpf("1.3")))
    thr = P.zero_threshold
    t = mpf("1e-35")
    f = hankel._f_omega_at(om.omegas, t, thr)
    # within the relative error 2^-prec / |omega t| of the divisors
    assert abs(f * t * t * om.product - 1) < 2 ** (4 - mp.prec) / t
    # fewer than 32 bits of 1 - e^(-omega t) left
    with pytest.raises(PrecisionUnreachable):
        hankel._f_omega_at(om.omegas, mpf(2) ** (20 - mp.prec), thr)


def test_small_divisor_near_a_ray_pole_raises():
    # omega nearly imaginary: the pole 2 pi i / omega is within 1e-40 of t = 2 pi
    om = OmegaVector.of(mp.expj(mp.pi / 2 - mpf("1e-40")))
    with pytest.raises(PolesTooClose):
        hankel._f_omega_at(om.omegas, 2 * mp.pi, P.zero_threshold)


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
