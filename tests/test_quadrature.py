import cmath
import gc
import random
import time
import weakref
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

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


def test_gk_sums_scale_by_the_largest_value():
    # values from 2^-430 down to 2^-3630: scaled by the middle one, 2^-2030,
    # the largest overflowed a float; scaled by the largest, the estimate
    # and the floor are finite, and the floor is the rounding floor of the sum
    rule = hankel._legendre_nodes(mp.prec)
    fs = [mp.ldexp(1 + mpf(i) / 7, -430 - 50 * i) for i in range(KRONROD_NODES)]
    kronrod, err, floor = hankel._gk_sums(fs, mpf(1), rule)
    assert kronrod > 0 and mp.isfinite(err) and mp.isfinite(floor)
    resabs = mp.fdot(rule[1], fs)
    assert abs(floor / mp.ldexp(50 * resabs, -mp.prec) - 1) < 1e-12


def test_kronrod_rule_degree():
    # K65 is exact through degree 3 * 32 + 1 = 97, G32 through 63
    nodes, kw, gw, _ = hankel._legendre_nodes(mp.prec)
    assert abs(mp.fsum(kw) - 2) < mpf("1e-55")
    assert abs(mp.fsum(gw) - 2) < mpf("1e-55")
    assert abs(_rule_moment(kw, nodes, 96) - mpf(2) / 97) < mpf("1e-55")
    assert abs(_rule_moment(kw, nodes, 98) - mpf(2) / 99) > mpf("1e-40")
    assert abs(_rule_moment(gw, nodes[1::2], 62) - mpf(2) / 63) < mpf("1e-55")
    assert abs(_rule_moment(gw, nodes[1::2], 64) - mpf(2) / 65) > mpf("1e-25")


def test_kronrod_rule_shape():
    # positive weights, nodes symmetric about 0, ascending in (-1, 1), and
    # each Gauss node (odd index) between two Kronrod nodes
    nodes, kw, gw, fkw = hankel._legendre_nodes(mp.prec)
    assert fkw == tuple(map(float, kw))
    assert len(nodes) == len(kw) == KRONROD_NODES == 2 * len(gw) + 1
    assert min(kw) > 0 and min(gw) > 0
    assert all(a + b == 0 for a, b in zip(nodes, reversed(nodes)))
    assert -1 < nodes[0] and nodes[-1] < 1
    assert all(a < b for a, b in zip(nodes, nodes[1:]))
    assert all(a == b for a, b in zip(kw, reversed(kw)))
    # the Gauss subset is the 32-point Gauss-Legendre rule
    for x in nodes[1::2]:
        assert abs(mp.legendre(32, x)) < mpf("1e-50")


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

    def first_pass(g, a, b, n, rule, depth):
        parts = segment(g, a, b, n, rule, depth)
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

    def first_pass(g, a, b, n, rule, depth):
        parts = segment(g, a, b, n, rule, depth)
        first.extend(parts)
        return parts

    def unit_panel(g, a, b, rule, depth):
        evaluated.append((b - a, depth))
        return panel(lambda u: mpf(0), a, b, rule, depth)

    monkeypatch.setattr(hankel, "_segment", first_pass)
    monkeypatch.setattr(hankel, "_panel", unit_panel)
    monkeypatch.setattr(hankel, "_gk_sums", lambda fs, half, rule: (mpf(0), mpf(1), mpf(0)))
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

    def first_pass(g, a, b, n, rule, depth):
        parts = segment(g, a, b, n, rule, depth)
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
            # ray node's or term's u._mpf_, or a window
            found.add(len(key) if isinstance(key, tuple) else type(key).__name__)
        return value

    monkeypatch.setattr(hankel._Group, "get", spied)
    warm = [hankel_integrate(ispec, 1, P) for ispec in ispecs for _ in range(2)]
    assert warm == [result for result in cold for _ in range(2)]
    assert found == {"float", "int", 4, 5}
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
        # a node's key is a fraction of the turn or the 4-tuple u._mpf_; a
        # moment window's is a 5-tuple
        nodes = [key for key in offered if not isinstance(key, tuple) or len(key) == 4]
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
            return len(entry[0])
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
        rays = [ev.ray(mp.log(t)) for t in ts]
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
    rays = [nodes[key] for key in nodes if isinstance(key, tuple) and len(key) == 4]
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
        keys = [key for key in ev.nodes if isinstance(key, tuple) and len(key) == 4]
        rays = {key: ev.ray(mp.make_mpf(key)) for key in keys}
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
    from the smallest to the largest ("wide"); or complex with every third
    an mpf ("mixed")."""
    bits = mp.prec

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
@pytest.mark.parametrize("case", ["complex", "hermitian", "wide", "wide-hermitian", "mixed"])
def test_integer_transform_matches_the_definition(case, n):
    # each coefficient of _spectrum against a 600-bit DFT from its
    # definition is within the module docstring's bound
    # (1 + (2 log2 N + 2) / 256) 2^-bits mean|phi_l|, and the error it puts
    # into a part's value, through that circle's moments, is below the
    # part's floor 50 2^-bits mean|phi_l| sum|B_n| (both without
    # |lambda^{-k-1}|); Hermitian samples, given by their half l <= N/2, give
    # mpf coefficients
    real = case.endswith("hermitian")
    ispec = IntegrandSpec(omega=_OM, w=mpf("1.5"), k=1, poly=q_poly(2, 1, P))
    with P.context(QUADRATURE_GUARD_BITS):
        bits = mp.prec
        samples = _kernel_samples(case, n, random.Random(n))
        mean = mp.fsum(map(abs, samples)) / n
        spectrum = hankel._spectrum(samples[: n // 2 + 1] if real else samples, mean, real)
        ev = hankel._ContourEvaluator(ispec, P.zero_threshold, auto_spec(_OM, ispec.w, P))
        moments, _, total = ev.moments(n)
    assert all(isinstance(a, mpf if real else mp.mpc) for a in spectrum)
    ref = _dft(samples)
    with mp.workprec(600):
        bound = (1 + mpf(2 * (n.bit_length() - 1) + 2) / 256) * mp.ldexp(mean, -bits)
        errs = [a - b for a, b in zip(spectrum, ref)]
        assert max(map(abs, errs)) <= bound
        window = [errs[m % n] for m in range(ev.n0, ev.n0 + n)]
        assert abs(mp.fdot(window, moments)) < 50 * mp.ldexp(mean * total, -bits)


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
                assert hankel._spectrum(zeros, mpf(0), real) == [0] * n
    finally:
        hankel._node_store.cache_clear()


@pytest.mark.parametrize("n", [64, 128, 512])
def test_fold_agrees_with_the_general_transform(n):
    # on mirrored integer samples x_{n-l} = conj x_l of the size _spectrum
    # gives them, 2^(bits + 8), the n/2-point fold's Z_m = Y_{2m} + i Y_{2m+1}
    # matches the general n-point transform's real spectrum within one unit
    # of the coefficients A'_m = Y_m / n, that is n units of Y
    rng, bits = random.Random(n), P.precision_bits + QUADRATURE_GUARD_BITS + 8

    def draw():
        return rng.getrandbits(bits + 1) - 2 ** bits

    half = [(draw(), draw()) for _ in range(n // 2 + 1)]
    re = [x for x, _ in half] + [x for x, _ in half[-2:0:-1]]
    im = [0] + [y for _, y in half[1:-1]] + [0] + [-y for _, y in half[-2:0:-1]]
    roots = hankel._twiddles(n, bits)
    yr, yi = hankel._transform(re, im, roots, bits)
    # the fold reads the half l <= n/2 alone
    h = n // 2 + 1
    zr, zi = hankel._transform(*hankel._fold(re[:h], im[:h], roots, bits), roots, bits)
    assert max(map(abs, yi)) <= n
    assert max(abs(z - y) for z, y in zip(zr + zi, yr[::2] + yr[1::2])) <= n


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

    def first_pass(g, a, b, n, rule, depth):
        parts = segment(g, a, b, n, rule, depth)
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
