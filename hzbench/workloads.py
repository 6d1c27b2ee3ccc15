"""The four benchmark workloads: seeded request streams, warm-ups and checks.

A workload yields *rounds*.  A round is a short list of requests with a fixed
composition (which functions, which r, which m and k classes); the seed only
chooses the inputs inside each class and the order.  run.py runs a fixed
number of whole rounds, so two runs of the same length see the same mix
whatever their seed.  ``nominal_round_s`` is a round's time at the reference
speed (speed.py); run.py divides the run length by it to get the round count.

Rounds are generated and run inside the library's default precision context,
as the CLI does: the library converts its arguments at the caller's precision.
Every request calls the library through module attributes looked up at call
time (``lib.evaluators.zeta_contour``), so the tracer's wrappers see it.
Each round carries its own correctness checks; they run after the timed
region.  A check returns ``None`` for a correct result, or a ``Verdict``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from mpmath import mp, mpf

import oracles

# A result must agree with its reference within max(10 * err_estimate, target).
ERR_FACTOR = 10
# Criterion 8: relative residual of the five-point finite difference.
FD_TOLERANCE = mpf("1e-10")
# Criterion 10: relative deviation of the Richardson fit from the prediction.
FIT_TOLERANCE = mpf("0.05")
# Criterion 11: absolute slack added to the combined reduction estimates.
REDUCTION_SLACK = mpf("1e-24")
# Working precision of the mpmath reference values.
REFERENCE_BITS = 160
# Precision of the arithmetic inside the checks (finite differences cancel).
CHECK_BITS = 256


@dataclass(frozen=True)
class Verdict:
    reason: str
    known: bool = False  # matches the signature of a documented defect


@dataclass
class Request:
    kind: str
    inputs: str
    call: Callable[[], object]
    check: Callable[[object], Verdict | None] | None = None
    # classifies a raised HyperzetaError; by default it is a plain failure
    on_error: Callable[[Exception], Verdict] | None = None


class MissingInput(Exception):
    """A request needs the result of an earlier request that failed."""


@dataclass
class Round:
    requests: list
    # (member indices, check over their values) for checks spanning requests
    groups: list = field(default_factory=list)


def _within(value, err, ref, target):
    dev = abs(value - ref)
    bound = max(ERR_FACTOR * err, mpf(target))
    if dev > bound:
        return Verdict(f"deviation {mp.nstr(dev, 3)} > {mp.nstr(bound, 3)}")
    return None


def _reference(fn, *args):
    with mp.workprec(REFERENCE_BITS):
        return fn(*args)


def _fd(values, h):
    """Five-point central difference from f(w-2h), f(w-h), f(w+h), f(w+2h)."""
    m2, m1, p1, p2 = values
    return (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h)


def _stratified(rng, n: int, lo: float, hi: float) -> list:
    """n draws from [lo, hi], one in each of n equal bins, in random order.

    Stratified draws keep a run's spread of inputs, and so its cost, nearly
    the same from seed to seed."""
    width = (hi - lo) / n
    draws = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(draws)
    return draws


def _stratified_flags(rng, n: int) -> list:
    """n booleans, half of them true, in random order."""
    flags = [i % 2 == 0 for i in range(n)]
    rng.shuffle(flags)
    return flags


# -- point_eval -------------------------------------------------------------


class PointEval:
    """Scattered single evaluations, a fresh omega per request."""

    name = "point_eval"
    nominal_round_s = 4.0
    FUNCTIONS = ("zeta_contour", "log_hyper_gamma", "balanced_P")
    # Latency grows with r.  With r = 3 twice, the median falls inside the
    # r = 2 requests and the tail inside the r = 3 ones, not between two.
    R_MIX = (0, 1, 2, 3, 3)

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")

    def _omega(self, size: float, complex_: bool):
        # real, or mildly complex with |arg| in [0.05, 0.3]
        if not complex_:
            return mp.mpc(size)
        arg = self.rng.choice((-1, 1)) * self.rng.uniform(0.05, 0.3)
        return size * mp.expjpi(arg / mp.pi)

    def _s(self):
        while True:
            re = self.rng.uniform(-3.5, 4.5)
            if abs(re - round(re)) >= 0.1:
                return mp.mpc(re, self.rng.uniform(-1.0, 1.0))

    def _request(self, fn: str, r: int, w, size: float, complex_: bool) -> Request:
        ev = self.lib.evaluators
        om = self._omega(size, complex_)
        # equal periods keep an exact Hurwitz reference for every r
        omega = self.lib.OmegaVector(tuple([om] * r))
        where = f"r={r} omega={mp.nstr(om, 6)} w={mp.nstr(w, 6)}"
        if fn == "zeta_contour":
            s = self._s()
            return Request(
                f"zeta_contour r={r}",
                f"s={mp.nstr(s, 6)} {where}",
                lambda: ev.zeta_contour(s, w, omega),
                lambda res: _within(
                    res.value, res.err_estimate,
                    _reference(oracles.zeta_equal, s, w, om, r), 1e-22,
                ),
            )
        if fn == "log_hyper_gamma":
            m, k = self.rng.randint(0, 3), self.rng.randint(0, 3)
            return Request(
                f"log_hyper_gamma r={r}",
                f"m={m} k={k} {where}",
                lambda: ev.log_hyper_gamma(m, k, w, omega),
                lambda res: _within(
                    res.value, res.err_estimate,
                    _reference(oracles.log_hyper_gamma_equal, m, k, w, om, r), 1e-22,
                ),
            )
        m, k = self.rng.randint(0, 3), self.rng.randint(-2, 3)
        return Request(
            f"balanced_P r={r}",
            f"m={m} k={k} {where}",
            lambda: ev.balanced_P(m, k, w, omega),
            lambda res: _within(
                res.value, res.err_estimate,
                _reference(oracles.balanced_equal, m, k, w, om, r), 1e-22,
            ),
        )

    def rounds(self, n: int) -> list:
        # per r, w (log-uniform over [0.5, 40]) and |omega| (over [0.5, 2])
        # are stratified over the run, and half the omegas are complex
        draws = {}
        for r in set(self.R_MIX):
            count = n * len(self.FUNCTIONS) * self.R_MIX.count(r)
            ws = _stratified(self.rng, count, math.log(0.5), math.log(40.0))
            sizes = _stratified(self.rng, count, 0.5, 2.0)
            kinds = _stratified_flags(self.rng, count)
            draws[r] = iter(zip((mpf(math.exp(x)) for x in ws), sizes, kinds))
        rounds = []
        for _ in range(n):
            reqs = [self._request(fn, r, *next(draws[r]))
                    for fn in self.FUNCTIONS for r in self.R_MIX]
            self.rng.shuffle(reqs)
            rounds.append(Round(reqs))
        return rounds

    def warmup(self):
        lib, p = self.lib, self.lib.DEFAULT_POLICY
        # the policy is passed positionally, as the evaluators do, so that the
        # lru_cache keys match theirs
        for m in range(4):
            for k in range(4):
                lib.qpoly.q_poly(m, k, p)
                lib.qpoly.s_poly(m, k, p)
        # one evaluation per function, at both working-precision classes
        # (the guard bits depend on Re(w) * lambda); r = 0 is the cheapest
        ov = lib.OmegaVector.of()
        ev = lib.evaluators
        ev.zeta_contour(mp.mpc("2.5", "0.5"), mpf(1), ov)
        ev.log_hyper_gamma(1, 1, mpf(30), ov)
        ev.balanced_P(2, -1, mpf(1), ov)


# -- w_sweep ----------------------------------------------------------------

_FD_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


class WSweep:
    """One omega (r = 2), a dense w grid, the whole hierarchy at each w."""

    name = "w_sweep"
    nominal_round_s = 4.1
    step = mpf(1) / 32

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        self.omega = lib.OmegaVector.of(
            mpf(self.rng.uniform(0.8, 1.6)), mpf(self.rng.uniform(0.8, 1.6))
        )
        self.w0 = mpf(self.rng.uniform(1.0, 3.0))
        self.phase = self.rng.randrange(4)
        # criterion 8's tight target, so that the differences resolve 1e-10
        self.policy = lib.DEFAULT_POLICY.with_target(1e-32)

    def _round(self, i: int) -> Round:
        ev, om, p = self.lib.evaluators, self.omega, self.policy
        w = self.w0 + i * self.step
        h = w * mpf(2) ** -48
        points = [w + d * h for d in (-2, -1, 1, 2)]
        reqs, groups = [], []
        tag = f"w={mp.nstr(w, 8)} omega={[mp.nstr(o.real, 6) for o in om.omegas]}"

        def add(kind, inputs, call):
            reqs.append(Request(kind, f"{inputs} {tag}", call))
            return len(reqs) - 1

        def P(m, k, x, method="contour"):
            return lambda: ev.balanced_P(m, k, x, om, p, method)

        def G(m, k, x):
            return lambda: ev.log_hyper_gamma(m, k, x, om, p)

        # d/dw P(m,k) = -P(m,k-1)
        m, k = _FD_PAIRS[(self.phase + i) % 4]
        idx = [add("balanced_P fd", f"m={m} k={k} w{d:+d}h", P(m, k, x))
               for d, x in zip((-2, -1, 1, 2), points)]
        idx.append(add("balanced_P", f"m={m} k={k - 1}", P(m, k - 1, w)))
        groups.append((idx, lambda v, h=h: _fd_residual(
            _fd([x.value for x in v[:4]], h), -v[4].value)))
        # contour vs combination route
        k2 = 1 + i % 2
        idx = [add("balanced_P", f"m=2 k={k2}", P(2, k2, w)),
               add("balanced_P combination", f"m=2 k={k2}", P(2, k2, w, "combination"))]
        groups.append((idx, lambda v: _within(
            v[0].value, v[0].err_estimate + v[1].err_estimate, v[1].value, 1e-32)))
        # d/dw lhg(1,k) = k lhg(1,k-1) - lhg(0,k-1)
        k3 = 1 + (self.phase + i) % 2
        idx = [add("log_hyper_gamma fd", f"m=1 k={k3} w{d:+d}h", G(1, k3, x))
               for d, x in zip((-2, -1, 1, 2), points)]
        idx.append(add("log_hyper_gamma", f"m=1 k={k3 - 1}", G(1, k3 - 1, w)))
        idx.append(add("log_hyper_gamma", f"m=0 k={k3 - 1}", G(0, k3 - 1, w)))
        groups.append((idx, lambda v, h=h, k3=k3: _fd_residual(
            _fd([x.value for x in v[:4]], h), k3 * v[4].value - v[5].value)))
        return Round(reqs, groups)

    def rounds(self, n: int) -> list:
        return [self._round(i) for i in range(n)]

    def warmup(self):
        lib, p = self.lib, self.policy
        for m in range(3):
            for k in range(3):
                lib.qpoly.q_poly(m, k, p)
                lib.qpoly.s_poly(m, k, p)
        ev = lib.evaluators
        ev.balanced_P(2, 1, self.w0, self.omega, p, "combination")


def _fd_residual(fd, target):
    rel = abs(fd - target) / max(mpf(1), abs(target))
    if rel >= FD_TOLERANCE:
        return Verdict(f"finite-difference residual {mp.nstr(rel, 3)} >= 1e-10")
    return None


# -- asym_harness -----------------------------------------------------------


class AsymHarness:
    """Rows, Richardson fits and remainder reductions of the harness."""

    name = "asym_harness"
    nominal_round_s = 18.0
    # the fits read only the last three rows of their grids
    E1_FIT_ROWS = (40.0, 80.0, 160.0)  # CLI default grid, a = 1/2
    E2_FIT_ROWS = (50.0, 100.0, 200.0)  # criterion 10 grid, a = 1/3
    REDUCTION_TERMS = 12  # as in criterion 11

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")
        A, OV = lib.asymptotics, lib.OmegaVector
        self.e1 = A.default_experiment(1, 0)
        self.e2 = A.AsymExperiment(
            omega=OV.of(1), alpha=OV.of(1), a=mpf(1) / 3, m=1, k=0,
            w_grid=(25.0, 50.0, 100.0, 200.0),
        )
        self.e3 = A.default_experiment(2, 1)
        self.e4 = A.AsymExperiment(
            omega=OV.of(1), alpha=OV.of(1), a=mpf(1) / 2, m=3, k=0,
            w_grid=(10.0, 20.0, 40.0, 80.0),
        )

    def _row(self, e, name, w, rows) -> Request:
        A = self.lib.asymptotics

        def call():
            with e.policy.context(16):
                lhs, lhs_err = A.lhs_value(e, w)
                rhs, rhs_err = A.rhs_expansion(e, w)
                error = lhs - rhs
                norm = abs(error) * w / (1 + abs(mp.log(w)) ** (e.m - 1))
                rows[w] = A.AsymRow(w, lhs, rhs, error, norm)
                return lhs, lhs_err, rhs, rhs_err

        def check(res):
            lhs, lhs_err, rhs, rhs_err = res
            a = e.a.real
            lhs_ref = _reference(oracles.balanced_equal, e.m, e.k, w + a, 1, 2)
            rhs_ref = _reference(lambda: mp.fsum(
                oracles.bernoulli_a_one(N, a)
                * oracles.balanced_equal(e.m, e.k - N, w, 1, 1)
                for N in range(-1, e.k + 2)
            ))
            return _within(lhs, lhs_err, lhs_ref, 1e-22) or _within(
                rhs, rhs_err, rhs_ref, 1e-22)

        return Request(f"row {name}", f"w={mp.nstr(w, 6)}", call, check)

    def _fit(self, e, name, grid, rows) -> Request:
        A = self.lib.asymptotics
        # a_{l,r+k+1}(a; alpha) / (omega_1 ... omega_r), with omega = (1)
        predicted = _reference(oracles.bernoulli_a_one, e.omega.r + e.k + 1, e.a.real)

        def call():
            if any(mpf(w) not in rows for w in grid):
                raise MissingInput("a row of this fit failed")
            return A.fit_one_over_w(e, [rows[mpf(w)] for w in grid])

        def check(res):
            fitted, _ = res
            rel = abs(fitted - predicted) / abs(predicted)
            if rel >= FIT_TOLERANCE:
                return Verdict(f"fit {mp.nstr(fitted, 8)} vs {mp.nstr(predicted, 8)}")
            return None

        def on_error(exc):
            # documented defect: the relative test divides by a zero prediction
            known = isinstance(exc, self.lib.FitUnstable) and abs(predicted) < mpf("1e-30")
            return Verdict(f"{type(exc).__name__}: {exc}", known=known)

        return Request(
            f"fit {name}",
            f"a={mp.nstr(e.a.real, 6)} rows at {grid}",
            call,
            check,
            on_error,
        )

    def _collapsed_rays(self, w, nu, scale) -> list:
        """The D < nu whose ray integral comes back ~0 (ROADMAP item 2).

        The integrals are rebuilt as remainder_reduction_check builds them.
        A true one is within a few powers of 2 pi of the contour value; a
        collapsed one is some twenty orders of magnitude below it."""
        lib, e = self.lib, self.e4
        with e.policy.context(16):
            ispec = lib.IntegrandSpec(
                omega=e.omega, w=mp.mpc(w), k=e.k, poly=lib.PolyC.monomial(nu),
                tail=lib.asymptotics.remainder_tail(e, self.REDUCTION_TERMS),
            )
            return [
                D for D in range(nu)
                if abs(lib.hankel.ray_only_integrate(ispec, D, e.policy)[0])
                < mpf("1e-12") * scale
            ]

    def _reduction(self, w, nu) -> Request:
        A = self.lib.asymptotics
        e = self.e4

        def check(chk):
            gap = abs(chk.contour - chk.rays)
            budget = chk.contour_err + chk.rays_err + REDUCTION_SLACK
            if gap <= budget:
                return None
            # documented defect: a ray integral drops [0, lambda] and comes
            # back ~0, so the rays miss its term
            collapsed = self._collapsed_rays(w, nu, abs(chk.contour))
            return Verdict(
                f"contour {mp.nstr(chk.contour, 6)} vs rays {mp.nstr(chk.rays, 6)}"
                + (f"; ray integrals D={collapsed} came back ~0" if collapsed else ""),
                known=bool(collapsed),
            )

        return Request(
            f"reduction nu={nu}",
            f"w={mp.nstr(w, 6)} m=3",
            lambda: A.remainder_reduction_check(e, w, nu, terms=self.REDUCTION_TERMS),
            check,
        )

    def rounds(self, n: int) -> list:
        # a reduction's cost grows with w, by up to 6x over [2, 20]; one w in
        # each half of the range per round keeps a round's cost from
        # following its seed
        lows = _stratified(self.rng, n, 2.0, 11.0)
        highs = _stratified(self.rng, n, 11.0, 20.0)
        return [self._round(pair) for pair in zip(lows, highs)]

    def _round(self, seeded_ws) -> Round:
        rows1, rows2 = {}, {}
        reqs = [self._row(self.e1, "(1,0) a=1/2", mpf(w), rows1)
                for w in self.E1_FIT_ROWS]
        reqs += [self._row(self.e2, "(1,0) a=1/3", mpf(w), rows2)
                 for w in self.E2_FIT_ROWS]
        # no fit reads the (2,1) rows
        for w in self.rng.sample(self.e3.w_grid, 2):
            reqs.append(self._row(self.e3, "(2,1) a=1/2", w, {}))
        reqs += [self._reduction(mpf(w), nu) for w in seeded_ws for nu in (0, 3)]
        reqs += [self._reduction(mpf(20), nu) for nu in (1, 2)]
        self.rng.shuffle(reqs)
        # each fit follows the last of its rows
        for name, e, grid, rows in (
            ("(1,0) a=1/2", self.e1, self.E1_FIT_ROWS, rows1),
            ("(1,0) a=1/3", self.e2, self.E2_FIT_ROWS, rows2),
        ):
            last = max(i for i, q in enumerate(reqs) if q.kind == f"row {name}")
            reqs.insert(last + 1, self._fit(e, name, grid, rows))
        return Round(reqs)

    def warmup(self):
        lib = self.lib
        for e in (self.e1, self.e3, self.e4):
            for k in range(e.k + 3):
                lib.qpoly.s_poly(e.m, k, e.policy)
        lib.asymptotics.remainder_tail(self.e4, self.REDUCTION_TERMS)
        lib.asymptotics.lhs_value(self.e1, mpf(self.E1_FIT_ROWS[0]))


# -- direct_sum -------------------------------------------------------------


class DirectSum:
    """Lattice Euler-Maclaurin sums, Re(s) = r + 1.5, r = 1..3."""

    name = "direct_sum"
    nominal_round_s = 4.5
    # Per round the r = 3 request is most of the time.  The r = 2 requests
    # hold the median and the tail; the cheap r = 1 ones lift the sample
    # count so that the tail reads a percentile above the median.
    MIX = {1: 4, 2: 6, 3: 1}

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")

    def _request(self, r: int, w, oms) -> Request:
        ev = self.lib.evaluators
        omega = self.lib.OmegaVector(tuple(oms))
        s = mpf(r) + mpf("1.5")

        def check(res):
            if r == 1:
                ref = _reference(oracles.zeta_equal, s, w, oms[0], 1)
                return _within(res.value, res.err_estimate, ref, 1e-22)
            c = ev.zeta_contour(s, w, omega)
            return _within(res.value, res.err_estimate + c.err_estimate, c.value, 1e-22)

        return Request(
            f"zeta_direct r={r}",
            f"s={mp.nstr(s, 4)} w={mp.nstr(w, 6)} omega={[mp.nstr(o, 6) for o in oms]}",
            lambda: ev.zeta_direct(s, w, omega),
            check,
        )

    def rounds(self, n: int) -> list:
        # per r, w and each omega_i are stratified over the run
        draws = {}
        for r, per_round in self.MIX.items():
            count = n * per_round
            ws = _stratified(self.rng, count, 1.0, 3.0)
            oms = [_stratified(self.rng, count, 0.5, 2.0) for _ in range(r)]
            draws[r] = iter(zip(ws, zip(*oms)))
        rounds = []
        for _ in range(n):
            reqs = []
            for r, per_round in self.MIX.items():
                for _ in range(per_round):
                    w, oms = next(draws[r])
                    reqs.append(self._request(r, mpf(w), [mpf(o) for o in oms]))
            self.rng.shuffle(reqs)
            rounds.append(Round(reqs))
        return rounds

    def warmup(self):
        ev, OV = self.lib.evaluators, self.lib.OmegaVector
        ev.zeta_direct(mpf("2.5"), mpf("1.5"), OV.of(1))
        ev.zeta_direct(mpf("3.5"), mpf("1.5"), OV.of(1, mpf("1.3")))


WORKLOADS = {w.name: w for w in (PointEval, WSweep, AsymHarness, DirectSum)}
