"""Quadrature over the Hankel-style path I(lambda, inf).

The path runs in from +infinity to lambda on the real axis (arg t = 0), once
counterclockwise around the circle |t| = lambda, and back out to +infinity
with arg t = 2*pi.  The logarithm follows the path: log t is real on the
inbound ray, log(lambda) + i*theta on the circle, and log t + 2*pi*i on the
outbound ray.  This is the unique branch convention under which the r = 0
evaluation with the constant weight 1/(Gamma(s)(e^{2 pi i s}-1)) reproduces
w^{-s}.

Every integrand has one form, f_omega(t) e^{-wt} t^{-k-1} poly(log t), times
an optional tail series in t.  k is an integer or complex: the Barnes zeta at
s is k = -s with that constant poly.  On the outbound ray t^{-k-1} carries
the jump e^{-2 pi i k}, exactly 1 for integer k.  Each integral aims at its
policy's target itself, at the policy's bits plus QUADRATURE_GUARD_BITS;
nothing scales its result afterwards.

Every part of the path is a straight segment in u = log t, on the branch the
path gives: dt = t du turns F(t) dt into t F(t) du.  The circle is the
segment [log lambda, log lambda + 2 pi i].  The two rays are one segment
[log lambda, log T] of the difference of the outbound and inbound
integrands, diff(u) = jump * poly(u + 2 pi i) - poly(u), one polynomial in
u built once per integral by a Taylor shift (PolyC.shift); for integer k its
top coefficient cancels exactly, and if every coefficient does (a constant
poly), the rays are skipped, with no end bound.  Only the transcendental
values at a node are mpf or mpc: t f_omega(t), one division by
prod_i (1 - e^{-omega_i t}); for integer k e^{-wt}, one exponential, and the
power t^{-k-1}, for any other k the one exponential exp(-(k+1) u - wt); and
the tail.  The periods, w, k and the tail's coefficients come in through
``precision._exact``, each real one an mpf, and mpmath keeps mpf op mpf
real, so real inputs take real products there.  Everything linear after
them runs on Python integers, one unit per part, rounded back to bits once.
The ray segment is cut into panels, each integrated once at the 65 nodes of
the Gauss-Kronrod rule that extends 32-point Gauss-Legendre (Laurie, Math.
Comp. 66, 1997), mapped onto the panel by its midpoint and half-width: the
Kronrod value K65 and the Gauss value G32 of its 32 Gauss nodes.

The rule is built once per working precision, bits, by ``_legendre_nodes``:
Laurie's betas at bits + 32, float seeds, and a polish over Python integers
in the unit 2^-(bits + 64) that runs the orthonormal recurrence
q_{k+1} = (x q_k - sqrt(beta_k) q_{k-1}) / sqrt(beta_{k+1}), three products
a step, rounded down once, and sums q_k^2, the Christoffel sum whose
reciprocal is the weight.  By Christoffel-Darboux the Newton step is
r_m q_{m-1} / sum_{k<m} q_k^2 to first order (r_m the unnormalised last
step, m = 32 for a Gauss node and 65 for a Kronrod node).  The polish stops
at the first pass whose |r_m| is at most 2^20 units, which puts it within
2^-(bits + 47) of its node (|r_m'| > 12.9), and raises NodeBudgetExceeded
if none is among the first (bits + 64).bit_length().  Each node and weight
is then rounded to the nearest integer in the unit 2^-(bits + 32).  Against
the rule built at bits + 160, the nodes are within 2^-(bits + 31) and the
weights within 2^-(bits + 24) relatively (measured at 256 and 704 bits).

A ray panel (``_panel``, ``_ContourEvaluator.ray_values``): the nodes
u_i = log lambda + mid + half x_i are integers in the unit 2^-(bits + 32),
from the rule's integer x_i, the exact mid and half, and log lambda rounded
down; a node evaluated cold takes its t = e^u from u_i rounded to bits.
diff(u_i) is an integer Horner, its coefficients rounded down in the unit
2^(c - bits - 32), c the largest one's mp.mag, and each product by u_i
rounded down: it errs by at most 2 (d + 1) max(1, |u|)^d units per part (d
its degree), 2^-30 of what a Horner at bits rounds, and like that one it is
relative to the coefficients, not to a diff(u) that cancels.  Each term v_i
is rounded down in the unit 2^(top - bits - 16) / 2^D, top the largest
mag(v_i) + b_i, b_i the bit length of |Re diff(u_i)| + |Im diff(u_i)| in its
unit and D the largest b_i, and the products f_i = v_i diff(u_i) are exact.
top exceeds log2 max|f_i| by at most 3.5 (2 for mag, 1.5 for the bit
length), so a rounded term moves f_i by at most 2^-(bits + 12) max|f_i|.
K65 and G32 are exact dot products with the rule's integer weights, and K65
times half returns to bits once, rounded to nearest.  The floor below is at
least 50 2^-bits |half| max|f| 0.00122 (the smallest Kronrod weight), so the
terms' rounding, at most 2^-(bits + 11) |half| max|f|, is a 125th of it,
and the return to bits, at most 2^-bits |half| resabs, a 50th.

Each panel's estimate is one of K65's error, by QUADPACK's rule (Piessens
et al., 1983): resasc * min(1, (200 |K65 - G32| / resasc)^1.5), resasc the
K65 integral of |f - mean f| over the panel.  For an analytic integrand G32
errs by about rho^-64 and K65 by about rho^-98, so |K65 - G32| overstates
K65's error by many orders; the power 1.5 takes part of that back (Gonnet,
ACM Computing Surveys 44, 2012, catalogues where such rules fail).  Each
panel adds a rounding floor, 50 * 2^-(working bits) * resabs, resabs the
K65 integral of |f|.  resabs, resasc and |K65 - G32| need two digits: they
are summed in floats from the integers' top 64 bits, scaled back by a power
of 2, so no float overflows at any size of the values.

The circle is one spectral part: the trapezoidal rule in t (Trefethen and
Weideman, SIAM Review 56, 2014).  phi(t) = t f_omega(t) e^{-wt} tail(t) is
analytic in 0 < |t| < pole bound, with a pole of order at most
r - 1 - min(0, v) at 0 for a tail of valuation v, so on the circle
phi(lambda e^{i theta}) = sum_{n >= n0} A_n e^{i n theta}, n0 = 1 - r +
min(0, v).  What is not periodic, t^{-k-1} poly(log t), integrates in closed
form against each mode: by parts, with beta = n - k - 1 and e^{2 pi i beta}
= jump,

    int_{log lambda}^{log lambda + 2 pi i} e^{beta u} poly(u) du = lambda^beta B_n,
    B_n = sum_i (-1)^i diff^(i)(log lambda) / beta^(i+1),

and for beta = 0 (integer k) B_n is the integral of poly over the segment.
So the circle is lambda^{-k-1} sum_n A_n B_n.  N samples phi_l at t_l =
lambda e^{2 pi i l / N}, a power of 2, give by one radix-2 transform over
integers (below) the trapezoidal coefficients A'_n = (1/N) sum_l phi_l
e^{-2 pi i n l / N} = sum_j A_{n+jN}, and the part's value is
lambda^{-k-1} sum_{n=n0}^{n0+N-1} A'_n B_n; a sample costs t f_omega(t) and
e^{-wt}.  When every period, w and tail coefficient is real,
phi(conj t) = conj phi(t), so only the samples with 2l <= N are evaluated,
33 of 64, and the Hermitian symmetry phi_{N-l} = conj phi_l is the rest.

Every circle level takes one transform over Python integers
(``_spectrum``).  Each part of each sample is rounded down to a multiple of
the unit u = 2^(mag - 2) / N * 2^-(bits + 8), mag the largest sample's
mp.mag, which exceeds log2 of its size by at most 2, so u <= 2^-(bits + 8)
max|phi_l| / N <= 2^-(bits + 8) mean|phi_l|.  A real integrand's N/2 + 1
integer samples are mirrored into the rest by exact negation, so the
integers are exactly Hermitian, their exact transform is real, and the
imaginary parts are dropped.  mean|phi_l| is taken from the integers, each
size floor(sqrt(re^2 + im^2)) by isqrt, within 3u of the samples' own mean.
The transform Y_j = sum_l x_l e^{-2 pi i j l / N} splits into the
transforms of the even and the odd l, joined by butterflies whose twiddles
are the parts of 2^(bits + 8) e^{-2 pi i j / N} rounded to integers, each
product rounded down.  A twiddle errs by at most tau = 2^-(bits + 8)
relatively, and an output takes each sample once per level of the
recursion, so Y_j errs by at most log2(N) tau sum|x_l| + 3 N units, and
A'_n = u Y_n / N, kept as the integer Y_n, by at most (log2 N + 3)
2^-(bits + 8) mean|phi_l|, at any dynamic range of the samples.

The moments are integers too (``moments``), in one unit u_B, first
2^(J - bits - 16) / N, J the largest mp.mag of the jet diff^(i)(log lambda)
and of the flat integral where beta = 0.  For beta != 0, B_n is
-2^q sum_i G_i nu^(d-i) 2^(qi) / nu^(d+1), G_i the jet's integers and nu
the integer -beta 2^q rounded down (exact for integer k), q = bits + 32 +
lg, 2^lg >= max 1 / |beta| by mp.mag, rounded down once per part: an
integer beta's B_n is the floor of its exact sum.  It errs by at most
2 (d + 2) a^(d+1) units, a = max(1, 1 / |beta|), and by (d + 1)
2^-(bits + 31) sum_i |G_i| / |beta|^(i+1) units from nu's rounding, 2^-31 of
the rounding that beta = n - k - 1 carries at bits.  Where sum|B_n| falls
below 2^need units, need = bits + log2 N + bitlen(4 (d + 2)) + (d + 1) lg,
u_B is refined by the shortfall and the window taken again, so the moments
move sum A'_n B_n by at most half of 2^-bits mean|phi_l| sum|B_n|.  That sum
is one exact integer dot product, rounded to bits once.  Against the floor
below, 50 2^-bits mean|phi_l| sum|B_n| |lambda^{-k-1}|, the transform's
rounding is an 800th, the moments' a 100th, and the return to bits and the
product by lambda^{-k-1} a 50th each.

The part's error is its aliased and truncated modes: each A_m with m >= n0 +
N enters once through A'_{m-jN}, weighted by that mode's moment, and is
missing once from the sum, so the error is at most 2 max|B_n| sum_{m >= n0 +
N} |A_m|.  |B_n| peaks near n = Re(k) + 1 and falls like 1 / |beta| away from
it, so the first pass takes enough samples to reach that n, and the window's
largest |B_n| bounds every moment beyond it.  The poles of f_omega lie at
|t| >= rho lambda, rho = pole bound / lambda, so past the window |A_m| falls
at least like rho^-m, and sum_{m >= n0 + N} |A_m| <= M / (rho - 1), M the
largest |A'_n| of the window's last 4 (4 covers modes that vanish by symmetry,
as the odd Bernoulli numbers do in t / (1 - e^{-t})).  The estimate is
max(4, 12 / (rho - 1)) * M * max|B_n| * |lambda^{-k-1}|: the bound 2 / (rho -
1) with a factor 6 for the decay before it turns geometric and the growth
that multiple poles add.  That is 4 at the default rho = 4, and it stays at
least 4 for a larger rho, where e^{-wt} and the tail, not the poles, may set
the decay.  Its rounding floor is 50 * 2^-(working bits) * mean|phi_l| *
sum|B_n| * |lambda^{-k-1}|.  Where every moment vanishes (a constant poly,
integer k and k + 1 < n0) the circle is exactly 0, with a zero estimate.
Refining the part doubles N; the finer grid's even samples are the old's.

The first pass is coarse: the rays in panels PANEL_WIDTH = log 16 wide (four
doublings of t), below lambda a power of 2 of those, between the cuts of a
grid fixed in t, the last ending at the cut where the ray ends, and the
circle at CIRCLE_SAMPLES = 64 samples, doubled only until its window
reaches n = Re(k) + 1.  If its floors and the ray end bounds exceed the
target, PrecisionUnreachable is raised at once.  Then ``_refine_worst``
refines as QUADPACK's QAG does: while the estimates, floors and end bounds
sum above the target, the first of the parts with the largest estimate is
refined, a ray panel bisected at its midpoint in u, the circle doubled.  A
part's depth is its level in the schedule that cuts each doubling of t into
2^L panels and samples the circle at 128 * 2^L points: a ray panel 2^i cuts
wide is at -2 - i, and 64 circle samples at -1; past MAX_LEVELS - 1
(2^(1/32) in t, 4096 samples) it raises NodeBudgetExceeded.

The path is (lambda, T), and each has one rule.  ``auto_spec`` gives the
default lambda = 1/4 * min(pole bound, 2 pi), clamped to 6 / Re(w).  The poles
of f_omega then lie at |t| >= 4 lambda, rho >= 4, so N samples resolve about
4^-N of the integrand's scale: 64 samples estimate about 1e-35 for
integrands of unit size, and a lower target doubles them once, to 128
(about 1e-73).  At large w the far side's e^{Re(w) lambda} cancels in the
sum, so a lambda above the clamp pays it in the rounding floor, and raises
PrecisionUnreachable from the first pass where that floor passes the target.

The ray grid does not move with w: its cuts are
u = log lambda + j PANEL_WIDTH, and the panels are built in
v = u - log lambda, where the cuts j * PANEL_WIDTH (a float) and their
bisections are exact, so a panel at depth d is exactly
PANEL_WIDTH * 2^-(d+2) wide, and equal j give the same nodes, bit for bit,
at every w that shares (omega, lambda, working bits).

Both ends of a ray have one truncation rule, one walk over the cuts of the
grid: step j one cut at a time until the bound |integrand| * t at the cut
u = log lambda + j PANEL_WIDTH is below target / 10, end the ray at that
cut, and add that bound to the estimate.  The far end T walks up from the
first cut at or past 30 / Re(w), never below j = 1 (t = 16 lambda).
``ray_only_integrate`` integrates the same outbound-minus-inbound integrand
over the one segment [log eps, log T], with no circle; its near end eps
walks down from j = 0 (t = lambda).  In u the end t = 0 moves to u = -inf,
and the only singularities are the poles of f_omega, right of
u = log lambda + log 4, so a panel's Bernstein ellipse (Trefethen,
Approximation Theory and Approximation Practice, ch. 19) grows with its
distance from lambda, and the near segment is graded: a panel whose right
cut is j = -c spans at most 3c + 1 cuts, a power of 2 of them (``_graded``).
eps itself still walks the unit cuts: a walk over the widened cuts would
overshoot, to t ~ 5e-103 in one case, where 1 - e^{-omega t} keeps no bits.

What one integral computes for the next is kept in one node store per
(omega, lambda, working bits), ``_node_store``, which drops the old key's
store first.  The store keeps groups.  The group None holds what does not
depend on w: t and t f_omega(t) at each circle sample an integral evaluates,
by l / N; at each cut an end walk probes and each ray panel's centre, by
u's exact bits (u._mpf_), so the end walk and the graded near panels share
them; at every other ray node, by the panel's exact (mid, half) bits and
the node's index, so a kept node is found without forming its u; and each
circle window's integer moments with their unit and largest and summed
sizes, by (poly, diff, -k-1, n0, N).  Every f_omega evaluation goes through
it (``_ContourEvaluator.node``).  A group per (w, tail) holds what depends
on w: each circle level of N, its N integer coefficients, their unit and
mean |phi_l| (``_spectrum``), by N, and for an integer k, at each ray node,
t and the term before its power, tf e^{-wt} tail(t), by the node's key.
Neither depends on k or poly, which live in the moments and the power, so
the integrals at one w that differ only in k and poly, as the derivative
hierarchy's do, share them bit for bit, whichever k comes first.  A k that
is not an integer (the Barnes zeta's) keeps no ray term.  The groups hold
at most STORE_NUMBERS = 2560 numbers between them: two per node, one per
ray term, and N per window of N moments and per circle level of N, about
0.25 kB each at 256 bits (a 40-point w sweep of ``log_hyper_gamma(1, 1)``
at omega = (1, 1.3) ends with 16 groups, 2410 numbers, in 0.6 MB).  The
groups are ordered least recently used first, and an integral's own two
are the newest; where an entry does not fit, the oldest groups are dropped
while more than two are left, and an entry that still does not fit is not
kept.  A group holds no reference to its store, so an old key's store is
freed without the cycle collector.  A kept entry is the value the integral
would compute, so no value or estimate depends on what was kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice
from math import acos, cos, factorial, isqrt, ldexp, log, pi
from operator import add, mul, sub

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from .errors import InvalidParameter, NodeBudgetExceeded, PolesTooClose, PrecisionUnreachable
from .multibernoulli import OmegaVector
from .precision import DEFAULT_POLICY, QUADRATURE_GUARD_BITS, PrecisionPolicy, _exact, _fixed, _right_half
from .qpoly import PolyC
from .series import LaurentSeries

# the deepest refinement, MAX_LEVELS - 1: a part's level in the schedule that
# cuts each doubling into 2^L panels and samples the circle at 128 * 2^L points
MAX_LEVELS = 6
# Gauss nodes per panel and the Kronrod rule's total
GAUSS_NODES = 32
KRONROD_NODES = 2 * GAUSS_NODES + 1
# the widest first-pass ray panel in u = log t: four doublings of t, level -2
PANEL_WIDTH = log(16)
# the circle's first-pass samples, level -1
CIRCLE_SAMPLES = 64
# the numbers a node store keeps over all its groups: 2 per node, 1 per ray
# term, N per window of N moments and per circle level of N (its
# coefficients); about 0.25 kB each at 256 bits (module docstring)
STORE_NUMBERS = 2560


@dataclass(frozen=True)
class IntegrandSpec:
    """Integrand f_omega(t) e^{-wt} t^{-k-1} poly(log t), times tail(t) if given.

    ``k`` is an integer (negative k gives a positive power of t) or complex;
    the Barnes zeta at s is k = -s with a constant poly (module docstring).
    ``tail`` multiplies the integrand by a truncated series in t (the
    expansion and remainder integrands).  A w or a non-integer k comes in
    through ``precision._exact``, as the periods do: an mpf where it is real,
    an mpc otherwise, with every bit it had.
    """

    omega: OmegaVector
    w: object
    k: object
    poly: PolyC
    tail: LaurentSeries | None = None

    def __post_init__(self):
        object.__setattr__(self, "w", _right_half(self.w))
        if not isinstance(self.k, int):
            object.__setattr__(self, "k", _exact(self.k))


def auto_spec(omega: OmegaVector, w, p: PrecisionPolicy = DEFAULT_POLICY):
    """Default circle radius lambda for omega and w (rule: module docstring)."""
    w = _right_half(w)
    with p.context():
        return min(mpf("0.25") * min(omega.pole_bound, 2 * mp.pi), 6 / mp.re(w))


def _check_lambda(lam, omega: OmegaVector):
    """lam as an mpf, if it is real and 0 < lam < 0.9 * pole bound; else
    InvalidParameter."""
    if isinstance(mp.mpmathify(lam), mp.mpc):
        raise InvalidParameter(f"lambda must be real, got {lam}")
    lam = mpf(lam)
    if not 0 < lam < mpf("0.9") * omega.pole_bound:
        raise InvalidParameter(
            "lambda must satisfy 0 < lambda < 0.9 * min|2 pi / omega_i|"
        )
    return lam


def _kronrod_betas(n: int):
    """beta_0..beta_2n of the Jacobi-Kronrod matrix of the n-point Gauss-Legendre
    rule, by Laurie's O(n^2) recurrence (Math. Comp. 66, 1997).  The first
    3n/2 + 1 are Legendre's: beta_0 = 2 and k^2 / (4k^2 - 1).  Every diagonal
    entry is 0 by symmetry, so only the betas are carried; n is even."""
    beta = [mpf(2)] + [mpf(k * k) / (4 * k * k - 1) for k in range(1, 3 * n // 2 + 1)]
    beta += [mpf(0)] * (2 * n + 1 - len(beta))
    s = [mpf(0)] * (n // 2 + 2)
    t = list(s)
    t[1] = beta[n + 1]
    for m in range(n - 1):
        acc = 0
        for k in range((m + 1) // 2, -1, -1):
            acc += beta[k + n + 1] * s[k] - beta[m - k] * s[k + 1]
            s[k + 1] = acc
        s, t = t, s
    s[1:] = s[:-1]
    for m in range(n - 1, 2 * n - 2):
        acc = 0
        for k in range(m + 1 - n, (m - 1) // 2 + 1):
            j = n - 1 - m + k
            acc += beta[m - k] * s[j + 2] - beta[k + n + 1] * s[j + 1]
            s[j + 1] = acc
        if m % 2:
            beta[(m + 1) // 2 + n + 1] = s[j + 1] / s[j + 2]
        s, t = t, s
    return beta


def _newton(beta, x, tol):
    """A zero of the monic p_len(beta), p_{k+1} = x p_k - beta_k p_{k-1}, by
    Newton's method in floats from x; stops after the first step below tol.
    It seeds ``_polish``, which checks its own convergence."""
    for _ in range(8):
        p0, p1, d0, d1 = 0, 1, 0, 0
        for b in beta:
            p0, p1, d0, d1 = p1, x * p1 - b * p0, d1, p1 + x * d1 - b * d0
        dx = p1 / d1
        x -= dx
        if abs(dx) < tol:
            break
    return x


def _polish(x, m, roots, inv, unit):
    """The zero of r_m that Newton's method reaches from the float x, polished
    over integers in the unit 2^-unit, with the Christoffel sums there:
    (node, sum_{k<m} q_k^2, sum_{k<len(roots)} q_k^2), the node in the unit
    and the sums in its square.  roots and inv are sqrt(beta_k) and 1/sqrt(beta_k) in the unit.
    Each pass runs the orthonormal recurrence at x, each step rounded down,
    and takes the step r_m q_{m-1} / sum_{k<m} q_k^2 (module docstring).
    The polish stops at the first pass whose |r_m| is at most 2^20 units,
    and raises NodeBudgetExceeded if none is within unit.bit_length() passes."""
    num, den = x.as_integer_ratio()
    x, two = (num << unit) // den, 2 * unit
    steps = list(zip(roots[: m - 1], inv[1:m]))
    for _ in range(unit.bit_length()):
        q0, q1 = 0, inv[0]
        csum = q1 * q1
        for s, i in steps:
            q0, q1 = q1, (x * q1 - s * q0) * i >> two
            csum += q1 * q1
        r = x * q1 - roots[m - 1] * q0  # r_m, in the unit squared
        dx = r * q1 // csum
        if abs(r) <= 1 << (unit + 20):
            total = csum
            for s, i in zip(roots[m - 1 :], inv[m:]):
                q0, q1 = q1, (x * q1 - s * q0) * i >> two
                total += q1 * q1
            return x - dx, csum, total
        x -= dx
    raise NodeBudgetExceeded(f"Newton's method found no Gauss-Kronrod node in {unit.bit_length()} passes")


@lru_cache(maxsize=None)
def _legendre_nodes(prec: int):
    """The Gauss-Kronrod-Legendre rule on [-1, 1] that extends GAUSS_NODES-point
    Gauss-Legendre to KRONROD_NODES points: (nodes, Kronrod weights, Gauss
    weights, Kronrod weights as floats), each node and weight an integer in
    the unit 2^-(prec + 32).  The nodes ascend, and nodes[1::2] are the
    Gauss nodes.  The positive half is found and mirrored: float seeds by
    Newton, from cos(pi (i + 3/4) / (n + 1/2)) for the Gauss nodes and from
    the midpoints in arccos between them for the Kronrod nodes (the rules
    interlace), each polished by ``_polish`` (module docstring)."""
    n = GAUSS_NODES
    with mp.workprec(prec + 32):
        beta = _kronrod_betas(n)
    fbeta = [float(b) for b in beta]
    gauss = [_newton(fbeta[:n], cos(pi * (i + 0.75) / (n + 0.5)), 1e-15) for i in range(n // 2)]
    theta = [0.0] + [acos(x) for x in gauss]
    kronrod = [_newton(fbeta, cos((a + b) / 2), 1e-15) for a, b in zip(theta, theta[1:])]
    unit, bits = prec + 64, prec + 32
    one = 1 << unit
    roots = [isqrt(to_fixed(b._mpf_, 2 * unit)) for b in beta]
    inv = [one * one // r for r in roots]
    half = []
    for xk, xg in zip(kronrod, gauss):
        half += [_polish(xk, 2 * n + 1, roots, inv, unit), _polish(xg, n, roots, inv, unit)]
    half.append(_polish(0.0, 2 * n + 1, roots, inv, unit))

    def weight(csum):
        return ((1 << (2 * unit + bits + 1)) // csum + 1) >> 1

    nodes = [(x + (1 << 31)) >> 32 for x, _, _ in half]
    nodes = [-x for x in nodes] + nodes[-2::-1]
    kw = [weight(k) for _, _, k in half]
    kw += kw[-2::-1]
    gw = [weight(g) for _, g, _ in half[1::2]]
    return tuple(nodes), tuple(kw), tuple(gw + gw[::-1]), tuple(w / (1 << bits) for w in kw)


def _f_omega_at(periods, t, threshold):
    """f_omega(t) = 1 / prod_i d_i, d_i = 1 - e^{-omega_i t}: one division,
    and one exponential per distinct period, the product taken in the
    periods' order.  Real periods and a real t keep it real."""
    den, divisors = mpf(1), {}
    for o in periods:
        d = divisors.get(o)
        if d is None:
            z = o * t
            d = divisors[o] = 1 - mp.exp(-z)
            # |d| < threshold only if both parts are: the cheap test first
            if abs(d.real) < threshold and abs(d.imag) < threshold and abs(d) < threshold:
                _check_small_divisor(z, d, t)
        den *= d
    return 1 / den


def _check_small_divisor(z, d, t):
    """Raise for a divisor d = 1 - e^{-z} below the pole threshold, unless it
    is the zero at z = 0.  The other zeros z = 2 pi i n lie beyond |z| = pi,
    so there a small d is a pole of f_omega near the path: PolesTooClose.
    Within |z| <= pi, |d| >= 0.3 |z|, so a small d there comes from t near 0,
    where the integrands that reach it (``ray_only_integrate``'s, with a tail
    of valuation at least k + 1 + r) are regular.  d = z + O(2^-prec) then
    has relative error 2^-prec / |d|, which t * f_omega(t) does not amplify;
    below 2^(32 - prec) fewer than 32 bits are left, and PrecisionUnreachable
    names that limit."""
    where = f"|1 - e^(-omega t)| = {mp.nstr(abs(d), 5)} at t = {mp.nstr(t, 5)}"
    if abs(z) > mp.pi:
        raise PolesTooClose(where)
    if abs(d) < mpf(2) ** (32 - mp.prec):
        raise PrecisionUnreachable(
            f"{where} keeps fewer than 32 of the working precision's {mp.prec} bits"
        )


class _ContourEvaluator:
    """One Hankel integral of one IntegrandSpec, for one lambda and the
    working precision it is built at: the ray integrand t F(t) in u = log t,
    the circle |t| = lambda as one spectral part, and the node store of that
    key, through whose ``node`` every f_omega evaluation goes (module
    docstring).  It reads the periods, w, k and the tail as ``ispec`` holds
    them, each real one an mpf, so that real inputs take real arithmetic."""

    def __init__(self, ispec: IntegrandSpec, pole_threshold, lam):
        self.ispec = ispec
        self.thr = pole_threshold
        self.lam, self.origin = lam, mp.log(lam)
        self.store = _node_store(ispec.omega, lam, mp.prec)
        tail = ispec.tail
        # what does not depend on w, then what does: looked up once per
        # integral, they are the store's two newest groups
        self.nodes = self.store.group(None)
        self.group = self.store.group((ispec.w, tail))
        coeffs = () if tail is None else tail.coeffs
        # all real: phi(conj t) = conj phi(t) on the circle (module docstring)
        self.real = all(isinstance(x, mpf) for x in (*ispec.omega.omegas, ispec.w, *coeffs))
        # t^{-k-1} = e^{neg_k1 u}; on the outbound ray u gains 2 pi i,
        # so poly(u) there becomes jump * poly(u + 2 pi i)
        k = ispec.k
        self.neg_k1 = -k - 1
        # an integer k's rays read terms before the power, which every
        # integer k at this w shares
        self.power = isinstance(k, int)
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        jump = 1 if isinstance(k, int) else mp.exp(-two_pi_i * k)
        self.outbound = ispec.poly.shift(two_pi_i).scale(jump)
        self.diff = self.outbound - ispec.poly
        # the ray Horner's integers: log lambda in the unit 2^-(bits + 32),
        # diff's coefficients, highest first, in that unit of the largest
        self.fixed_origin = to_fixed(self.origin._mpf_, mp.prec + 32)
        self.diff_unit = mp.prec + 32 - max((mp.mag(c) for c in self.diff.coeffs if c), default=0)
        self.diff_fixed = [_fixed(c, self.diff_unit) for c in reversed(self.diff.coeffs)]
        self.size = max(map(abs, ispec.poly.coeffs), default=0)
        self.n0 = 1 - ispec.omega.r + min(0, 0 if tail is None else tail.valuation)
        self.scale = mp.exp(self.neg_k1 * self.origin)
        self.factor = max(4, 12 / (ispec.omega.pole_bound / lam - 1))

    def node(self, key, t):
        """(t, t f_omega(t)) at the point t(), from the store's group None by
        key; t() and f_omega are evaluated, and the node kept, only on a miss."""
        node = self.nodes.get(key)
        if node is None:
            t = t()
            tf = t * _f_omega_at(self.ispec.omega.omegas, t, self.thr)
            node = self.store.keep(self.nodes, key, (t, tf), 2)
        return node

    def _term(self, t, tf, exponent):
        """tf e^exponent tail(t), with tf = t f_omega(t): the exponent holds
        -wt, and on the rays of a k that is not an integer t^{-k-1} too."""
        value = tf * mp.exp(exponent)
        return value if self.ispec.tail is None else value * self.ispec.tail(t)

    def term(self, key, u):
        """The ray term tf e^{-wt} tail(t) t^{-k-1} at the ray node of key,
        whose real u = log t u() gives only where it is needed.  An integer
        k's t and term before the power are kept in the (w, tail) group by
        the same key; another k keeps no term."""
        if not self.power:
            u = u()
            t, tf = self.node(key, lambda: mp.exp(u))
            return self._term(t, tf, self.neg_k1 * u - self.ispec.w * t)
        kept = self.group.get(key)
        if kept is None:
            t, tf = self.node(key, lambda: mp.exp(u()))
            kept = self.store.keep(self.group, key, (t, self._term(t, tf, -self.ispec.w * t)), 1)
        t, term = kept  # one division, not a power of 1/t and a product
        return term / t**-self.neg_k1 if self.neg_k1 < 0 else term * t**self.neg_k1

    def ray_values(self, mid, half, xs):
        """The ray integrand t F(t) = term * diff(u) at the nodes
        u = log lambda + mid + half x of a panel, xs the rule's integer
        nodes: (real parts, imaginary parts, unit), integers in the unit
        2^-unit (module docstring).  The centre node is keyed by its u's
        exact bits, as a cut is, and every other by (mid, half, index)."""
        bits, prec = mp.prec + 32, mp.prec
        h = to_fixed(half._mpf_, bits)
        base = self.fixed_origin + to_fixed(mid._mpf_, bits)
        us = [base + (h * x >> bits) for x in xs]
        mid_key, half_key, centre = mid._mpf_, half._mpf_, self.origin + mid

        def at(u):
            return lambda: mp.make_mpf(from_man_exp(u, -bits, prec, round_nearest))

        terms = [
            self.term((mid_key, half_key, i), at(u)) if x else self.term(centre._mpf_, lambda: centre)
            for i, (x, u) in enumerate(zip(xs, us))
        ]
        diffs = []
        for u in us:
            re = im = 0
            for a, b in self.diff_fixed:
                re, im = (re * u >> bits) + a, (im * u >> bits) + b
            diffs.append((re, im, (abs(re) + abs(im)).bit_length()))
        top = max((mp.mag(v) + d for v, (_, _, d) in zip(terms, diffs) if v and d), default=None)
        if top is None:
            return [0] * len(xs), [0] * len(xs), 0
        unit = prec + 16 - top + max(d for _, _, d in diffs)
        fixed = [_fixed(v, unit) for v in terms]
        fr = [vr * a - vi * b for (vr, vi), (a, b, _) in zip(fixed, diffs)]
        fi = [vr * b + vi * a for (vr, vi), (a, b, _) in zip(fixed, diffs)]
        return fr, fi, unit + self.diff_unit

    def end_bound(self, j):
        """Crude bound |F| * t of the one-sided ray integrands at the cut
        u = log lambda + j PANEL_WIDTH, floored by poly's largest coefficient
        (c * poly has |c| times its bound); the cut's term is kept like a
        ray node's, by u's exact bits."""
        u = self.origin + j * mpf(PANEL_WIDTH)
        span = abs(self.outbound(u)) + abs(self.ispec.poly(u)) + self.size
        return abs(self.term(u._mpf_, lambda: u)) * span

    def sample(self, l, n):
        """phi(t_l) = t f_omega(t) e^{-wt} tail(t) at t_l = lambda e^{2 pi i l / n},
        its node kept by l / n."""
        t, tf = self.node(l / n, lambda: self.lam * _unit_roots(n, mp.prec)[l])
        return self._term(t, tf, -self.ispec.w * t)

    def samples(self, ls, n):
        """phi(t_l) for each l in ls on the grid of n samples; a real
        integrand's only for those with 2l <= n, as phi_{n-l} = conj phi_l."""
        return [self.sample(l, n) for l in ls if 2 * l <= n or not self.real]

    def moments(self, n):
        """(unit, Re B, Im B, max |B_m|, sum |B_m|) for the window
        n0 <= m < n0 + n, the B_m integers in the unit 2^-unit (module
        docstring), kept in the node store."""
        key = (self.ispec.poly, self.diff, self.neg_k1, self.n0, n)
        window = self.nodes.get(key)
        if window is not None:
            return window
        a, prec, log_n = self.origin, mp.prec, n.bit_length() - 1
        jet = [c * factorial(i) for i, c in enumerate(self.diff.shift(a).coeffs)]
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        flat = mp.fsum(
            c * two_pi_i ** (j + 1) / (j + 1) for j, c in enumerate(self.ispec.poly.shift(a).coeffs)
        )
        betas = [m + self.neg_k1 for m in range(self.n0, self.n0 + n)]
        mags = [mp.mag(g) for g in jet + [flat] * (0 in betas) if g]
        if not mags:
            return self.store.keep(self.nodes, key, (0, [0] * n, [0] * n, mpf(0), mpf(0)), n)
        # beta in the unit 2^-q, exact for an integer; a = 2^lg >= 1 / |beta|
        lg = max(0, 2 - min(mp.mag(b) for b in betas if b))
        q, need = prec + 32 + lg, prec + log_n + (4 * len(jet) + 4).bit_length() + len(jet) * lg
        unit = prec + 16 + log_n - max(mags)
        while True:
            g, br, bi = [_fixed(x, unit) for x in jet], [], []
            for beta in betas:
                if not beta:
                    re, im = _fixed(flat, unit)
                else:  # -sum_i G_i N^(d-i) 2^(qi) 2^q / N^(d+1), N = -beta 2^q, floored
                    nr, ni = _fixed(mp.mpmathify(-beta), q)
                    re = im = ci = 0
                    cr = 1
                    for i, (x, y) in enumerate(g):
                        re, im = re * nr - im * ni + (x << q * i), re * ni + im * nr + (y << q * i)
                        cr, ci = cr * nr - ci * ni, cr * ni + ci * nr
                    den = cr * cr + ci * ci
                    re, im = -(re * cr + im * ci << q) // den, -(im * cr - re * ci << q) // den
                br.append(re)
                bi.append(im)
            sizes = [isqrt(x * x + y * y) for x, y in zip(br, bi)]
            total = sum(sizes)
            if total.bit_length() > need:
                break
            unit += need + 1 - total.bit_length()
        moments = (unit, br, bi, mp.ldexp(max(sizes), -unit), mp.ldexp(total, -unit))
        return self.store.keep(self.nodes, key, moments, n)

    def first_pass(self):
        """The circle's part with CIRCLE_SAMPLES samples, doubled only until
        its moments reach n = Re(k) + 1."""
        n = CIRCLE_SAMPLES
        while self.n0 + n <= mp.re(self.ispec.k) + 1:
            n *= 2
        return self.part(n)

    def part(self, n):
        """A circle part: (value, estimate, depth, refine, floor) of the grid
        of n samples, from its level (``_spectrum``'s, which the (w, tail)
        group keeps by n, or builds from the samples, all n or a real
        integrand's n/2 + 1) and its integer moments, by one integer dot
        product.  refine() is the part of the grid twice as fine, one depth
        deeper, whose even samples are this grid's nodes."""
        level = self.group.get(n)
        if level is None:
            samples = self.samples(range(n), n)
            level = self.store.keep(self.group, n, _spectrum(samples, self.real), n)
        mean, yr, yi, unit = level
        window = [m % n for m in range(self.n0, self.n0 + n)]
        ar, ai = [yr[m] for m in window], [yi[m] for m in window]
        b_unit, br, bi, largest, total = self.moments(n)
        exp, prec = -unit - b_unit, mp.prec
        re = sum(map(mul, ar, br)) - sum(map(mul, ai, bi))
        im = sum(map(mul, ar, bi)) + sum(map(mul, ai, br))
        value = mp.make_mpc(tuple(from_man_exp(x, exp, prec, round_nearest) for x in (re, im)))
        last = mp.ldexp(max(isqrt(x * x + y * y) for x, y in zip(ar[-4:], ai[-4:])), -unit)
        scale = abs(self.scale)
        err = self.factor * last * largest * scale
        floor = 50 * mp.ldexp(mean * total * scale, -prec)
        return self.scale * value, err, n.bit_length() - 8, lambda: [self.part(2 * n)], floor


class _Group(dict):
    """What a node store keeps under one of its keys, nodes and moment windows
    or a w's circle levels and ray terms (module docstring), and how many
    numbers that is.  It holds no reference to its store."""

    numbers = 0


class _Store(dict):
    """The node store of one (omega, lambda, working bits): its groups, least
    recently used first, which hold at most STORE_NUMBERS numbers between
    them (module docstring)."""

    numbers = 0

    def group(self, key):
        """The group of key, None or a (w, tail), now the most recently used."""
        self[key] = group = self.pop(key) if key in self else _Group()
        return group

    def keep(self, group, key, value, numbers):
        """value, kept under key in group if numbers more fit once the least
        recently used groups are dropped while more than two are left; the
        two newest are the integral's own, which are never dropped."""
        while self.numbers + numbers > STORE_NUMBERS and len(self) > 2:
            self.numbers -= self.pop(next(iter(self))).numbers
        if self.numbers + numbers <= STORE_NUMBERS:
            group[key] = value
            group.numbers += numbers
            self.numbers += numbers
        return value


@lru_cache(maxsize=1)
def _node_store(omega: OmegaVector, lam, prec: int):
    """The store of one (omega, lambda, working bits): the group None of what
    does not depend on w, and a group per (w, tail) of what does (module
    docstring)."""
    return _Store()


@lru_cache(maxsize=None)
def _unit_roots(n: int, prec: int):
    """The n-th roots of unity e^{2 pi i l / n}, l < n, at prec bits."""
    with mp.workprec(prec):
        return tuple(mp.expjpi(mpf(2 * l) / n) for l in range(n))


@lru_cache(maxsize=None)
def _twiddles(n: int, bits: int):
    """The integer roots of unity of an n-point transform: the parts of
    2^bits e^{-2 pi i j / n}, j < n/2, each rounded to the nearest integer."""
    with mp.workprec(bits + 16):
        return tuple(
            tuple((to_fixed(x._mpf_, bits + 1) + 1) >> 1 for x in (mp.cospi(a), -mp.sinpi(a)))
            for a in (mpf(2 * j) / n for j in range(n // 2))
        )


def _transform(re, im, roots, bits):
    """Y_j = sum_l x_l e^{-2 pi i j l / n} of the integers x_l = re[l] + i im[l],
    n = len(re) a power of 2, at least 2, by the radix-2 split into the
    transforms of the even and the odd l; roots are the ``_twiddles`` at
    bits of a transform of 2 len(roots) points, a multiple of n.  Each
    product by a twiddle is rounded down to an integer.  Returns the lists
    (Re Y, Im Y)."""
    n = len(re)
    if n == 2:
        (a, b), (c, d) = re, im
        return [a + b, a - b], [c + d, c - d]
    er, ei = _transform(re[::2], im[::2], roots, bits)
    xr, xi = _transform(re[1::2], im[1::2], roots, bits)
    step = 2 * len(roots) // n
    for j, (c, s) in enumerate(roots[step::step], 1):
        a, b = xr[j], xi[j]
        xr[j], xi[j] = (a * c - b * s) >> bits, (a * s + b * c) >> bits
    return (
        list(map(add, er, xr)) + list(map(sub, er, xr)),
        list(map(add, ei, xi)) + list(map(sub, ei, xi)),
    )


def _spectrum(samples, real):
    """(mean |phi_l|, Re Y, Im Y, unit) of n samples phi_l (mpf or mpc): the
    level a circle part keeps, whose trapezoidal coefficients
    A'_m = (1/n) sum_l phi_l e^{-2 pi i m l / n}, m < n, are
    (Re Y_m + i Im Y_m) 2^-unit, by one integer transform (module
    docstring).  The samples are rounded down in the unit 2^(mag - 2) / n
    times 2^-(prec + 8), mag the largest sample's mp.mag, prec the working
    precision.  Hermitian samples (real true) are given by their n/2 + 1
    with l <= n/2 and mirrored into the rest by exact integer negation, and
    their Im Y are 0, as their exact transform is real.  The mean is the
    integers' sizes by isqrt.  Zero samples give a zero mean and zeros."""
    n = 2 * len(samples) - 2 if real else len(samples)
    mags = [mp.mag(x) for x in samples if x]
    if not mags:
        return mpf(0), [0] * n, [0] * n, 0
    prec, log_n = mp.prec, n.bit_length() - 1
    bits = prec + 8
    unit = bits + 2 + log_n - max(mags)
    re, im = map(list, zip(*(_fixed(x, unit) for x in samples)))
    sizes = [isqrt(a * a + b * b) for a, b in zip(re, im)]
    if real:
        re += re[-2:0:-1]
        im += [-y for y in im[-2:0:-1]]
        sizes += sizes[1:-1]
    yr, yi = _transform(re, im, _twiddles(n, bits), bits)
    mean = mp.make_mpf(from_man_exp(sum(sizes), -unit - log_n, prec, round_nearest))
    return mean, yr, [0] * n if real else yi, unit + log_n


def _ray_end(ev: _ContourEvaluator, js, target):
    """The first of the grid indices js whose cut's end bound is below
    target / 10 (rule: module docstring); returns (j, bound)."""
    for j in islice(js, 500):
        bound = ev.end_bound(j)
        if bound < target / 10:
            return j, bound
    raise NodeBudgetExceeded("could not find a ray truncation meeting the target")


def _panel(ev, a, b, rule, depth):
    """A ray part: (Kronrod, estimate, depth, refine, floor) of ev's ray
    integrand over the segment [a, b] of v = u - log lambda, from its
    integer values at the rule's nodes (module docstring); refine() gives
    its halves, cut at the midpoint, one depth deeper."""
    nodes, kw, gw, fkw = rule
    half, mid = (b - a) / 2, (a + b) / 2
    fr, fi, unit = ev.ray_values(mid, half, nodes)
    kr, ki = sum(map(mul, kw, fr)), sum(map(mul, kw, fi))
    dr, di = kr - sum(map(mul, gw, fr[1::2])), ki - sum(map(mul, gw, fi[1::2]))
    # floats from the top 64 bits: the values in the unit 2^(shift - unit)
    prec, shift = mp.prec, max(0, max(map(abs, fr + fi)).bit_length() - 64)
    vs = [complex(x >> shift, y >> shift) for x, y in zip(fr, fi)]
    mean = sum(w * v for w, v in zip(fkw, vs)) / 2
    resabs = sum(w * abs(v) for w, v in zip(fkw, vs))
    resasc = sum(w * abs(v - mean) for w, v in zip(fkw, vs))
    top = max(0, max(abs(dr), abs(di)).bit_length() - 64)
    d = ldexp(abs(complex(dr >> top, di >> top)), top - shift - prec - 32)
    err = resasc * min(1.0, (200 * d / resasc) ** 1.5) if resasc else d
    _, man, exp, _ = half._mpf_
    value = [from_man_exp(x * man, exp - unit - prec - 32, prec, round_nearest) for x in (kr, ki)]
    value = mp.make_mpc(value) if any(fi) else mp.make_mpf(value[0])

    def refine():
        return [_panel(ev, a, mid, rule, depth + 1), _panel(ev, mid, b, rule, depth + 1)]

    err, floor = (half * mp.ldexp(x, shift - unit) for x in (err, mp.ldexp(50 * resabs, -prec)))
    return value, err, depth, refine, floor


def _segment(ev, width, js, rule, depth):
    """The first-pass parts of ev's ray integrand on the grid
    u = log lambda + j * width: a panel between the cuts of each two
    consecutive j in js, ascending integers whose differences are powers of
    2.  A panel one cut wide is at depth, and one 2^i cuts wide at
    depth - i, so every panel at depth d is width * 2^-(d+2) wide.  The
    panels are in v = u - log lambda, where the cuts j * width and their
    bisections are exact."""
    return [
        _panel(ev, a * width, b * width, rule, depth + 1 - (b - a).bit_length())
        for a, b in zip(js, js[1:])
    ]


def _graded(first):
    """The near cuts of ``ray_only_integrate`` from eps's cut first <= 0 up to
    j = 0, the panels laid from eps rightwards: each the widest power of 2 of
    cuts no wider than 3c + 1 with its right cut at j = -c (module
    docstring).  With its left cut at -c, that is 4 * width <= 3c + 1."""
    js, c = [first], -first
    while c:
        c -= 1 << ((3 * c + 1) // 4).bit_length() - 1
        js.append(-c)
    return js


def _rays(ev: _ContourEvaluator, near, target):
    """The first-pass ray panels and the far end's bound: the panels between
    the cuts near, which end at j = 0, then one between each two cuts of the
    grid from j = 0 to the far end's, a panel one cut wide at depth -2.  The
    far end walks the cuts from the first at or past 30 / Re(w), never below
    j = 1 (rule: module docstring)."""
    width = mpf(PANEL_WIDTH)
    start = max(1, int(mp.ceil((mp.log(30 / mp.re(ev.ispec.w)) - ev.origin) / width)))
    last, bound = _ray_end(ev, count(start), target)
    rule = _legendre_nodes(mp.prec)
    return _segment(ev, width, near + list(range(1, last + 1)), rule, -2), bound


def _refine_worst(parts, target, end_bounds):
    """Global-adaptive refinement (QUADPACK's QAG; Piessens et al., 1983) of
    (value, estimate, depth, refine, floor) parts: while the estimates and
    floors plus end_bounds sum above target, replace the first of the parts
    with the largest estimate by its refinement, which goes last, so parts
    stay in insertion order.  Each step sums the estimates and floors anew,
    exactly and rounded once, and adds end_bounds.  Raises
    PrecisionUnreachable at once if the first floors and end_bounds sum
    above target, and NodeBudgetExceeded for a part at depth MAX_LEVELS - 1
    or deeper.  Returns (sum of values, err_estimate)."""
    floor = mp.fsum(part[4] for part in parts) + end_bounds
    if floor > target:
        raise PrecisionUnreachable(
            f"target {mp.nstr(target, 3)} is below the rounding floor plus end bounds, "
            f"{mp.nstr(floor, 3)}, at {mp.prec} bits"
        )
    parts = list(parts)
    while True:
        err = mp.fsum(x for part in parts for x in (part[1], part[4])) + end_bounds
        if err <= target:
            return mp.fsum(part[0] for part in parts), err
        worst = max(range(len(parts)), key=lambda i: parts[i][1])
        _, _, depth, refine, _ = parts.pop(worst)
        if depth >= MAX_LEVELS - 1:
            raise NodeBudgetExceeded(
                f"refinement failed to reach {mp.nstr(target, 3)} (at {mp.nstr(err, 3)})"
            )
        parts += refine()


def hankel_integrate(ispec: IntegrandSpec, lam=None, p: PrecisionPolicy = DEFAULT_POLICY):
    """Integral over I(lambda, inf); returns (value, err_estimate).  ``lam``
    defaults to ``auto_spec``'s radius; it must satisfy 0 < lam < 0.9 * pole bound.
    The whole integral, lambda included, runs at the policy's bits plus
    QUADRATURE_GUARD_BITS for every lambda (module docstring), so the value
    does not depend on the caller's precision."""
    if lam is None:
        lam = auto_spec(ispec.omega, ispec.w, p)
    with p.context(QUADRATURE_GUARD_BITS):
        lam = _check_lambda(lam, ispec.omega)
        target = p.reachable_target()
        ev = _ContourEvaluator(ispec, p.zero_threshold, lam)
        parts, tail_bound = [], 0
        if ev.diff.coeffs:  # else the rays cancel identically
            parts, tail_bound = _rays(ev, [0], target)
        parts.append(ev.first_pass())
        return _refine_worst(parts, target, tail_bound)


def ray_only_integrate(ispec: IntegrandSpec, p: PrecisionPolicy = DEFAULT_POLICY):
    """The contour's ray integrand integrated over [0, inf) with no circle,
    int_0^inf f_omega e^{-wt} tail(t) t^{-k-1} (poly(log t + 2 pi i) -
    poly(log t)) dt.  By Cauchy's theorem this equals
    ``hankel_integrate(ispec)`` when the integrand is regular at t = 0,
    which the two checks below ensure: an integer k, and a tail whose
    valuation is at least k + 1 + r.  The ray is cut to [eps, T], with both
    end bounds in the estimate, and integrated in u = log t as one segment
    (module docstring).  Returns (value, err_estimate); where the ray
    difference has no coefficients (a constant poly), exactly (0, 0)."""
    if ispec.tail is None or not isinstance(ispec.k, int):
        raise InvalidParameter("ray_only_integrate needs an integer k and a tail series")
    if ispec.tail.valuation - ispec.k - 1 - ispec.omega.r < 0:
        raise InvalidParameter("tail valuation leaves a singular integrand at 0")
    lam = auto_spec(ispec.omega, ispec.w, p)
    with p.context(QUADRATURE_GUARD_BITS):
        ev = _ContourEvaluator(ispec, p.zero_threshold, lam)
        if not ev.diff.coeffs:  # the rays cancel identically
            return mp.mpc(0), mpf(0)
        target = p.reachable_target()
        first, head_bound = _ray_end(ev, count(0, -1), target)
        parts, tail_bound = _rays(ev, _graded(first), target)
        return _refine_worst(parts, target, tail_bound + head_bound)
