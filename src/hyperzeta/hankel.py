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
integrands, diff(u) = jump * poly(u + 2 pi i) - poly(u).  That is one
polynomial in u, built once per integral by a Taylor shift (PolyC.shift);
for integer k its top coefficient cancels exactly, and if every coefficient
does (a constant poly), the rays are skipped, with no end bound: the circle
alone is the integral.  At a ray node t = e^u, t f_omega(t) is one division
by prod_i (1 - e^{-omega_i t}); for integer k, e^{-wt} is one exponential and
t^{-k-1} a power of t, and for any other k, e^{-wt} t^{-k-1} is one
exponential, exp(-(k+1) u - wt); a missing tail costs nothing.  The periods,
w, k and the tail's coefficients come in through ``precision._exact``, each
real one an mpf, and mpmath keeps mpf op mpf real.  So at a ray node of real
inputs t f_omega(t), the exponential, the power and the tail are real
products and a real Horner, and only the difference polynomial diff(u) is
complex; the same code serves complex inputs.  The ray segment is cut into
panels, each integrated once at the 65 nodes of the Gauss-Kronrod rule that
extends 32-point Gauss-Legendre (Laurie, Math. Comp. 66, 1997), mapped onto
the panel by its midpoint and half-width; that gives both the Kronrod value
K65 and the Gauss value G32 of its 32 Gauss nodes.

The rule is built once per working precision, bits, by ``_legendre_nodes``:
Laurie's betas at bits + 32, float seeds, and then a polish over Python
integers in the unit 2^-(bits + 64).  The polish runs the orthonormal
recurrence q_0 = 1/sqrt(beta_0),
q_{k+1} = (x q_k - sqrt(beta_k) q_{k-1}) / sqrt(beta_{k+1}), whose values
stay O(1) where the monic p_k shrink like 2^-k; the last step, r_m (m = 32
for a Gauss node, 65 for a Kronrod node), is left unnormalised, as no
beta_65 exists.  The sqrt(beta_k) and 1/sqrt(beta_k) are integers in the
unit, so a step takes two products and one more by 1/sqrt(beta_{k+1}),
rounded down once, and no division; the q_k stay within about 2^13 units of
their exact values (measured at 256 and 704 bits).  The same pass sums
q_k^2, the Christoffel sum whose reciprocal is the weight.  By
Christoffel-Darboux, sum_{k<m} q_k^2 = r_m' q_{m-1} - q_{m-1}' r_m, so near
a zero of r_m the Newton step r_m / r_m' is r_m q_{m-1} / sum_{k<m} q_k^2
to first order: a pass about squares the error with no derivative
recurrence.  That step also vanishes at the zeros of q_{m-1}, where r_m does
not, so the polish stops at the first pass whose residual |r_m| is at most
2^20 units, not at a small step.  |r_m'| > 12.9 at every node of this rule,
so that pass's point is within 2^-(bits + 47) of its node; its step takes it
within rounding of the node, and its sums, whose relative slope there is
below 2^11, are within 2^-(bits + 36) relatively.  A polish with no such
pass among the first (bits + 64).bit_length() (9 at 256 bits, where a float
seed takes 4) raises NodeBudgetExceeded: no node is returned unchecked.
Each node and weight is then rounded to nearest at bits + 32.  The betas'
own rounding sets the rule's accuracy: against the rule built at
bits + 160, the nodes are within 2^-(bits + 31) and the weights within
2^-(bits + 24) relatively (measured at 256 and 704 bits), far below the
panels' rounding floor.

K65 is returned, so each panel's estimate is one of K65's error, by
QUADPACK's rule (Piessens et al., 1983): resasc * min(1, (200 |K65 - G32| /
resasc)^1.5), resasc the K65 integral of |f - mean f| over the panel.  For an
analytic integrand G32 errs by about rho^-64 and K65 by about rho^-98, so
|K65 - G32| overstates K65's error by many orders; the power 1.5 takes part
of that back (Gonnet, ACM Computing Surveys 44, 2012, catalogues where such
rules fail).  Each panel adds a rounding floor, 50 * 2^-(working bits) *
resabs, resabs the K65 integral of |f|, which no refinement removes.  resabs
and resasc need two digits, so they are summed in floats; all three scale by
the panel's half-width.

The circle is one spectral part: the trapezoidal rule in t (Trefethen and
Weideman, SIAM Review 56, 2014).  phi(t) = t f_omega(t) e^{-wt} tail(t) is
analytic in 0 < |t| < pole bound, with a pole of order at most r - 1 - min(0,
v) at 0 for a tail of valuation v, so on the circle
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
lambda^{-k-1} sum_{n=n0}^{n0+N-1} A'_n B_n.  t_l comes from cached roots of
unity, and poly and t^{-k-1} are in the moments, so a sample costs
t f_omega(t) and one exponential, e^{-wt}.  When every period, w and tail
coefficient is real, phi(conj t) = conj phi(t), and t_{N-l} = conj t_l, so
only the samples with 2l <= N are evaluated, 33 of 64: phi_{N-l} =
conj phi_l, the Hermitian symmetry, is the rest.  phi_0 and phi_{N/2}, at
t = lambda and -lambda, have imaginary parts exactly 0.  k and poly live
in the moments, so they play no part in that test.

Every circle level, real or complex, takes one transform over Python
integers (``_spectrum``).  Each part of each sample is rounded down to a
multiple of the unit u = 2^(mag - 2) / N * 2^-(bits + 8), bits the working
precision and mag the largest sample's mp.mag.  mag exceeds log2 of that
sample's size by at most 1 for an mpf and 2 for an mpc, whose mag adds a bit
for its two parts, so u <= 2^-(bits + 8) max|phi_l| / N, which is at most
2^-(bits + 8) mean|phi_l|.  A real integrand's N/2 + 1 integer samples are
mirrored into the rest by exact negation, x_{N-l} = conj x_l, so the
integers are exactly Hermitian.  mean|phi_l|, which the floor below needs,
is taken from the integers: each size floor(sqrt(re^2 + im^2)) by isqrt,
their mean times u, within 3u of the samples' own mean, as each integer lies
within sqrt 2 units of its sample.  The transform
Y_j = sum_l x_l e^{-2 pi i j l / N} of the integers x_l splits into the
transforms of the even and the odd l and joins them by butterflies; the
twiddles are the parts of 2^(bits + 8) e^{-2 pi i j / N}, each rounded to
the nearest integer and cached per (N, bits), and each product by one is
rounded down to an integer.  A'_n = u Y_n / N: u and the 1/N go into the
exponent when Y_n returns to an mpf or mpc, rounded to nearest.  A real
integrand's A'_n are the real parts, mpf, so its part's value and estimate
then take real-by-complex and real arithmetic.

The transform's rounding, in units u: a twiddle errs by at most tau =
2^-(bits + 8) relatively, so a product of a value O errs by at most
tau |O| + sqrt 2.  An output Y_j takes one output of each sub-transform of
the recursion, and the sub-transforms of one size hold each sample once,
so the products add at most log2(N) tau sum|x_l| + sqrt 2 N to Y_j, and
the samples' rounding sqrt 2 N more.  Divided by N, each A'_n errs by at
most (log2 N + 3) 2^-(bits + 8) mean|phi_l|, as u <= 2^-(bits + 8)
mean|phi_l|.  A real integrand's integers are Hermitian, so their exact
transform is real, and the real part of a computed Y_j is no farther from
it than Y_j is.  The return to bits adds at most 2^-bits |A'_n| <= 2^-bits
mean|phi_l|, so every A'_n is within (1 + (log2 N + 3) / 256) 2^-bits
mean|phi_l| of the exact coefficient of its samples, below 1.06 * 2^-bits
mean|phi_l| up to 4096 samples.  That holds for every dynamic range: it is
relative to the mean, and a sample below the unit loses only what lies
below it.  Against the moments it is at most 1.06 * 2^-bits mean|phi_l|
sum|B_n| |lambda^{-k-1}|, a 47th of the part's floor below.

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
sum|B_n| * |lambda^{-k-1}|, as each A'_n carries about 2^-bits mean|phi_l|;
it is above zero wherever a sample and a moment are.  Where every moment
vanishes (a constant poly, integer k and k + 1 < n0: the integrand is
regular at 0) the circle is exactly 0, with a zero estimate.  Refining the
part doubles N: the finer grid's even samples read t f_omega(t) from the
nodes of the old grid, so f_omega is evaluated only at its odd ones (32 of
64 for a real integrand on the doubling to 128).

The first pass is coarse: the rays in panels PANEL_WIDTH = log 16 wide (four
doublings of t), below lambda a power of 2 of those, between the cuts of a
grid fixed in t, the last ending at the cut where the ray ends, and the
circle at CIRCLE_SAMPLES = 64 samples, doubled only until its window
reaches n = Re(k) + 1.  If its floors and the ray end bounds exceed the
target, PrecisionUnreachable is raised at once.
Then ``_refine_worst`` refines as QUADPACK's QAG does: while the estimates,
floors and end bounds sum above the target, the first of the parts with the
largest estimate is refined, a ray panel bisected at its midpoint in u, the
circle with its samples doubled.  A part's depth is its level in the
schedule that cuts each doubling of t into 2^L panels and samples the circle
at 128 * 2^L points: a ray panel one cut of the grid wide (PANEL_WIDTH) is
at -2, one 2^i cuts wide, as the ray-only near segment's are, at -2 - i, and
64 circle samples at -1; past MAX_LEVELS - 1 (2^(1/32) in t, 4096 samples)
it raises NodeBudgetExceeded.  So a level's panels have one width in t
wherever the first pass put them, and the refinement budget per doubling of
t does not depend on the first pass.
Rotating or reshaping the path moves only segment endpoints: a rotation by
phi is u -> u + i phi, which moves the circle's moments to
log lambda + i phi.

The path is (lambda, T), and each has one rule.  ``auto_spec`` gives the
default lambda = 1/4 * min(pole bound, 2 pi), clamped to 6 / Re(w).  The poles
of f_omega then lie at |t| >= 4 lambda, rho >= 4, so N samples resolve about
4^-N of the integrand's scale: 64 samples estimate about 1e-35 for
integrands of unit size, two nearly coincident poles included, and a lower
target doubles them once in ``_refine_worst``, to 128 (about 1e-73).  The
clamp matters at large w: the far side's e^{Re(w) lambda} cancels in the
sum, at one working precision for every lambda, so a lambda above the clamp
pays it in the rounding floor, and raises PrecisionUnreachable from the
first pass where that floor passes the target.  The value does not depend
on lambda, so a smaller circle costs nothing in accuracy.

The ray grid does not move with w: its cuts are
u = log lambda + j PANEL_WIDTH, and the first pass puts one panel between
each two cuts from j = 0 to the far end's cut, below j = 0 the ray-only
integral's graded near segment (below).  The panels
are built in v = u - log lambda, where the cuts j * PANEL_WIDTH (a float)
and their bisections are exact, so a panel at depth d is exactly
PANEL_WIDTH * 2^-(d+2) wide, and equal j give the same nodes u, bit for bit,
at every w that shares (omega, lambda, working bits).  Cuts log lambda + j W
taken at the working precision, with W one ulp below PANEL_WIDTH, would keep
the rounding of each sum in the widths: at |u| near 8 a depth-5 panel came
out 3e-75 (relative) wider than its level allows.

Both ends of a ray have one truncation rule, one walk over the cuts of the
grid: step j one cut at a time until the bound |integrand| * t at the cut
u = log lambda + j PANEL_WIDTH is below target / 10, end the ray at that
cut, and add that bound to the estimate, so the bound is taken where the
integral ends.  The far end T walks up from the first cut at or past
30 / Re(w), never below j = 1 (t = 16 lambda); ``_rays`` finds it and builds
the first-pass panels for both integrals.  ``ray_only_integrate``
integrates the same outbound-minus-inbound integrand over the one segment
[log eps, log T], with no circle; its near end eps walks down from j = 0
(t = lambda), a factor 16 in t per cut.  In u the end t = 0 moves to
u = -inf, where t F(t) decays like e^u |u|^(nu-1) for poly of degree nu, and
the only singularities are the poles of f_omega, at |t| >= 4 lambda, to the
right of u = log lambda + log 4.  So a panel's Bernstein ellipse (Trefethen,
Approximation Theory and Approximation Practice, ch. 19) grows with its
distance from lambda, and the near segment [log eps, log lambda] is graded:
a panel whose right cut is j = -c spans at most 3c + 1 cuts, the bound that
the cuts 0, -1, -5, -21, ..., panels of 1, 4, 16, ... cuts, meet exactly.
``_graded`` lays the panels from eps rightwards, each the widest power of 2
of cuts within that bound and the rest of the segment, so the widths never
shrink going left, every panel is at a whole depth, and where eps is one of
the cuts 0, -1, -5, -21, ... those are the cuts.  The remainder-reduction
ray at w = 20, eps about 1e-11 (j = -9), takes panels of 4, 4 and 1 cuts
below lambda and one above, 4 first-pass panels where one per cut took 10,
and no refinement.  eps itself still walks the unit cuts, so eps and its
bound do not depend on the panels: a walk over the widened cuts would
overshoot, to t ~ 5e-103 in one case, where 1 - e^{-omega t} keeps no bits.

What one integral computes for the next is kept in one node store per
(omega, lambda, working bits), ``_node_store``, which drops the old key's
store first; the pole threshold 2^-(policy bits // 2) follows from the
working bits.  The store keeps groups.  The group None holds what does not
depend on w: t and t f_omega(t) at each circle sample an integral evaluates,
by l / N, and at each ray node and each cut an end walk probes, by the exact
bits of u (u._mpf_, a tuple, which no float key equals), so every f_omega
evaluation goes through it (``_ContourEvaluator.node``); and each circle
window's moments B_n with their largest and summed sizes, by (poly, diff,
-k-1, n0, N).  A group per (w, tail) holds what depends on w: each circle
level of N, its N coefficients (``_spectrum``) and mean |phi_l|, by N, and
for an integer k, at each ray node, t and the term before its power,
tf e^{-wt} tail(t), by u's exact bits.  Neither depends on k or poly, which
live in the moments and the power, so the integrals at one w that differ
only in k and poly, as the derivative hierarchy's do, share them bit for
bit, whichever k comes first.  A k that is not an integer (the Barnes
zeta's) keeps no ray term: its term tf e^{-(k+1) u - wt} tail(t) is one
exponential at a kept node.  The groups hold at most STORE_NUMBERS = 2560
numbers between them: two per node, one per ray term, and N per window of
N moments and per circle level of N.  A number takes about 0.4-0.5 kB at
256 bits, so a full store holds about 1.0 to 1.4 MB.  The groups are
ordered least recently used first, and an integral looks up the group None
and then its own, so those two are the newest; where an entry does not
fit, the oldest groups are dropped while more than two are left, and an
entry that still does not fit is not kept.  So the nodes
outlive every w's group: a 40-point w sweep of ``log_hyper_gamma(1, 1)`` at
omega = (1, 1.3) and the default policy ends with 16 groups in 2410 numbers.
A group holds no reference to its store, so the store of an old key is
freed, groups and all, as soon as the key changes, without waiting for the
cycle collector.  A kept entry is the value the integral would compute, so
no value or estimate depends on what was kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice
from math import acos, cos, factorial, isqrt, log, pi
from operator import add, sub

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest, to_fixed

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
# coefficients); 0.4-0.5 kB each at 256 bits (module docstring)
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
    weights, Kronrod weights as floats), at prec + 32 bits.  The nodes
    ascend, and nodes[1::2] are the Gauss nodes.

    The positive half is found and mirrored.  Float seeds: Newton from
    cos(pi (i + 3/4) / (n + 1/2)) gives the Gauss nodes, and one Kronrod node
    lies between each pair (the two rules interlace), found by Newton from the
    midpoint in arccos.  Each is then polished over integers in the unit
    2^-(prec + 64) by ``_polish``, from Laurie's betas at prec + 32 bits: a
    Gauss node on r_n, a Kronrod node on r_{2n+1}.  The weights are the
    reciprocals of the Christoffel sums of the polish's last pass.  Each node
    and weight is rounded to nearest at prec + 32 bits (module docstring)."""
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

    def node(x):
        return mp.make_mpf(from_man_exp(x, -unit, bits, round_nearest))

    def weight(csum):
        return mp.make_mpf(from_rational(one * one, csum, bits, round_nearest))

    nodes = [node(-x) for x, _, _ in half] + [node(x) for x, _, _ in half[-2::-1]]
    kw = [weight(k) for _, _, k in half]
    kw += kw[-2::-1]
    gw = [weight(g) for _, g, _ in half[1::2]]
    return tuple(nodes), tuple(kw), tuple(gw + gw[::-1]), tuple(map(float, kw))


def _gk_sums(fs, half, rule):
    """(Kronrod integral, its estimate, rounding floor) of a panel of complex
    half-width half from its values fs at the rule's nodes (module
    docstring), in floats scaled by 2^-e: e is 0, or the largest value's
    magnitude beyond 2^+-512, so that no value overflows a float."""
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

    def term(self, u):
        """The ray term tf e^{-wt} tail(t) t^{-k-1} at real u, its node from
        the store by u's exact bits.  An integer k's t and term before the
        power are kept in the (w, tail) group by the same key; another k
        keeps no term."""
        key = u._mpf_
        if not self.power:
            t, tf = self.node(key, lambda: mp.exp(u))
            return self._term(t, tf, self.neg_k1 * u - self.ispec.w * t)
        kept = self.group.get(key)
        if kept is None:
            t, tf = self.node(key, lambda: mp.exp(u))
            kept = self.store.keep(self.group, key, (t, self._term(t, tf, -self.ispec.w * t)), 1)
        t, term = kept
        return term * t**self.neg_k1

    def ray(self, u):
        """Outbound-minus-inbound integrand t F(t) at real u."""
        return self.term(u) * self.diff(u)

    def end_bound(self, j):
        """Crude bound |F| * t of the one-sided ray integrands at the cut
        u = log lambda + j PANEL_WIDTH, floored by poly's largest coefficient
        (c * poly has |c| times its bound); the cut's term is kept like a
        ray node's."""
        u = self.origin + j * mpf(PANEL_WIDTH)
        span = abs(self.outbound(u)) + abs(self.ispec.poly(u)) + self.size
        return abs(self.term(u)) * span

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
        """(B_m for the window n0 <= m < n0 + n, max |B_m|, sum |B_m|), kept
        in the node store.  B_m = sum_i (-1)^i diff^(i)(log lam) / beta^(i+1),
        beta = m - k - 1, and for beta = 0 the integral of poly over the segment."""
        key = (self.ispec.poly, self.diff, self.neg_k1, self.n0, n)
        window = self.nodes.get(key)
        if window is not None:
            return window
        a = self.origin
        jet = [c * factorial(i) for i, c in enumerate(self.diff.shift(a).coeffs)]
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        flat = mp.fsum(
            c * two_pi_i ** (j + 1) / (j + 1) for j, c in enumerate(self.ispec.poly.shift(a).coeffs)
        )
        moments = []
        for m in range(self.n0, self.n0 + n):
            beta = m + self.neg_k1
            if beta == 0:
                moments.append(flat)
                continue
            inv, acc = 1 / mp.mpmathify(beta), mp.mpc(0)
            for g in reversed(jet):
                acc = acc * -inv + g
            moments.append(acc * inv)
        sizes = [abs(b) for b in moments]
        return self.store.keep(self.nodes, key, (moments, max(sizes), mp.fsum(sizes)), n)

    def first_pass(self):
        """The circle's part with CIRCLE_SAMPLES samples, doubled only until
        its moments reach n = Re(k) + 1."""
        n = CIRCLE_SAMPLES
        while self.n0 + n <= mp.re(self.ispec.k) + 1:
            n *= 2
        return self.part(n)

    def part(self, n):
        """A circle part: (value, estimate, depth, refine, floor) of the grid
        of n samples, from its level, the mean |phi_l| and coefficients that
        ``_spectrum`` returns and the (w, tail) group keeps by n.  Where it
        keeps none, the samples are taken, all n or a real integrand's
        n/2 + 1 with 2l <= n, and ``_spectrum`` builds the level from them.
        refine() is the part of the grid twice as fine, one depth deeper,
        whose even samples are this grid's nodes."""
        level = self.group.get(n)
        if level is None:
            samples = self.samples(range(n), n)
            level = self.store.keep(self.group, n, _spectrum(samples, self.real), n)
        mean, spectrum = level
        coeffs = [spectrum[m % n] for m in range(self.n0, self.n0 + n)]
        moments, largest, total = self.moments(n)
        scale = abs(self.scale)
        err = self.factor * max(map(abs, coeffs[-4:])) * largest * scale
        floor = 50 * mp.ldexp(mean * total * scale, -mp.prec)
        value = self.scale * mp.fdot(coeffs, moments)
        return value, err, n.bit_length() - 8, lambda: [self.part(2 * n)], floor


class _Group(dict):
    """What a node store keeps under one of its keys (module docstring), and
    how many numbers that is.  The group None keeps nodes, by l / N or u's
    exact bits, and moment windows; a (w, tail) group keeps circle levels,
    by N, and an integer k's ray terms, by u's exact bits.  It holds no
    reference to its store."""

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
    """(mean |phi_l|, the trapezoidal coefficients A'_m = (1/n) sum_l phi_l
    e^{-2 pi i m l / n}, m < n) of n samples phi_l (mpf or mpc), the level a
    circle part keeps, by one integer transform (module docstring).  The
    samples are rounded down in the unit 2^-unit, 2^(mag - 2) / n times
    2^-(prec + 8), mag the largest sample's mp.mag, prec the working
    precision.  Hermitian samples (real true) are given by their n/2 + 1
    with l <= n/2 and mirrored into the rest by exact integer negation, and
    their coefficients are mpf, the real parts; else all n are given, and
    the coefficients are mpc.  The mean is the integers' sizes by isqrt.
    Zero samples give a zero mean and exact zeros."""
    n = 2 * len(samples) - 2 if real else len(samples)
    mags = [mp.mag(x) for x in samples if x]
    if not mags:
        return mpf(0), [mpf(0) if real else mp.mpc(0)] * n
    prec, log_n = mp.prec, n.bit_length() - 1
    bits = prec + 8
    unit = bits + 2 + log_n - max(mags)
    re, im = map(list, zip(*(_fixed(x, unit) for x in samples)))
    sizes = [isqrt(a * a + b * b) for a, b in zip(re, im)]
    if real:
        re += re[-2:0:-1]
        im += [-y for y in im[-2:0:-1]]
        sizes += sizes[1:-1]

    def fixed(y):  # an integer in the unit, divided by n
        return from_man_exp(y, -unit - log_n, prec, round_nearest)

    yr, yi = _transform(re, im, _twiddles(n, bits), bits)
    mean = mp.make_mpf(fixed(sum(sizes)))
    if real:
        return mean, [mp.make_mpf(fixed(y)) for y in yr]
    return mean, [mp.make_mpc((fixed(a), fixed(b))) for a, b in zip(yr, yi)]


def _ray_end(ev: _ContourEvaluator, js, target):
    """The first of the grid indices js whose cut's end bound is below
    target / 10 (rule: module docstring); returns (j, bound)."""
    for j in islice(js, 500):
        bound = ev.end_bound(j)
        if bound < target / 10:
            return j, bound
    raise NodeBudgetExceeded("could not find a ray truncation meeting the target")


def _panel(g, a, b, rule, depth):
    """A part: (Kronrod, estimate, depth, refine, floor) for g over the
    segment [a, b] of the u-plane; refine() gives its halves, cut at the
    midpoint, one depth deeper."""
    half, mid = (b - a) / 2, (a + b) / 2
    kronrod, err, floor = _gk_sums([g(mid + half * x) for x in rule[0]], half, rule)

    def refine():
        return [_panel(g, a, mid, rule, depth + 1), _panel(g, mid, b, rule, depth + 1)]

    return kronrod, err, depth, refine, floor


def _segment(g, o, width, js, rule, depth):
    """The first-pass parts of g on the grid u = o + j * width: a panel
    between the cuts of each two consecutive j in js, ascending integers
    whose differences are powers of 2.  A panel one cut wide is at depth,
    and one 2^i cuts wide at depth - i, so every panel at depth d is
    width * 2^-(d+2) wide.  The panels are in v = u - o, where the cuts
    j * width and their bisections are exact."""

    def shifted(v):
        return g(o + v)

    return [
        _panel(shifted, a * width, b * width, rule, depth + 1 - (b - a).bit_length())
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
    return _segment(ev.ray, ev.origin, width, near + list(range(1, last + 1)), rule, -2), bound


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
    """The contour's ray integrand integrated over [0, inf) with no circle:

        int_0^inf f_omega e^{-wt} tail(t) t^{-k-1}
                  (poly(log t + 2 pi i) - poly(log t)) dt.

    By Cauchy's theorem this equals ``hankel_integrate(ispec)`` when the
    integrand is regular at t = 0, which the two checks below ensure: an
    integer k, and a tail whose valuation is at least k + 1 + r.  The ray is
    cut to [eps, T], with both end bounds in the estimate, and integrated in
    u = log t as one segment (module docstring), at the contour's working
    precision and with its rule.  Returns (value, err_estimate).

    Where the ray difference has no coefficients (a constant poly: the jump
    is 1), the integral is exactly (0, 0).
    """
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
