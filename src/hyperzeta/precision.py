"""Precision policy shared by all analytic modules.

Scalars are mpmath ``mpf``/``mpc`` values; a :class:`PrecisionPolicy` pins the
working precision in bits and the absolute error that quadrature and
summation routines aim for.  All public entry points open ``policy.context()``
so that callers never have to touch the global mpmath state themselves.

Every argument and stored coefficient comes in through one door, ``_exact``:
an mpf where its imaginary part is exactly 0, an mpc otherwise, with every
bit it had.  It alone chooses between the two, and mpmath keeps mpf op mpf
real, so real periods, w, tails and jets run in real arithmetic with no test
of their own further in.  ``_exact`` runs on every coefficient of every
jet and checks nothing; the argument doors refuse a non-finite input
(``_finite``) before it reaches a sum that would never end.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .errors import InvalidParameter, PrecisionUnreachable

DEFAULT_BITS = 192
# the guard bits every Hankel integral works with (hankel); its q and S
# polynomials and what the evaluators multiply it by are built in
# context(QUADRATURE_GUARD_BITS) too, so that the integral's rounding floor
# covers them
QUADRATURE_GUARD_BITS = 64


def _exact(x):
    """x as an mpf if its imaginary part is exactly 0, else as an mpc.  An mpf
    or mpc keeps every bit (mp.mpf and mp.mpc round to the working
    precision); any other number is converted at the working precision."""
    if isinstance(x, mpf):
        return x
    if not isinstance(x, mpc):
        x = mp.mpc(x)
    return x if x.imag else x.real


def _finite(x, name):
    """x, if it is a finite number; else InvalidParameter naming it."""
    if not mp.isfinite(x):
        raise InvalidParameter(f"{name} must be finite, got {x}")
    return x


def _right_half(w):
    """w through the door (``_exact``); InvalidParameter unless it is finite
    and Re(w) > 0."""
    w = _finite(_exact(w), "w")
    if not mp.re(w) > 0:
        raise InvalidParameter("Re(w) > 0 is required")
    return w


@dataclass(frozen=True)
class PrecisionPolicy:
    precision_bits: int = DEFAULT_BITS
    target_abs_error: float = 1e-22

    def __post_init__(self):
        if not isinstance(self.precision_bits, int):
            raise InvalidParameter(
                f"precision_bits must be an integer, got {self.precision_bits!r}"
            )
        if self.precision_bits < 64:
            raise InvalidParameter("precision_bits must be >= 64")
        if not self.target_abs_error > 0:
            raise InvalidParameter("target_abs_error must be positive")
        _finite(self.target_abs_error, "target_abs_error")

    def context(self, extra_bits: int = 0):
        """Context manager setting the working precision (plus guard bits)."""
        return mp.workprec(self.precision_bits + extra_bits)

    @property
    def zero_threshold(self):
        """Magnitude below which a leading series coefficient counts as zero."""
        with mp.workprec(self.precision_bits):
            return mpf(2) ** (-(self.precision_bits // 2))

    def reachable_target(self):
        """The target as an mpf at the working precision; raises
        PrecisionUnreachable if it is below that precision's 2^-bits, which
        rounding at that precision could not honour."""
        target = mpf(self.target_abs_error)
        if target < mpf(2) ** -mp.prec:
            raise PrecisionUnreachable(
                f"target {mp.nstr(target, 3)} is below the working precision's 2^-{mp.prec}"
            )
        return target

    def with_target(self, abs_error: float):
        return PrecisionPolicy(self.precision_bits, abs_error)


DEFAULT_POLICY = PrecisionPolicy()
