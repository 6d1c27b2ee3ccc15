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
(``_finite``) before it reaches a sum that would never end, and a value of
the wrong kind (``_index``, ``_real``) before it reaches the arithmetic.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero, to_fixed

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


def _parts(x):
    """The raw parts (real, imaginary) of an mpf or mpc."""
    return x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)


def _fixed(x, unit):
    """The parts of x, an mpf or mpc, each rounded down to a multiple of
    2^-unit, as integers in that unit (0 for a real x's imaginary part)."""
    return tuple(to_fixed(part, unit) for part in _parts(x))


def _finite(x, name):
    """x, if it is a finite number; else InvalidParameter naming it."""
    if not mp.isfinite(x):
        raise InvalidParameter(f"{name} must be finite, got {x}")
    return x


def _index(x, name):
    """x as an int, if it is an integer (``operator.index``); else
    InvalidParameter naming it."""
    try:
        return operator.index(x)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer, got {x!r}") from None


def _real(x, name):
    """x as an mpf (an mpf keeps its bits), if it is a finite real number
    that mpf takes; else InvalidParameter naming it."""
    try:
        if isinstance(x, numbers.Real):
            return _finite(x if isinstance(x, mpf) else mpf(x), name)
    except TypeError:  # a Fraction, say, which mpf does not take
        pass
    raise InvalidParameter(f"{name} must be a real number, got {x!r}")


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
        if _index(self.precision_bits, "precision_bits") < 64:
            raise InvalidParameter("precision_bits must be >= 64")
        if not _real(self.target_abs_error, "target_abs_error") > 0:
            raise InvalidParameter("target_abs_error must be positive")

    def context(self, extra_bits: int = 0):
        """Context manager setting the working precision (plus guard bits)."""
        return mp.workprec(self.precision_bits + extra_bits)

    @property
    def zero_threshold(self):
        """2^-(bits // 2) at the policy's bits: the size below which a Hankel
        integrand's divisor 1 - e^{-omega t} is tested as a pole near the path
        (``hankel._f_omega_at``), and the scale of the ``qpoly`` check's
        tolerance.  No series operation has a threshold: ``LaurentSeries``
        reads its coefficients as given."""
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
