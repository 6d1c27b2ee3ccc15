from contextlib import contextmanager

import pytest
from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero

from hyperzeta import asymptotics, evaluators, hankel, multibernoulli, precision, qpoly, series

# every module that binds precision._exact
_DOOR_MODULES = (precision, series, qpoly, multibernoulli, hankel, evaluators, asymptotics)


def _widen(x):
    """x as an mpc, keeping the bits of an mpf or mpc: a real input widened
    to an mpc with a zero imaginary part."""
    if isinstance(x, mpc):
        return x
    if isinstance(x, mpf):
        return mp.make_mpc((x._mpf_, fzero))
    return mp.mpc(x)


@contextmanager
def _widened():
    with pytest.MonkeyPatch.context() as patch:
        for module in _DOOR_MODULES:
            patch.setattr(module, "_exact", _widen)
        yield


@pytest.fixture(scope="session")
def widened():
    """A context manager under which every argument and coefficient comes in
    as an mpc, real ones with a zero imaginary part, so that what is built
    inside it runs in complex arithmetic throughout: the reference for real
    arithmetic.  Session-scoped, as it holds no state, so property-based
    tests can use it for each example."""
    return _widened
