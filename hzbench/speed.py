"""The host's speed, read from a fixed kernel timed during every request.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same code runs up to about 1.8x slower in phases lasting from under a second
to minutes.  Its CPU time drifts with its wall time, so the cause is not time
spent descheduled, and a run that falls in a slow phase would read as a
regression.

``probe()`` times a fixed kernel: a short Hankel-style quadrature sum in
mpmath at 224 bits (complex powers, exponentials, sums), the operations the
library spends its time in.  It calls no library code, so no change to the
library can change it.  A ``Sampler`` runs the kernel every 50 ms from a
SIGALRM handler, so a request is probed while it runs, and run.py also
probes between requests.  A timing is scaled by the mean of
``REF_PROBE_S / probe`` over the probes taken during it and at its ends,
which reports it in seconds of a host running at the reference speed.  The
time spent in the probes is taken out first.  The raw timings are kept in
the record.

On the 2-core x86-64 host where this was measured, over 90 to 120 s of
alternating phases, the standard deviation of the log of four-request
windows fell from 0.08-0.12 unscaled to 0.01-0.02 scaled.  Probes taken only
between requests brought it to 0.05.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

from mpmath import mp, mpf

# The probe's time at the reference speed: the fast phase of a 2-core x86-64
# host, Python 3.11, where the benchmark's nominal round times were measured.
REF_PROBE_S = 0.9e-3
INTERVAL_S = 0.05
_BITS = 224
_NODES = 16


def _kernel():
    """A fixed Hankel-style quadrature sum: sum_j exp(-t_j) t_j^(s-1) dt_j."""
    with mp.workprec(_BITS):
        s = mp.mpc("2.25", "0.75")
        acc = mp.mpc(0)
        for j in range(1, _NODES + 1):
            t = mpf(j) / 3
            acc += mp.exp(-t) * mp.power(t, s - 1) / 3
        return acc


def probe() -> float:
    """Seconds of one kernel run."""
    t = perf_counter()
    _kernel()
    return perf_counter() - t


def factor(probes: list) -> float:
    """The scale from seconds measured alongside ``probes`` to reference seconds."""
    return statistics.fmean(REF_PROBE_S / p for p in probes)


class Sampler:
    """Probes every ``interval_s`` while it runs, from a SIGALRM handler.

    The handler runs in the main thread between two bytecodes of whatever
    runs, so a long request is probed while it runs.  ``spent_s`` is the time
    spent in the handler, to be taken out of the timings it falls into.  An
    interval of 0 takes no samples."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t = perf_counter()
        self.samples.append(probe())
        self.spent_s += perf_counter() - t

    def mark(self) -> tuple:
        return len(self.samples), self.spent_s

    def since(self, mark: tuple) -> tuple:
        """The samples taken and the seconds spent in the handler since mark."""
        n, spent = mark
        return self.samples[n:], self.spent_s - spent

    def __enter__(self):
        if self.interval_s:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False
