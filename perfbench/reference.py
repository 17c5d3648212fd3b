"""Host-speed reference: a fixed computation timed alongside every workload.

The benchmark runs on a few cores of a shared host, whose speed drifts by
a third within seconds to minutes.  The drift slows orbitscope and any
other interpreter-bound Python alike, in CPU time as much as in wall
time.  So while a workload runs, a SIGALRM handler times a short fixed
computation (an exact orbit taken by the benchmark's own oracle) every
INTERVAL_S of wall time, in the same thread, and each request's time is
reported as

    (its time minus the handler's) * NOMINAL_S / (mean reference time
    over the request, widened to at least WINDOW_S around it)

which states the time as it would read on a host where one reference
call takes NOMINAL_S.  The reference uses only the standard library and
the benchmark's oracle, nothing of orbitscope, and runs with the
collector off, so a change to the program moves the scaled times as it
moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

from oracle import Operator

# about one call's time on a 2-vCPU x86-64 VM with Python 3.11
NOMINAL_S = 0.0025
INTERVAL_S = 0.1
WINDOW_S = 1.0

# twenty single steps of a weighted shift on Fraction entries, taken by
# the benchmark's oracle: the kind of work orbitscope does, without it
_OP = Operator({"shape": "bilateral_backward", "index_set": "Z", "label": "reference",
                "weights": {"kind": "periodic", "values": ["3", "1/3", "7/5"]}})
_X = {i: (Fraction(i, 7), Fraction(0)) for i in range(-6, 7)}


def timed() -> float:
    """Seconds one reference call takes now.

    The collector is off, so the size of the program's heap does not
    change the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        _OP.power(20, _X)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the reference every INTERVAL_S while active; scales request times."""

    def __init__(self):
        self.at: list[float] = []     # perf_counter when each sample ended
        self.ref: list[float] = []    # its reference time
        self.spent = 0.0              # seconds spent in the handler so far

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.ref.append(timed())
        t1 = time.perf_counter()
        self.at.append(t1)
        self.spent += t1 - t0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def nominal(self, start: float, end: float, raw: float) -> float:
        """raw, the time of a request that ran from start to end, at nominal speed."""
        half = max(WINDOW_S, end - start) / 2
        mid = (start + end) / 2
        lo = bisect.bisect_left(self.at, mid - half)
        hi = bisect.bisect_right(self.at, mid + half)
        return raw * NOMINAL_S / statistics.fmean(self.ref[lo:hi] or self.ref)
