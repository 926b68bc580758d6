"""Host-speed probe: normalizes measured times for the drift of a shared host.

On a shared virtual machine the speed of this process drifts by tens of
percent within seconds, with no steal time showing, presumably because
other tenants contend for the same cores.  CPU time drifts just as much as
wall time, and medians over passes do not remove it, since the drift
outlasts a pass.

The probe runs a fixed pure-Python loop (see _probe_loop) from a SIGALRM
handler every PERIOD_S seconds, interleaved with the work in the same
thread.  A time t measured while the probe's median duration is p is
reported as t * REF_S / p: seconds on a host where the probe takes REF_S.
The probe is benchmark code, so the library's speed does not enter p, but
its cache footprint does a little: an earlier probe ran about 10% slower
beside the solver's tables than beside matches.  The correction is partial
(the work's time moves about 0.85-0.95 times as much as the probe's), yet
over runs of four solve passes it cut the spread of wall_s from 0.14 to
0.05 of the median.  The probe adds about 2% to the measured times.
"""
from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.02
MIN_SAMPLES = 5
REF_S = 0.00043  # the probe's median duration on the 2-core reference VM


def _probe_loop():
    # tuples, dict updates, list appends and a sort: the operations the
    # library is made of.  The collector is off, so the probe's time does
    # not depend on the size of the work's heap.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        counts = {}
        keys = []
        for i in range(600):
            key = (i & 31, i >> 5, i & 7)
            counts[key] = counts.get(key, 0) + 1
            keys.append(key)
        keys.sort()
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Context manager that samples the probe while the work runs."""

    def __init__(self):
        self.samples = []
        self._old = None

    def _handler(self, signum, frame):
        t0 = perf_counter()
        _probe_loop()
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def mark(self):
        return len(self.samples)

    def factor(self, since=0, until=None):
        """REF_S over the probe's median duration between two marks, or over
        every sample so far when the window holds fewer than MIN_SAMPLES."""
        window = self.samples[since:until]
        if len(window) < MIN_SAMPLES:
            window = self.samples or [REF_S]
        return REF_S / statistics.median(window)
