"""Scale measured times to a reference host speed.

The benchmark runs on shared hosts whose speed moves between levels that
last seconds to minutes: on a shared 2-core Xeon host, a fixed loop of
Python took 1.4 to 1.6 times as long in a slow spell as in a fast one.
A median over one run does not remove a spell that lasts the whole run,
so raw times of the same code spread by 20-50% between runs.

So while a pass runs, a timer interrupts it every SAMPLE_INTERVAL_S and
times a fixed pure-Python loop, the gauge.  The gauge's median time over
the pass says how fast the host was during it.  A pass's time, less the
time spent in the gauge, is scaled by REFERENCE_GAUGE_S over that median.
The gauge is fixed code of the benchmark, so a program that does twice
the work still reports twice the time.

Starting an interpreter and importing slows down less than the gauge in
a slow spell, since much of it is the kernel's work.  So set-up time has
its own gauge of the same kind: a fresh interpreter that imports only
numpy, burstfec's one dependency.  A set-up time is scaled by
REFERENCE_BASE_S over the time of that interpreter, started just before.
"""

from __future__ import annotations

import signal
import statistics
import time

GAUGE_LOOPS = 15_000
SAMPLE_INTERVAL_S = 0.05
# The gauge's median time at the fast level of the host above (Python
# 3.11.7).  Only ratios of scaled times mean anything; this constant
# makes a scaled time read as seconds on that host at that level.
REFERENCE_GAUGE_S = 7.0e-4
# The numpy-only interpreter's median time on the same host.
REFERENCE_BASE_S = 0.14


def gauge_seconds() -> float:
    """Time of one run of the gauge loop."""
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_LOOPS):
        total += i * 3
    return time.perf_counter() - start


def scale(samples) -> float:
    """Factor from raw seconds to seconds at the reference speed."""
    return REFERENCE_GAUGE_S / statistics.median(samples)


class HostSpeed:
    """Samples the gauge before, during and after the body.

    ``samples`` holds every gauge time, and ``inside`` the seconds the
    gauge took while the body ran, to be taken off the body's time.
    Uses SIGALRM, so it must run in the main thread, and nothing else in
    the process may use that signal meanwhile.
    """

    def __init__(self):
        self.samples = []
        self.inside = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        seconds = gauge_seconds()
        self.samples.append(seconds)
        self.inside += seconds

    def __enter__(self):
        self.samples = [gauge_seconds()]
        self.inside = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(gauge_seconds())

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured around the body, at the reference speed."""
        return (seconds - self.inside) * scale(self.samples)
