"""How fast the host runs this process right now, sampled while it works.

On a shared host the core itself is shared, not only the time on it: the
same code runs in one of two states, a usual one and, for seconds at a time,
one about 40% faster, and the share of time in each moves from hour to hour
(a pipeline took 53 s in one hour and 36 s in the next, in CPU time as in
wall time). ``Speedometer`` samples the state while a measurement runs: a
profiling timer fires every ``interval`` CPU seconds and times a fixed
reference kernel that does the pipeline's kind of work. Each interval's CPU
time is scaled by the speed sampled at its end, which gives the time the work
would have taken at reference speed, the speed at which one kernel call takes
``REFERENCE_S``.

The kernel calls no ``ballbasis`` code, so a change to the program moves the
scaled time as much as the raw one.
"""

from __future__ import annotations

import signal
import statistics
import time

# CPU time of one kernel call on a 2-vCPU Intel Xeon (Python 3.11.7,
# numpy 2.4.6, one BLAS thread) in its usual state; for seconds at a time
# the same call takes 2.3 ms there instead.
REFERENCE_S = 0.0040
INTERVAL_S = 0.2
KERNEL_BALLS = 200
KERNEL_SETS = 40

_state = None


def kernel() -> float:
    """The fixed reference work, the pipeline's kind of work: a Python loop
    over balls of a 512-atom space taking small numpy statistics of a
    function on each, then frozenset containment between balls. It calls no
    ``ballbasis`` code. numpy is imported on the first call, so importing
    this module does not import it ahead of a set-up that is being timed.
    Returns a checksum so nothing is skipped."""
    global _state
    import numpy as np

    if _state is None:
        rng = np.random.default_rng(0)
        balls = [np.sort(rng.choice(512, size=2 ** (k % 9 + 1), replace=False))
                 for k in range(KERNEL_BALLS)]
        _state = (rng.random(512), balls,
                  [frozenset(b.tolist()) for b in balls[:KERNEL_SETS]])
    f, balls, sets = _state
    acc = 0.0
    for b in balls:
        v = f[b]
        acc += float(np.abs(v - v.mean()).mean())
    for s in sets:
        acc += sum(s <= t for t in sets)
    return acc


class Speedometer:
    """Samples the host's speed with the reference kernel every ``interval``
    CPU seconds between ``start`` and ``stop``, and once more at ``stop``.

    ``scaled_s`` is the thread CPU time between ``start`` and ``stop``, less
    the kernel's own, with each interval scaled by the speed sampled at its
    end: the time the work would have taken at reference speed. ``samples``
    holds each kernel call's thread CPU seconds and ``spent`` their sum.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self.scaled_s = 0.0
        self._mark = None
        kernel()  # builds the kernel's inputs outside any timed interval

    def sample(self, *_):
        # thread time: process time moves in scheduler ticks while a
        # profiling timer is armed, too coarse for one kernel call
        start = time.thread_time()
        kernel()
        took = time.thread_time() - start
        self.samples.append(took)
        self.spent += took
        if self._mark is not None:
            self.scaled_s += (start - self._mark) * REFERENCE_S / took
        self._mark = time.thread_time()

    def start(self):
        self._mark = time.thread_time()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()
        self._mark = None

    def burst(self, n: int):
        """Sample ``n`` times in a row, for work too short to sample during."""
        for _ in range(n):
            self.sample()

    def speed(self) -> float:
        """Mean speed over the samples relative to reference speed."""
        return statistics.mean(REFERENCE_S / t for t in self.samples)
