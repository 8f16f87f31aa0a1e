"""Machine-speed sampling, so that timings can be put at a reference speed.

The CPU this benchmark runs on may be shared: the same code can take 1.7
times as long for minutes at a time, and a process's CPU time slows with
its wall time, so neither measures the program alone. ``Sampler`` times a
small fixed pure-Python kernel from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall time while the workload runs. The kernel does
nothing the library can change, so the mean of ``REF_KERNEL_S / kernel
time`` over a repetition is the machine's speed during it, relative to a
core on which the kernel takes ``REF_KERNEL_S``; a timing multiplied by it
is the time the same work takes at that reference speed.

The handler's own time is counted in ``spent`` and is taken out of the
timings it interrupted. It costs about 1.5 % of the run.
"""

from __future__ import annotations

import gc
import signal
import time
from statistics import mean

INTERVAL_S = 0.1
KERNEL_ITERATIONS = 3000
# The kernel's time on an idle core of the machine the bounds were set on
# (Xeon at 2.1 GHz, Python 3.11); it only scales the reported seconds.
REF_KERNEL_S = 1.15e-3


def kernel() -> int:
    """Integer arithmetic and tuple-keyed dict updates, the operations
    the exact kernel spends its time on; about 1.15 ms at reference speed."""
    acc = 0
    table = {}
    for i in range(1, KERNEL_ITERATIONS):
        n, m = i * 7919 + 3, i * 104729 + 11
        acc += (n * m) // (i % 13 + 1) % 1000003
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + acc
    return acc


class Sampler:
    """Times ``kernel`` every ``INTERVAL_S`` seconds between ``start`` and
    ``stop``. Uses ``SIGALRM`` and the real interval timer, so the process
    must not use either for anything else meanwhile."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        begin = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()
        self.spent += time.perf_counter() - begin

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def burst(self, count: int) -> None:
        """Times the kernel ``count`` times in a row, now; for a timing too
        short to hold many samples."""
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    def speed(self, first: int = 0) -> float:
        """Mean speed relative to the reference core over the samples from
        index ``first`` on: 1 at reference speed, 0.6 when everything takes
        1/0.6 times as long. The mean of speeds, not of times, so that a
        sample slowed by an interrupt weighs little."""
        samples = self.samples[first:]
        if not samples:
            raise RuntimeError("no speed samples: the run was shorter than the interval")
        return mean(REF_KERNEL_S / s for s in samples)
