"""Probes that measure how fast the machine runs, to take its swings out.

On a shared host, the core a process runs on changes speed by up to 1.5x from
one second to the next, as other tenants come and go; each core swings on its
own.  A run of tens of seconds catches a varying share of fast and slow
seconds, so its wall time moves by far more than a change to the program would.

So while the benchmark times calls, ``Probe`` interrupts the process every
``INTERVAL_S`` and times a small fixed reference kernel in the signal handler.
The probes sample the speed of the same core at the same moments as the calls
run, and their own time is left out of the calls' time.  ``scale`` turns a
call's seconds into seconds at nominal speed: the seconds times ``NOMINAL_S``
over the mean probe.  A swing that slows the call and the probes alike
cancels.  The mean, not the median, because a call's time adds up its fast and
slow moments in proportion, as the mean of the probes does.

The kernel uses nothing from ``dualdeg``, so a change to the package moves the
calls' time and not the kernel's.  Like ``dualdeg``'s hot loops, it is a
Python-level loop of float arithmetic and numpy ufuncs on 65-node arrays.  It
allocates no objects the garbage collector tracks, so a larger heap left by
the package does not slow it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.005  # about the kernel's time on a 2-vCPU Xeon VM
INTERVAL_S = 0.1
_STEPS = 1200


def kernel_s() -> float:
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 65)
    acc = 0.0
    for i in range(_STEPS):
        y = np.sin(x * (i % 7)) + x
        acc += float(y[i % 65]) * 0.5 - acc * 1e-3
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel diverged")
    return time.perf_counter() - t0


def scale(seconds: float, kernel_samples: list[float]) -> float:
    """``seconds`` at nominal machine speed, given kernel times taken with it."""
    return seconds * NOMINAL_S / statistics.fmean(kernel_samples)


class Probe:
    """Times the kernel every ``INTERVAL_S`` of wall time while installed.

    ``samples`` collects the kernel times; ``spent`` is the wall time the
    probes took, to be subtracted from the time of whatever they interrupted.
    The handler runs between Python bytecodes of the main thread, so a probe
    waits while a long C call runs; ``dualdeg`` makes few of those.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
