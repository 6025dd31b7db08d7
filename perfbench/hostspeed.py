"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by a third or more
over seconds to minutes, from other tenants on the same physical cores.
Process CPU time drifts with it (the vCPU is not descheduled, it is
slower), so CPU clocks do not remove the drift.  Every timed interval is
therefore reported in *reference seconds*: its wall time scaled by how
long a fixed kernel takes right before and right after it, relative to
:data:`NOMINAL_S`, the kernel's time at the host's nominal speed.  A slow
phase of the host stretches the kernel and the interval alike and cancels
out; a slower program leaves the kernel alone and shows in full.

The kernel lives here, not in the program, so no change to the program
can move it.  It mixes interpreter work with small numpy sorts and scans,
the two kinds of work the program's layers do.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

#: The kernel's time (min of two runs) at the nominal speed of a 2-vCPU
#: Xeon VM; it only sets the scale of reference seconds.
NOMINAL_S = 0.0025

_DATA = np.random.default_rng(0).random(2048)


def kernel_s(runs: int = 2) -> float:
    """Fastest of *runs* timings of the fixed kernel, in wall seconds."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        for _ in range(30):
            np.cumsum(np.sort(_DATA))
        best = min(best, time.perf_counter() - t0)
    return best


def scale(seconds: float, *kernels: float) -> float:
    """*seconds* of wall time measured while the kernel took *kernels*
    (their mean), in reference seconds."""
    return seconds * NOMINAL_S * len(kernels) / sum(kernels)


class Clock:
    """Times consecutive intervals in reference seconds.  The kernel run
    that closes one interval also opens the next."""

    def __init__(self) -> None:
        self.kernel = kernel_s()
        #: Wall seconds of every interval, for the record.
        self.wall_s = 0.0

    @contextmanager
    def interval(self, out: dict, name: str):
        """Record the block's time under ``out[name]``."""
        t0 = time.perf_counter()
        yield
        elapsed = time.perf_counter() - t0
        kernel = kernel_s()
        out[name] = scale(elapsed, self.kernel, kernel)
        self.kernel = kernel
        self.wall_s += elapsed
