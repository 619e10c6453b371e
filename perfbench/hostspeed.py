"""Host speed index: a fixed reference kernel timed all through a run.

The benchmark shares a few cores of a host with other tenants, and the
speed it gets drifts by tens of percent over minutes, in CPU time as
much as in wall time. A fixed kernel timed every ``SAMPLE_EVERY_S`` of
the run slows down with the program, so dividing the program's CPU time
by the kernel's mean time takes that drift out. The mean, not the
median: the host switches between fast and slow spells, and the
program's CPU time adds up both. ``TRIM`` of the samples at each end is
dropped first, against a sample hit by a page fault or a collection.

The kernel integrates a rigid body with RK4 on 3-vectors: small numpy
operations behind Python calls, the instruction mix of the simulator's
per-tick path. It lives here, not in ``l1gp``, so that no change to the
program changes it.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

# the kernel's mean CPU time on the host the baseline was measured on
# (2-vCPU x86_64 VM, Python 3.11, numpy 2.4): times are reported as
# seconds at that speed
REFERENCE_NOMINAL_S = 0.0027
SAMPLE_EVERY_S = 0.05
TRIM = 0.1

_J = np.diag([0.01, 0.012, 0.02])
_J_INV = np.linalg.inv(_J)
_U = np.array([0.01, 0.0, -0.01])


def _body_rate(w: np.ndarray) -> np.ndarray:
    return _J_INV @ (_U - np.cross(w, _J @ w))


def reference_kernel() -> np.ndarray:
    """15 RK4 steps of 1 ms of a torqued rigid body's rates."""
    w, h = np.array([0.1, 0.2, 0.3]), 1e-3
    for _ in range(15):
        k1 = _body_rate(w)
        k2 = _body_rate(w + 0.5 * h * k1)
        k3 = _body_rate(w + 0.5 * h * k2)
        k4 = _body_rate(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


class HostSpeed:
    """Reference-kernel samples of one run, and the factor they give."""

    def __init__(self, clock: Callable[[], float] = time.process_time,
                 wall: Callable[[], float] = time.perf_counter,
                 kernel: Callable[[], Any] = reference_kernel):
        self.clock, self.wall, self.kernel = clock, wall, kernel
        self.samples: list[float] = []
        self.spent_s = 0.0  # CPU seconds spent in the kernel, to subtract
        self._next = 0.0

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = self.clock()
            self.kernel()
            dt = self.clock() - t0
            self.samples.append(dt)
            self.spent_s += dt
        self._next = self.wall() + SAMPLE_EVERY_S

    def mean_s(self) -> float:
        """Mean kernel time, ``TRIM`` of the samples dropped at each end."""
        ordered = sorted(self.samples)
        k = int(len(ordered) * TRIM)
        return statistics.fmean(ordered[k:len(ordered) - k])

    def factor(self) -> float:
        """Multiply CPU seconds by this to get seconds at the nominal speed."""
        return REFERENCE_NOMINAL_S / self.mean_s()

    @contextmanager
    def sampling(self, owner: Any, attr: str):
        """Within the block, each call of ``owner.attr`` first takes a sample
        if ``SAMPLE_EVERY_S`` of wall time has passed since the last one.
        The call itself, its arguments and its result are left unchanged."""
        orig = vars(owner)[attr]

        def sampled(*args, **kwargs):
            if self.wall() >= self._next:
                self.sample()
            return orig(*args, **kwargs)

        setattr(owner, attr, functools.update_wrapper(sampled, orig))
        try:
            yield self
        finally:
            setattr(owner, attr, orig)
