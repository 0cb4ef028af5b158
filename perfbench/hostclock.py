"""Host time normalized to a reference machine speed.

The host this benchmark runs on is shared: over seconds to minutes its
speed drifts by up to 2x, which no repeat count averages away.  A fixed
numpy kernel timed right beside the work drifts with it, so the
benchmark divides each stretch of work time by the kernel times that
bracket it and reports the result in seconds at the reference speed --
the speed at which the kernel takes :data:`REFERENCE_KERNEL_S`.  Raw
host seconds are kept beside every normalized figure.
"""

from __future__ import annotations

import time

import numpy as np

now = time.perf_counter

#: Kernel time, in host seconds, that defines the reference speed (the
#: kernel's time on an idle 2-core x86-64 VM with Python 3.11, numpy 2.4
#: and one BLAS thread).
REFERENCE_KERNEL_S = 0.0025

#: Work time between two kernel samples.
WINDOW_S = 0.25

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((64, 64))
_VECTOR = _RNG.standard_normal(64)


def kernel_s(iterations: int = 40) -> float:
    """Host seconds of one fixed calibration kernel.

    Small matmuls and many tiny-array operations: the same shape of
    work the simulator does.
    """
    start = now()
    a, v = _MATRIX, _VECTOR
    for _ in range(iterations):
        a = np.tanh(a @ a.T / 64.0)
        for _ in range(10):
            v = np.maximum(v * 0.5 + a[0], -1.0)
    return now() - start


def speed_factor(before_s: float, after_s: float) -> float:
    """Reference seconds per host second, from two kernel samples."""
    return REFERENCE_KERNEL_S / ((before_s + after_s) / 2.0)


class HostClock:
    """Times the work between ``start`` and ``stop``, window by window.

    The work calls :meth:`chunk` at natural boundaries (a scheduler
    tick, a generation); once the current window holds at least
    :data:`WINDOW_S` of work, the clock pauses, samples the kernel, and
    converts the window to reference seconds with the kernel samples on
    either side of it.  Kernel time is never counted as work.

    Attributes:
        raw_s: host seconds of work.
        reference_s: the same work in seconds at the reference speed.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.reference_s = 0.0
        self._window = 0.0
        self._kernel = None
        self._mark = None

    def start(self) -> "HostClock":
        """Sample the kernel and start timing work."""
        self._kernel = kernel_s()
        self._mark = now()
        return self

    def chunk(self) -> None:
        """Mark a work boundary; may close the window and sample."""
        t = now()
        self._window += t - self._mark
        if self._window >= WINDOW_S:
            self._close()
            self._mark = now()
        else:
            self._mark = t

    def stop(self) -> "HostClock":
        """Stop timing and close the last window."""
        self._window += now() - self._mark
        self._close()
        return self

    def _close(self) -> None:
        after = kernel_s()
        self.raw_s += self._window
        self.reference_s += self._window * speed_factor(self._kernel, after)
        self._kernel = after
        self._window = 0.0


class NullClock:
    """A clock that ignores work boundaries (untimed callers)."""

    def chunk(self) -> None:
        """Do nothing."""
