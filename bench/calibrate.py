"""Host-speed calibration for timings taken on a shared, drifting machine.

On a small shared host the speed of the same code drifts by 10 to 30%
within seconds, with the CPU time tracking the wall time, so medians inside
one run cannot remove it. The benchmark therefore samples a fixed kernel
every tenth of a second between its operations and reads every clock value
through ``ReferenceTime``: between two samples, one second on this host
counts as ``REFERENCE_S / k`` seconds, where ``k`` is the median kernel
call time of those two samples. Durations come out in seconds of a
reference host on which one kernel call takes ``REFERENCE_S``.

The kernel is pure-Python scalar ODE stepping with a few small numpy calls,
the same kind of work as hbvkit's integrators, but it shares no code with
hbvkit, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 1e-3
_STEPS = 300
_SAMPLE_EVERY_S = 0.1
_CALLS_PER_SAMPLE = 3


def _f(t, x, y, z):
    infect = 0.3 * x * z
    return (10.0 + 0.1 * t - 2.0 * x - infect + 5.0 * y, infect - 8.0 * y, 4.0 * y - 7.0 * z)


def kernel() -> float:
    """Fixed work: midpoint steps of a three-state ODE with tuple stages."""
    x, y, z, t, h = 1.0, 1.0, 1.0, 0.0, 1e-3
    weights = (0.5, 0.5)
    for _ in range(_STEPS):
        k1 = _f(t, x, y, z)
        k2 = _f(t + 0.5 * h, x + 0.5 * h * k1[0], y + 0.5 * h * k1[1], z + 0.5 * h * k1[2])
        ks = (k1, k2)
        x += h * sum(w * k[0] for w, k in zip(weights, ks))
        y += h * sum(w * k[1] for w, k in zip(weights, ks))
        z += h * sum(w * k[2] for w, k in zip(weights, ks))
        t += h
    return float(np.abs(np.array([x, y, z])).max())


class HostClock:
    """Kernel timings sampled through a run."""

    def __init__(self):
        self.times: list[float] = []  # when each sample ended
        self.kernels: list[list[float]] = []  # its kernel call times
        self._next = 0.0

    def sample(self) -> None:
        calls = []
        for _ in range(_CALLS_PER_SAMPLE):
            started = perf_counter()
            kernel()
            calls.append(perf_counter() - started)
        self.times.append(perf_counter())
        self.kernels.append(calls)
        self._next = self.times[-1] + _SAMPLE_EVERY_S

    def maybe_sample(self) -> None:
        """Sample when the last sample is older than the sampling interval."""
        if perf_counter() >= self._next:
            self.sample()

    def reference(self) -> "ReferenceTime":
        return ReferenceTime(self.times, self.kernels)


class ReferenceTime:
    """Maps ``perf_counter`` readings to seconds on the reference host."""

    def __init__(self, times, kernels):
        if not times or len(times) != len(kernels):
            raise ValueError("need at least one calibration sample per time")
        self.kernel_s = statistics.median(k for calls in kernels for k in calls)
        self._knots = list(times)
        if len(times) == 1:
            self._scales = [REFERENCE_S / statistics.median(kernels[0])]
        else:
            self._scales = [
                REFERENCE_S / statistics.median(a + b) for a, b in zip(kernels, kernels[1:])
            ]
        self._at_knot = [self._knots[0]]
        for j, scale in enumerate(self._scales[: len(self._knots) - 1]):
            self._at_knot.append(self._at_knot[-1] + (self._knots[j + 1] - self._knots[j]) * scale)

    def __call__(self, t: float) -> float:
        j = bisect.bisect_right(self._knots, t) - 1
        if j < 0:
            return self._at_knot[0] - (self._knots[0] - t) * self._scales[0]
        scale = self._scales[min(j, len(self._scales) - 1)]
        return self._at_knot[j] + (t - self._knots[j]) * scale

    def duration(self, start: float, end: float) -> float:
        return self(end) - self(start)
