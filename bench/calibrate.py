"""Host-speed calibration: a fixed kernel timed beside the work it scales.

The benchmark's host is shared, and its speed drifts by a third over
minutes: every core the benchmark gets runs beside other tenants' work.
A median over one run averages the fast jitter but not that drift, so
the benchmark times a fixed kernel, shaped like the ensemble step
(complex arrays of the workload's width, a Philox normal draw per step,
a midpoint drift and a finite-and-bounded guard), before each timed
operation (unless one ended less than STALE_S ago) and after the last
one.  An operation's scaled time is

    seconds x REFERENCE_S[width] / (mean of the two kernels bracketing it),

the time it would take on a host where the kernel takes
``REFERENCE_S[width]``.  A slower program is slower in scaled time just
as in raw time; only the host's speed cancels.  The kernel is part of the
benchmark and never changes with ``sfgsim``.
"""

import statistics
from time import perf_counter

import numpy as np

# kernel steps per array width: about 50 ms each on the reference host
STEPS = {256: 600, 16384: 14}
# seconds the kernel takes on the reference host (a shared 2-core x86-64
# KVM guest, Python 3.11, numpy 2.4, in a quiet stretch)
REFERENCE_S = {256: 0.050, 16384: 0.050}
# an operation starting later than this after the last kernel gets a fresh one
STALE_S = 0.25


def kernel(width):
    """Seconds one fixed run of the calibration kernel takes."""
    rng = np.random.Generator(np.random.Philox(key=20071130))
    dt, g = 1e-4, 1e-3
    a = np.full((3, width), 1.0 + 0.5j)
    t0 = perf_counter()
    for _ in range(STEPS[width]):
        w = rng.standard_normal((4, width))
        mid = a.copy()
        for _ in range(2):        # semi-implicit midpoint: two drift iterations
            d = np.empty_like(a)
            d[0] = -mid[0] + g * np.conj(mid[1]) * mid[2]
            d[1] = -mid[1] + g * np.conj(mid[0]) * mid[2]
            d[2] = -mid[2] - g * mid[0] * mid[1] + 1.0
            mid = a + 0.5 * dt * d
        a = a + dt * d + np.sqrt(dt) * g * (w[:3] + 1j * w[3])
        alive = np.isfinite(a).all(axis=0) & (np.abs(a) < 1e6).all(axis=0)
        a[:, ~alive] = 0.0
    return perf_counter() - t0


class Clock:
    """Times operations and scales each by the two kernels bracketing it.

    ``width=None`` times without calibrating (scaled equals raw), for
    recording references and for the tests.
    """

    def __init__(self, width=None):
        self.width = width
        self.kernels = []          # seconds of each kernel run
        self.ops = []              # (seconds, index of the last kernel before it)
        self._last = None          # perf_counter at the end of the last kernel

    def _calibrate(self):
        self.kernels.append(kernel(self.width))
        self._last = perf_counter()

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` and time it; exceptions propagate untimed."""
        if self.width and (self._last is None or perf_counter() - self._last > STALE_S):
            self._calibrate()
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        self.ops.append((perf_counter() - t0, len(self.kernels) - 1))
        return result

    def close(self):
        """Time the kernel after the last operations."""
        if self.width and self.ops and self.ops[-1][1] == len(self.kernels) - 1:
            self._calibrate()

    def total(self, lo, hi):
        """(raw, scaled) seconds of operations ``lo`` to ``hi - 1``; call after close()."""
        raw = scaled = 0.0
        for seconds, k in self.ops[lo:hi]:
            raw += seconds
            if self.width:
                host = statistics.fmean(self.kernels[k:k + 2])
                seconds *= REFERENCE_S[self.width] / host
            scaled += seconds
        return raw, scaled
