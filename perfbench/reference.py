"""Fixed reference kernels that track the machine's speed during a run.

On a shared machine the speed of a core drifts by 20-40% over tens of
seconds (other tenants, frequency), which swamps the run-to-run differences
a benchmark should resolve.  The benchmark therefore times a reference
kernel every ``INTERVAL_S`` between units and reports each unit's time
scaled to a nominal speed: ``seconds * NOMINAL_S[kind] / kernel time at that
moment``.  The kernels are fixed benchmark code and never call seqfdr, so a
change to the program moves the scaled times exactly as it moves the raw
ones.

Interpreter-bound and bulk-array code slow down by different amounts under
the same contention, so there are two kernels, and each workload is scaled
by the one that does its kind of work (``KERNEL_OF``; the runs that chose
it are in ``results/kernels.json``):

* ``interpreter`` -- a Python loop over ten small streams doing what the
  per-trial pipeline does: append a block, cumulative sum, piecewise-linear
  map, a crossing test, then order ten values;
* ``bulk`` -- normal draws, a cumulative sum and a threshold count over a
  100k-element array, as in the calibration and fixed-sample code.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# each kernel's median time on the machine the benchmark was defined on
# (2 vCPU, numpy 2.4); scaled times are "seconds at this speed"
NOMINAL_S = {"interpreter": 0.003, "bulk": 0.003}
# how often the kernel is timed, at most, between units
INTERVAL_S = 0.2
KERNEL_OF = {"sim_cells": "interpreter", "wide_monitoring": "interpreter",
             "fss_search": "bulk", "calibration": "bulk"}
# set-up on every workload is scaled by this kernel: set-up is mostly process
# start and imports (page faults, unmarshalling), memory traffic that tracked
# the bulk kernel better than the interpreter one (results/kernels.json)
SETUP_KIND = "bulk"


class SpeedProbe:
    """Timestamps of kernel timings, interpolated at each unit's midpoint."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self._kernel = {"interpreter": self._interpreter, "bulk": self._bulk}[kind]
        self._blocks = [rng.integers(0, 2, 16).astype(float) for _ in range(10)]
        self._knots = np.sort(rng.standard_normal(20))
        self._values = np.cumsum(rng.random(20))
        # preallocated, so the bulk kernel does not time page faults of fresh buffers
        self._z = np.empty(100_000)
        self._c = np.empty(100_000)
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        for _ in range(5):  # first calls run cold; keep them out of the samples
            self._kernel()

    def _interpreter(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            paths = [np.empty(0) for _ in self._blocks]
            last = np.zeros(len(self._blocks))
            for _ in range(4):
                for j, block in enumerate(self._blocks):
                    seg = last[j] + np.cumsum(block)
                    last[j] = float(seg[-1])
                    seg = np.interp(seg, self._knots, self._values)
                    if ((seg <= -3.0) | (seg >= 3.0)).any():
                        last[j] = 0.0
                    paths[j] = np.concatenate([paths[j], seg])
            vals = np.array([float(p[-1]) for p in paths])
            order = np.lexsort((np.arange(vals.size), vals))
            [int(i) for i in order]
        return time.perf_counter() - start

    def _bulk(self) -> float:
        start = time.perf_counter()
        np.random.default_rng(1).standard_normal(out=self._z)
        np.cumsum(self._z, out=self._c).max()
        int((self._z < 0.3).sum())
        return time.perf_counter() - start

    def sample(self) -> None:
        """Time the kernel three times and keep the median."""
        value = statistics.median(self._kernel() for _ in range(3))
        self.times.append(time.perf_counter())
        self.kernel_s.append(value)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, at: float) -> float:
        """Factor that turns raw seconds at time ``at`` into nominal seconds."""
        return NOMINAL_S[self.kind] / float(np.interp(at, self.times, self.kernel_s))
