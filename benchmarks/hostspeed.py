"""A fixed reference computation that tracks the speed of the host over time.

The machines this benchmark runs on share their cores with other work, and
a core's speed drifts by about 20% over minutes as that work comes and goes.
Every glmamp timing gets the drift, so medians of runs a few minutes apart
disagree by more than any change worth measuring.  ``HostProbe`` times a
fixed mix of numpy work that does not touch glmamp -- elementwise special
functions, matrix-vector products with a matrix larger than the caches, a
dense einsum and a loop of tiny array operations, the four kinds of work
the workloads do -- before and after every timed interval.  Dividing an
interval by the mean of the two probes around it cancels the drift;
multiplying by a fixed nominal probe time keeps the unit of seconds.  The
raw timings and the probe times are reported beside the corrected ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.special import log_ndtr


class HostProbe:
    def __init__(self, nominal_s: float):
        rng = np.random.default_rng(20190410)  # fixed: the probe never depends on --seed
        self.nominal_s = nominal_s
        self.z = rng.standard_normal((64, 2048))
        self.a = rng.standard_normal((2048, 1024))
        self.x = rng.standard_normal(1024)
        self.b = rng.standard_normal((768, 96))
        self.cov = np.cov(rng.standard_normal((96, 200)))
        self.v = rng.standard_normal(16)
        self.samples: list[float] = []

    def measure(self) -> float:
        """Time one run of the reference mix; kept in ``samples``."""
        start = perf_counter()
        for _ in range(2):
            w = np.exp(log_ndtr(0.7 * self.z + 0.1))
            (w * self.z).sum(axis=0)
        for _ in range(6):
            self.a.T @ (self.a @ self.x)
        np.einsum("ij,jk,ik->i", self.b, self.cov, self.b)
        for _ in range(1500):
            float(np.sum(np.maximum(0.5 * self.v + 1.0, 1e-12)))
        seconds = perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def scale(self, k: int) -> float:
        """Correction for the interval between probe ``k`` and probe ``k + 1``."""
        return self.nominal_s / (0.5 * (self.samples[k] + self.samples[k + 1]))
