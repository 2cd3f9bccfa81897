"""A fixed numpy workload that gauges how fast the machine runs right now.

On a shared machine the wall time of the same unit swings by 20% and more,
in phases that last from seconds to many minutes, with the load of other
tenants. The benchmark runs this probe right after every unit and every
set-up and reports times in the probe's time base: a duration ``d``
measured next to a probe run of ``p`` seconds counts as
``d * PROBE_S / p``. The probe never calls ``fluid``, so no change to the
program moves it; a change that makes a unit faster lowers its calibrated
time just as it lowers its wall time.

The three parts of the probe mirror the kinds of work on the measured
path: a stable argsort of a large score array (pair curation), a gated
recurrence over many rows (the gate unroll), and a Python loop of small
array ops (the autograd tape).
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# about the probe's median wall time on a 2-core x86-64 machine (numpy 2.4.6,
# OpenBLAS on one thread); it fixes the scale of calibrated seconds
PROBE_S = 0.08


class Probe:
    def __init__(self):
        rng = np.random.default_rng(20261017)
        self.scores = rng.standard_normal((4, 128, 1024))
        self.rows = rng.standard_normal((32768, 16))
        self.weight = rng.standard_normal((16, 16)) * 0.3
        self.small = rng.standard_normal((3, 8, 16))

    def run(self) -> float:
        """Runs the probe once; returns its wall seconds."""
        t0 = time.perf_counter()
        np.argsort(-self.scores, axis=-1, kind="stable")
        h = np.zeros_like(self.rows)
        for _ in range(5):
            h = np.tanh(self.rows @ self.weight + h @ self.weight)
            1.0 / (1.0 + np.exp(-h))
        a, b, c = self.small
        for _ in range(4000):
            x = a * b + c
            a, b = b, np.tanh(x) @ self.weight
            float(x.max())
        return time.perf_counter() - t0


def calibrated(times: list[float], probes: list[float]) -> float:
    """Median of the durations ``times`` in the probe's time base, each
    scaled by the probe run that followed it."""
    return PROBE_S * median(t / p for t, p in zip(times, probes))
