"""Runtime and memory benchmark for the attention path.

Times strictly sequential forward passes of one encoder layer (attention
plus feed-forward) in inference mode and reports the paper-style column
set: run-time per pass, throughput in sequences per second, and the peak
bytes of one extra pass as measured by ``tracemalloc``, which sees every
numpy buffer. The traced pass runs after the timed ones, so tracing adds
nothing to the times. ``bench`` returns the report as one dict, which
``fluid bench`` prints as a CSV row and as JSON.
"""

from __future__ import annotations

import numbers
import os
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from fluid import attention as A
from fluid import model as M
from fluid import tensor as T
from fluid.tensor import Tensor


@dataclass
class BenchDims:
    d_model: int = 64
    heads: int = 4
    batch: int = 1
    seq_len: int = 1024
    top_k: int | None = None
    euler_steps: int = 5
    ffn_dim: int = 128
    seed: int = 0

    def __post_init__(self):
        sizes = ("d_model heads batch seq_len euler_steps ffn_dim"
                 + " top_k" * (self.top_k is not None))
        A.check_types(self, numbers.Integral, "an integer", sizes + " seed")
        A.check_at_least(self, 1, sizes)
        A.check_at_least(self, 0, "seed")


def default_model_factory(dims: BenchDims):
    """One encoder layer over a random embedded batch; returns a thunk."""
    lan = A.LanConfig(d_model=dims.d_model, heads=dims.heads,
                      euler_steps=dims.euler_steps, top_k=dims.top_k,
                      sink_gate_enabled=True, causal=False)
    cfg = M.ModelConfig(lan=lan, n_layers=1, ffn_dim=dims.ffn_dim,
                        in_features=1, out_dim=1,
                        max_len=max(dims.seq_len, 1), seed=dims.seed)
    layer = M.EncoderLayer(cfg, np.random.default_rng(dims.seed))
    x = Tensor(np.random.default_rng(dims.seed + 1).standard_normal(
        (dims.batch, dims.seq_len, dims.d_model)))

    def forward():
        with T.no_grad():
            layer.forward(x)

    return forward


def bench(dims: BenchDims, reps: int = 10) -> dict:
    """Warm up once, time `reps` sequential passes, then trace one more.

    Returns the report: the mean and spread of the pass times, throughput,
    traced peak, the dims, and what the times depend on beyond the dims.
    """
    if reps < 3:
        raise ValueError("need reps >= 3 plus warmup for stable statistics")
    forward = default_model_factory(dims)
    forward()  # warmup
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        forward()
        times.append(time.perf_counter() - t0)
    peak = peak_bytes(forward)

    times = np.asarray(times)
    return {"run_time_s": float(times.mean()),
            "run_time_std_s": float(times.std()),
            "throughput_seq_per_s": dims.batch * reps / float(times.sum()),
            "peak_memory_mb": peak / 1e6,
            "reps": reps,
            "dims": dims.__dict__.copy(),
            "gate_workers": A.gate_workers(),
            "cpu_count": os.cpu_count(),
            "numpy_version": np.__version__}


def peak_bytes(fn) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated during one ``fn()``."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
