"""Workloads of the whole-system benchmark and the check on their outputs.

Each workload is built from a seed and exposes ``unit(step)``, one unit of
work through the public API of ``fluid``, returning the values the output
check compares, and ``digest(out)``, the fingerprint of those values that
the stored references hold. Units are periodic with period ``cycle``: unit
``step`` is expected to reproduce the stored reference at ``step % cycle``.
Training restores its initial weights and optimizer state after every
cycle, so a run of any length checks every step against a recorded one.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from fluid import attention as A
from fluid import data as D
from fluid import model as M
from fluid import tensor as T
from fluid import training as TR

REL_TOL = 1e-9
REFS_PATH = Path(__file__).resolve().parent / "refs.json"

# dims of each workload; "tiny" shrinks them for the smoke tests
INFER_DIMS = dict(d_model=64, heads=4, euler_steps=5, ffn_dim=128)
INFER_TINY = dict(d_model=8, heads=2, euler_steps=2, ffn_dim=8)
TRAIN_DIMS = dict(n_spirals=64, n_subsample=50, batch=8, cond_len=35,
                  query_len=26, d_model=32, heads=4, euler_steps=5,
                  ffn_dim=32, streams=2)
TRAIN_TINY = dict(n_spirals=8, n_subsample=12, batch=4, cond_len=8,
                  query_len=6, d_model=8, heads=2, euler_steps=2,
                  ffn_dim=8, streams=2)


class InferLayer:
    """One ``EncoderLayer`` forward pass under ``no_grad`` on a fixed input.

    The layer is the one ``fluid bench`` times: sink gate on, residual
    connections, batch 1. Weights and input come from two streams of the
    seed.
    """

    cycle = 1

    def __init__(self, seed: int, seq_len: int, top_k: int | None,
                 d_model: int, heads: int, euler_steps: int, ffn_dim: int):
        lan = A.LanConfig(d_model=d_model, heads=heads,
                          euler_steps=euler_steps, top_k=top_k,
                          sink_gate_enabled=True, causal=False)
        cfg = M.ModelConfig(lan=lan, n_layers=1, ffn_dim=ffn_dim,
                            in_features=1, out_dim=1, max_len=seq_len)
        self.layer = M.EncoderLayer(cfg, np.random.default_rng([seed, 0]))
        self.x = T.Tensor(np.random.default_rng([seed, 1]).standard_normal(
            (1, seq_len, d_model)))

    def parameters(self) -> dict:
        return self.layer.parameters()

    def reset(self):
        pass

    def unit(self, step: int) -> np.ndarray:
        with T.no_grad():
            return self.layer.forward(self.x).data

    def digest(self, out: np.ndarray) -> list[float]:
        return project(out)


def fit_widths(data: dict, cond_len: int, query_len: int) -> dict:
    """Pad or cut packed spiral arrays to fixed slot counts.

    ``spiral_arrays`` sizes the arrays to the longest sequence of the set,
    which varies with the seed; fixed widths keep the work per unit the same
    for every seed. Cut sequences lose their latest points; padded query
    slots repeat the row's last timestamp, as ``spiral_arrays`` does.
    """
    out = {}
    for key, arr in data.items():
        width = cond_len if key in ("values", "times", "mask") else query_len
        arr = arr[:, :width]
        extra = width - arr.shape[1]
        if extra > 0:
            if key == "query_times":
                pad = np.repeat(arr[:, -1:], extra, axis=1)
            else:
                pad = np.zeros((arr.shape[0], extra) + arr.shape[2:], arr.dtype)
            arr = np.concatenate([arr, pad], axis=1)
        out[key] = np.ascontiguousarray(arr)
    return out


class TrainSpiral:
    """One AdamW training step of ``FluidModel`` on irregular spirals.

    The unit is forward, masked MSE loss, backward, global-norm clip and
    AdamW. Batches run in index order; after one epoch the weights and the
    optimizer state return to their initial values.
    """

    def __init__(self, seed: int, n_spirals: int, n_subsample: int,
                 batch: int, cond_len: int, query_len: int, d_model: int,
                 heads: int, euler_steps: int, ffn_dim: int, streams: int):
        seqs = D.generate_spirals(D.SpiralSpec(
            n_spirals=n_spirals, n_subsample=n_subsample, seed=seed))
        self.data = fit_widths(D.spiral_arrays(seqs), cond_len, query_len)
        lan = A.LanConfig(d_model=d_model, heads=heads,
                          euler_steps=euler_steps)
        cfg = M.ModelConfig(lan=lan, n_layers=1, ffn_dim=ffn_dim,
                            hc_mode="liquid", hc_streams=streams,
                            in_features=2, out_dim=2,
                            max_len=max(cond_len, query_len), seed=seed)
        self.model = M.FluidModel(cfg)
        self.params = self.model.parameters()
        self.initial = {k: p.data.copy() for k, p in self.params.items()}
        self.tcfg = TR.TrainConfig(batch_size=batch)
        self.batch = batch
        self.cycle = n_spirals // batch
        self.reset()

    def parameters(self) -> dict:
        return self.params

    def reset(self):
        for name, p in self.params.items():
            p.data[...] = self.initial[name]
            p.zero_grad()
        self.opt = TR.init_opt_state(self.params)

    def unit(self, step: int) -> np.ndarray:
        """Returns [loss, gradient norm, predictions...]."""
        i = step % self.cycle
        sel = slice(i * self.batch, (i + 1) * self.batch)
        d = self.data
        pred = self.model.forward(d["values"][sel], d["times"][sel],
                                  d["query_times"][sel], mask=d["mask"][sel])
        loss = TR.loss("mse", pred, d["targets"][sel], d["target_mask"][sel])
        for p in self.params.values():
            p.zero_grad()
        loss.backward()
        norm = TR.clip_global_norm(self.params, self.tcfg.grad_clip)
        TR.adamw_step(self.params, self.opt, self.tcfg)
        return np.concatenate([[loss.item(), norm], pred.data.reshape(-1)])

    def digest(self, out: np.ndarray) -> list[float]:
        """The loss and the gradient norm exactly, then the predictions."""
        return [float(out[0]), float(out[1])] + project(out[2:])


WORKLOADS = {
    # every pair valid; the gate unroll dominates
    "infer_full_t256": lambda seed, tiny: InferLayer(
        seed, seq_len=16 if tiny else 256, top_k=None,
        **(INFER_TINY if tiny else INFER_DIMS)),
    # few pairs kept out of many scored; pair curation is half the pass
    "infer_topk_t1024": lambda seed, tiny: InferLayer(
        seed, seq_len=32 if tiny else 1024, top_k=4 if tiny else 32,
        **(INFER_TINY if tiny else INFER_DIMS)),
    # the only workload with a tape, masks, hyper-connections and AdamW
    "train_spiral": lambda seed, tiny: TrainSpiral(
        seed, **(TRAIN_TINY if tiny else TRAIN_DIMS)),
}


def make(name: str, seed: int, tiny: bool = False):
    return WORKLOADS[name](seed, tiny)


# --------------------------------------------------------------------------
# output check
# --------------------------------------------------------------------------

_PROJECTIONS: dict[int, np.ndarray] = {}


def project(out: np.ndarray) -> list[float]:
    """Eight fixed random projections of an output: a compact fingerprint
    for the stored references that moves when any entry moves."""
    flat = out.reshape(-1)
    if flat.size not in _PROJECTIONS:
        _PROJECTIONS[flat.size] = np.random.default_rng(20261017).standard_normal(
            (8, flat.size))
    return [float(p) for p in _PROJECTIONS[flat.size] @ flat]


def mismatch(got: list[float], want: list[float]) -> bool:
    """Any entry off by more than REL_TOL relative (1e-12 near zero)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return True
    return bool((np.abs(got - want) > REL_TOL * np.abs(want) + 1e-12).any())


def load_refs(path: Path = REFS_PATH) -> dict:
    """{workload: {seed: [digest per step of the cycle]}}."""
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)


class OutputCheck:
    """Judges every unit: it must not raise, must be finite, must match the
    stored reference for this seed when one exists, and must match the
    first output this run produced for the same step of the cycle."""

    def __init__(self, workload, reference: list[list[float]] | None):
        self.digest = workload.digest
        self.cycle = workload.cycle
        self.reference = reference
        self.seen: dict[int, list[float]] = {}

    def failure(self, step: int, out: np.ndarray) -> str | None:
        """None when the output is correct, otherwise the reason."""
        if not np.all(np.isfinite(out)):
            return "non-finite output"
        i = step % self.cycle
        d = self.digest(out)
        if self.reference is not None and mismatch(d, self.reference[i]):
            return f"step {i} departs from the stored reference"
        if i in self.seen and mismatch(d, self.seen[i]):
            return f"step {i} departs from its first run"
        self.seen.setdefault(i, d)
        return None
