"""Desk-scale training: losses, AdamW, the full-sequence
backpropagation driver, and the finite-difference gradient checker.

Training is deterministic given the seed: identical seed and config give
bitwise identical parameter trajectories. The step-size clamp inside the
attention stays off the gradient tape by construction. A run writes its
directory: ``best/`` (the checkpoint of the best validation metric so
far), then ``history.csv`` (one row per epoch) and ``final/`` (the last
weights). A NaN loss aborts the run with a diagnostic dump of the gate
traces from a deterministic re-run of the failing batch into
``diverged_gate_traces/``.
"""

from __future__ import annotations

import csv
import numbers
import os
from dataclasses import dataclass

import numpy as np

from fluid import model as M
from fluid import tensor as T
from fluid.attention import check_at_least, check_types
from fluid.tensor import Tensor


LOSSES = ("mae", "mse")      # the loss kinds, also the validation metrics


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the directory of the gate-trace dump."""

    def __init__(self, message, dump_path):
        super().__init__(message)
        self.dump_path = dump_path


@dataclass
class TrainConfig:
    lr: float = 1e-3
    betas: tuple = (0.9, 0.999)
    weight_decay: float = 0.0
    epochs: int = 10
    batch_size: int = 8
    loss: str = "mse"                 # one of LOSSES
    metric: str = "mae"               # one of LOSSES
    seed: int = 0
    grad_clip: float = 1.0

    def __post_init__(self):
        check_types(self, numbers.Real, "a number", "lr weight_decay grad_clip")
        check_types(self, numbers.Integral, "an integer", "epochs batch_size seed")
        if not (isinstance(self.betas, (list, tuple)) and len(self.betas) == 2
                and all(isinstance(b, numbers.Real) and not isinstance(b, bool)
                        for b in self.betas)):
            raise ValueError(f"betas must be two numbers, not {self.betas!r}")
        self.betas = tuple(self.betas)
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= self.betas[0] < 1 and 0 <= self.betas[1] < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.loss not in LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.metric not in LOSSES:
            raise ValueError(f"unknown metric {self.metric!r}")
        check_at_least(self, 1, "batch_size")
        check_at_least(self, 0, "epochs seed weight_decay grad_clip")


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

def loss(kind: str, pred: Tensor, target: np.ndarray,
         mask: np.ndarray | None = None) -> Tensor:
    """Mean squared (mse) or absolute (mae) error per element over the
    unmasked positions. One tape op takes the unmasked errors in order and
    scatters their gradient back, so the average, and its last bits, do
    not depend on how wide the padded arrays are."""
    if kind not in LOSSES:
        raise ValueError(f"unknown loss kind {kind!r}")
    diff = T.sub(pred, Tensor(np.asarray(target, dtype=float)))
    err = T.mul(diff, diff) if kind == "mse" else T.absolute(diff)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        keep = np.broadcast_to(
            mask.reshape(mask.shape + (1,) * (err.ndim - mask.ndim)), err.shape)

        def scatter(g):
            out = np.zeros(keep.shape)
            out[keep] = g
            return (out,)

        err = T._node(err.data[keep], (err,), scatter)
    if err.size == 0:
        raise ValueError("loss mask excludes every element")
    return T.tsum(T.mul(err, Tensor(1.0 / err.size)))


# --------------------------------------------------------------------------
# AdamW
# --------------------------------------------------------------------------

def init_opt_state(params: dict) -> dict:
    return {"t": 0,
            "m": {k: np.zeros_like(p.data) for k, p in params.items()},
            "v": {k: np.zeros_like(p.data) for k, p in params.items()}}


def adamw_step(params: dict, state: dict, cfg: TrainConfig):
    """Decoupled weight decay: p <- p - lr*(m_hat/(sqrt(v_hat)+1e-8) + wd*p)."""
    b1, b2 = cfg.betas
    state["t"] += 1
    t = state["t"]
    for name, p in params.items():
        if p.grad is None:
            continue
        g = p.grad
        m = state["m"][name]
        v = state["v"][name]
        m[...] = b1 * m + (1 - b1) * g
        v[...] = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p.data[...] = p.data - cfg.lr * (m_hat / (np.sqrt(v_hat) + 1e-8)
                                         + cfg.weight_decay * p.data)


def clip_global_norm(params: dict, max_norm: float) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad ** 2).sum())
    norm = np.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale
    return float(norm)


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------

def _forward_batch(model, data, sel, collect=None) -> Tensor:
    mask = data.get("mask")
    return model.forward(values=data["values"][sel],
                         times=data["times"][sel],
                         query_times=data["query_times"][sel],
                         mask=None if mask is None else mask[sel],
                         collect=collect)


def _dump_gate_traces(model, data, sel, out_dir) -> str:
    """The gate trajectories of every attention block on one batch, one
    CSV each in out_dir/diverged_gate_traces: enc.attn, dec.self and
    dec.cross (later layers add their index, as in enc.attn.1). Returns
    the directory."""
    collect: dict = {}
    with T.no_grad():
        _forward_batch(model, data, sel, collect=collect)
    path = os.path.join(out_dir, "diverged_gate_traces")
    os.makedirs(path, exist_ok=True)
    for name, block in (("enc.attn", collect), ("dec.self", collect.get("self", {})),
                        ("dec.cross", collect.get("cross", {}))):
        for i, traj in enumerate(block.get("trajectories", [])):
            traj.to_csv(os.path.join(path, name + (f".{i}" if i else "") + ".csv"))
    return path


def evaluate(model, data, metric: str) -> float:
    """The mean mae or mse of the model's predictions over the whole data."""
    with T.no_grad():
        pred = _forward_batch(model, data, slice(None))
        return loss(metric, pred, data["targets"], data.get("target_mask")).item()


def train(model, train_data: dict, val_data: dict, cfg: TrainConfig,
          out_dir: str) -> list[dict]:
    """Full-sequence backprop over minibatches; returns the epoch history.

    Validates every epoch and saves the checkpoint of the best validation
    metric so far into out_dir/best. At the end writes the history to
    out_dir/history.csv and the last weights to out_dir/final.
    History rows: {"epoch", "train_loss", "val_metric"}.
    """
    n = train_data["values"].shape[0]
    if n == 0:
        raise ValueError(f"training data holds no sequence "
                         f"({val_data['values'].shape[0]} held out for "
                         "validation)")
    params = model.parameters()
    state = init_opt_state(params)
    rng = np.random.default_rng(cfg.seed)
    history: list[dict] = []
    best = np.inf

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            pred = _forward_batch(model, train_data, sel)
            tmask = train_data.get("target_mask")
            batch_loss = loss(cfg.loss, pred, train_data["targets"][sel],
                              None if tmask is None else tmask[sel])
            value = batch_loss.item()
            if not np.isfinite(value):
                dump = _dump_gate_traces(model, train_data, sel, out_dir)
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}", dump)
            for p in params.values():
                p.zero_grad()
            batch_loss.backward()
            clip_global_norm(params, cfg.grad_clip)
            adamw_step(params, state, cfg)
            epoch_losses.append(value)

        vm = evaluate(model, val_data, cfg.metric)
        history.append({"epoch": epoch,
                        "train_loss": float(np.mean(epoch_losses)),
                        "val_metric": vm})
        if vm < best:
            best = vm
            M.save_checkpoint(model, os.path.join(out_dir, "best"))

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "history.csv"), "w", newline="") as fh:
        w = csv.DictWriter(fh, ["epoch", "train_loss", "val_metric"])
        w.writeheader()
        w.writerows(history)
    M.save_checkpoint(model, os.path.join(out_dir, "final"))
    return history


# --------------------------------------------------------------------------
# gradient checking
# --------------------------------------------------------------------------

def grad_check(fn, params: dict, max_entries_per_param: int | None = None,
               seed: int = 0) -> dict:
    """Central differences (f(x+h)-f(x-h))/2h against the tape gradients.

    fn() must rebuild the graph and return a scalar Tensor. Large
    parameters can be subsampled via max_entries_per_param. Returns
    {"max_rel_error", "per_param"}.
    """
    h = 1e-5
    for p in params.values():
        p.zero_grad()
    root = fn()
    root.backward()
    analytic = {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for k, p in params.items()}

    rng = np.random.default_rng(seed)
    per_param = {}
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        idxs = np.arange(flat.size)
        if max_entries_per_param is not None and flat.size > max_entries_per_param:
            idxs = rng.choice(flat.size, size=max_entries_per_param,
                              replace=False)
        a_flat = analytic[name].reshape(-1)
        err = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            fp = fn().item()
            flat[i] = orig - h
            fm = fn().item()
            flat[i] = orig
            numeric = (fp - fm) / (2 * h)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-6)
            err = max(err, abs(a_flat[i] - numeric) / denom)
        per_param[name] = err
        worst = max(worst, err)
    return {"max_rel_error": worst, "per_param": per_param}
