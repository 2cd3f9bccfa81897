"""Desk-scale training: losses, optimizers, the full-sequence
backpropagation driver, and the finite-difference gradient checker.

Training is deterministic given the seed: identical seed and config give
bitwise identical parameter trajectories. The step-size clamp inside the
attention stays off the gradient tape by construction. A NaN loss aborts
the run with a diagnostic dump of the gate traces from a deterministic
re-run of the failing batch.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from fluid import model as M
from fluid import tensor as T
from fluid.attention import check_at_least, check_types
from fluid.tensor import Tensor


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries the directory of the gate-trace dump."""

    def __init__(self, message, dump_path=None):
        super().__init__(message)
        self.dump_path = dump_path


@dataclass
class TrainConfig:
    optimizer: str = "adamw"          # adamw | sgd
    lr: float = 1e-3
    betas: tuple = (0.9, 0.999)
    weight_decay: float = 0.0
    epochs: int = 10
    batch_size: int = 8
    loss: str = "mse"                 # mse | mae
    metric: str = "mae"               # mae | mse
    seed: int = 0
    grad_clip: float = 1.0

    def __post_init__(self):
        check_types(self, numbers.Real, "a number", "lr weight_decay grad_clip")
        check_types(self, numbers.Integral, "an integer", "epochs batch_size seed")
        if not (isinstance(self.betas, (list, tuple)) and len(self.betas) == 2
                and all(isinstance(b, numbers.Real) for b in self.betas)):
            raise ValueError(f"betas must be two numbers, not {self.betas!r}")
        self.betas = tuple(self.betas)
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= self.betas[0] < 1 and 0 <= self.betas[1] < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.optimizer not in ("adamw", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.loss not in ("mse", "mae"):
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.metric not in ("mae", "mse"):
            raise ValueError(f"unknown metric {self.metric!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        check_at_least(self, 0, "seed")


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

def _mask_weights(shape, mask) -> np.ndarray:
    """Per-element averaging weights honoring a position mask."""
    if mask is None:
        flat = np.ones(shape, dtype=float)
    else:
        mask = np.asarray(mask, dtype=bool)
        flat = np.broadcast_to(mask.reshape(mask.shape + (1,) * (len(shape) - mask.ndim)),
                               shape).astype(float)
    n = flat.sum()
    if n == 0:
        raise ValueError("loss mask excludes every element")
    return flat / n


def loss(kind: str, pred: Tensor, target: np.ndarray,
         mask: np.ndarray | None = None) -> Tensor:
    """Mean squared (mse) or absolute (mae) error per element over the
    unmasked positions."""
    if kind == "mse":
        diff = T.sub(pred, Tensor(np.asarray(target, dtype=float)))
        w = _mask_weights(pred.shape, mask)
        return T.tsum(T.mul(T.mul(diff, diff), Tensor(w)))
    if kind == "mae":
        diff = T.sub(pred, Tensor(np.asarray(target, dtype=float)))
        w = _mask_weights(pred.shape, mask)
        return T.tsum(T.mul(T.absolute(diff), Tensor(w)))
    raise ValueError(f"unknown loss kind {kind!r}")


def metric_value(kind: str, pred: np.ndarray, target: np.ndarray,
                 mask: np.ndarray | None = None) -> float:
    if kind not in ("mae", "mse"):
        raise ValueError(f"unknown metric {kind!r}")
    pred = np.asarray(pred)
    target = np.asarray(target, dtype=float)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        pred, target = pred[mask], target[mask]
    err = pred - target
    return float(np.abs(err).mean() if kind == "mae" else (err ** 2).mean())


# --------------------------------------------------------------------------
# optimizers
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


def sgd_step(params: dict, state: dict, cfg: TrainConfig):
    for p in params.values():
        if p.grad is not None:
            p.data[...] = p.data - cfg.lr * p.grad


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


def _dump_gate_traces(model, data, sel, out_dir) -> str | None:
    """The gate trajectories of every attention block on one batch, one
    CSV each in out_dir/diverged_gate_traces: enc.attn, dec.self and
    dec.cross (later layers add their index, as in enc.attn.1). Returns
    the directory, or None without ``out_dir``."""
    if out_dir is None:
        return None
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
    with T.no_grad():
        pred = _forward_batch(model, data, slice(None))
    return metric_value(metric, pred.data, data["targets"],
                        data.get("target_mask"))


def train(model, train_data: dict, val_data: dict | None, cfg: TrainConfig,
          out_dir: str | None = None) -> list[dict]:
    """Full-sequence backprop over minibatches; returns the epoch history.

    Saves the best-validation-metric checkpoint into out_dir when given.
    History rows: {"epoch", "train_loss", "val_metric"}.
    """
    params = model.parameters()
    state = init_opt_state(params)
    step_fn = adamw_step if cfg.optimizer == "adamw" else sgd_step
    rng = np.random.default_rng(cfg.seed)
    n = train_data["values"].shape[0]
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
            step_fn(params, state, cfg)
            epoch_losses.append(value)

        row = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
        if val_data is not None:
            vm = evaluate(model, val_data, cfg.metric)
            row["val_metric"] = vm
            if vm < best:
                best = vm
                if out_dir is not None:
                    M.save_checkpoint(model, os.path.join(out_dir, "best"))
        history.append(row)
    return history


def write_history_csv(path: str, history: list[dict]):
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_loss", "val_metric"])
        for row in history:
            w.writerow([row["epoch"], row["train_loss"],
                        row.get("val_metric", "")])


# --------------------------------------------------------------------------
# gradient checking
# --------------------------------------------------------------------------

def grad_check(fn, params: dict, h: float = 1e-5,
               max_entries_per_param: int | None = None,
               seed: int = 0) -> dict:
    """Central differences (f(x+h)-f(x-h))/2h against the tape gradients.

    fn() must rebuild the graph and return a scalar Tensor. Large
    parameters can be subsampled via max_entries_per_param. Returns
    {"max_rel_error", "per_param"}.
    """
    if h <= 0:
        raise ValueError("h must be positive")
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
