"""Query-key pair curation and per-pair feature sums.

Two strategies: full pairwise, and sparse Top-K selection by raw
dot-product score (no 1/sqrt(d) scaling on the selection scores).
Masking is applied to the scores before selection, so future keys can
never enter the pair set under causal masking; rows left with fewer than
K_eff candidates are padded with index 0 and marked invalid.

The gates see each pair through a linear projection of u = [q; k], so a
pair's input is a sum of one query feature and one key feature:
``pair_sum`` forms it without ever building u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fluid import tensor as T
from fluid.tensor import ShapeError, Tensor


@dataclass
class PairBatch:
    """The selected pairs of each query.

    selected_indices, valid_mask: [B,H,T_q,K_eff]. Invalid entries hold
    index 0; downstream softmax must exclude them via valid_mask. ``dense``
    marks the full pairwise batch, whose indices are arange(T_k) per row.
    """

    selected_indices: np.ndarray
    valid_mask: np.ndarray
    dense: bool = False

    @property
    def k_eff(self) -> int:
        return self.selected_indices.shape[3]


def _candidate_mask(B, H, T_q, T_k, causal: bool,
                    key_mask: np.ndarray | None) -> np.ndarray:
    valid = np.ones((B, H, T_q, T_k), dtype=bool)
    if causal:
        valid &= (np.arange(T_k)[None, :] <= np.arange(T_q)[:, None])[None, None]
    if key_mask is not None:
        key_mask = np.asarray(key_mask, dtype=bool)
        valid &= key_mask[:, None, None, :]
    return valid


def full_pairwise_concat(q: Tensor, k: Tensor, causal: bool = False,
                         key_mask: np.ndarray | None = None) -> PairBatch:
    """Every query paired with every key; K_eff == T_k."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"pair features disagree: q has {q.shape}, k has {k.shape}")
    B, H, T_q, D = q.shape
    T_k = k.shape[2]
    valid = _candidate_mask(B, H, T_q, T_k, causal, key_mask)
    indices = np.broadcast_to(np.arange(T_k), (B, H, T_q, T_k)).copy()
    return PairBatch(selected_indices=indices, valid_mask=valid, dense=True)


def topk_concat(q: Tensor, k: Tensor, K: int, causal: bool = False,
                key_mask: np.ndarray | None = None) -> PairBatch:
    """Keep the K highest-scoring keys per query, scores S = q . k^T.

    Selection is partial: one ``np.partition`` per row finds the K_eff-th
    highest score, every key scoring above it is kept, and the remaining
    places go to the lowest-index keys scoring exactly that much, so ties
    break toward the lower key index. Masked-out keys (and NaN scores)
    rank below every finite score and come out invalid. Each row lists
    its valid keys in ascending index order, then pads with index 0, so
    K >= T_k reproduces the full pairwise batch exactly. Selection is
    hard: scores are ranked outside the gradient tape and gradients flow
    only through selected pairs.
    """
    if K < 1:
        raise ValueError(f"top-k needs K >= 1, got {K}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"pair features disagree: q has {q.shape}, k has {k.shape}")
    B, H, T_q, D = q.shape
    T_k = k.shape[2]
    K_eff = min(K, T_k)

    # rank -S ascending: the K best keys are the K_eff smallest entries
    neg = np.matmul(-q.data, np.swapaxes(k.data, -1, -2))
    ranked = _candidate_mask(B, H, T_q, T_k, causal, key_mask) & ~np.isnan(neg)
    np.copyto(neg, np.inf, where=~ranked)

    kth = np.partition(neg, K_eff - 1, axis=-1)[..., K_eff - 1:K_eff]
    keep = neg <= kth
    # rows with more ties at kth than places keep their lowest-index ties
    over = np.count_nonzero(keep, axis=-1) > K_eff
    if over.any():
        rows, cut = neg[over], kth[over]
        below = rows < cut
        ties = rows == cut
        room = K_eff - np.count_nonzero(below, axis=-1, keepdims=True)
        keep[over] = below | (ties & (np.cumsum(ties, axis=-1) <= room))

    # every row keeps exactly K_eff keys; read them in ascending order
    indices = (np.flatnonzero(keep) % T_k).reshape(B, H, T_q, K_eff)
    valid = np.isfinite(np.take_along_axis(neg, indices, axis=-1))
    if not valid.all():
        # invalid entries to the tail as index 0, valid order kept
        tail = np.argsort(~valid, axis=-1, kind="stable")
        valid = np.take_along_axis(valid, tail, axis=-1)
        indices = np.where(valid, np.take_along_axis(indices, tail, axis=-1), 0)

    return PairBatch(selected_indices=indices, valid_mask=valid)


def pair_sum(a: Tensor, b: Tensor, batch: PairBatch) -> Tensor:
    """a_i + b_j for every selected pair (i, j), zero on invalid pairs.

    a: [B,H,T_q,C] query features, b: [B,H,T_k,C] key features; returns
    [B,H,T_q,K_eff,C]. The result is stored channel-major ([H,C,B,T_q,K_eff]
    in memory) so that each channel of one head is contiguous for the gate
    kernel. The backward sums over the pairs of a query for a and
    scatter-adds into the selected keys for b.
    """
    B, H, T_q, C = a.shape
    T_k = b.shape[2]
    if b.shape != (B, H, T_k, C):
        raise ShapeError(f"pair_sum: features disagree: {a.shape} and {b.shape}")
    idx, valid = batch.selected_indices, batch.valid_mask
    K = idx.shape[3]
    a_cm = a.data.transpose(1, 3, 0, 2)[..., None]          # [H,C,B,T_q,1]
    b_cm = b.data.transpose(1, 3, 0, 2)                     # [H,C,B,T_k]
    if batch.dense:
        out = a_cm + b_cm[:, :, :, None, :]
        flat_idx = None
    else:
        # one flat key index per pair and head: b * T_k + selected key
        flat_idx = (np.arange(B)[:, None, None, None] * T_k
                    + idx).transpose(1, 0, 2, 3)             # [H,B,T_q,K]
        b_flat = b_cm.reshape(H, C, B * T_k)
        out = np.empty((H, C, B, T_q, K))
        for h in range(H):
            np.take(b_flat[h], flat_idx[h], axis=1, out=out[h])
        out += a_cm
    valid_cm = None if valid.all() else valid.transpose(1, 0, 2, 3)[:, None]
    if valid_cm is not None:
        out *= valid_cm

    def rule(g):
        g_cm = g.transpose(1, 4, 0, 2, 3)                    # [H,C,B,T_q,K]
        if valid_cm is not None:
            g_cm = g_cm * valid_cm
        ga = g_cm.sum(axis=4).transpose(2, 0, 3, 1)
        if flat_idx is None:
            gb = g_cm.sum(axis=3)
        else:
            gb = np.empty((H, C, B * T_k))
            for h in range(H):
                lin = flat_idx[h].reshape(-1)
                for c in range(C):
                    gb[h, c] = np.bincount(lin, weights=g_cm[h, c].reshape(-1),
                                           minlength=B * T_k)
            gb = gb.reshape(H, C, B, T_k)
        return ga, gb.transpose(2, 0, 3, 1)

    return T._node(out.transpose(2, 0, 3, 4, 1), (a, b), rule)
