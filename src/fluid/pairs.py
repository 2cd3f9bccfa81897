"""Query-key pair curation and the factored pair input of the gates.

Two strategies: full pairwise, and sparse Top-K selection by raw
dot-product score (no 1/sqrt(d) scaling on the selection scores).
Masking is applied to the scores before selection, so future keys can
never enter the pair set under causal masking; rows left with fewer than
K_eff candidates are padded with index 0 and marked invalid.

The gates see each pair through a linear projection of u = [q; k], so a
pair's input is a sum of one query feature and one key feature.
``PairInput`` holds the two projections and the pair batch, and forms
the sums one block of pairs at a time, inside the gate kernel's work
items: neither u nor the projected pair input is ever built whole.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fluid.tensor import ShapeError, Tensor


@dataclass
class PairBatch:
    """The selected pairs of each query.

    selected_indices, valid_mask: [B,H,T_q,K_eff]. Every entry holds a
    key index in range, valid or not: full pairwise keeps key j at slot j,
    top-k holds index 0 in the row's tail. Downstream softmax must exclude
    invalid entries via valid_mask.
    """

    selected_indices: np.ndarray
    valid_mask: np.ndarray

    @property
    def k_eff(self) -> int:
        return self.selected_indices.shape[3]


class PairInput:
    """The gate input of every selected pair, in factored form.

    Pair (i, j) sees qp_i + kp_j, the projections of query i and key j,
    times its valid mask, so invalid pairs see exactly the gates of a zero
    input. The [B,H,T_q,K_eff,C] array of these sums (``shape``, ``size``,
    ``ndim``) is never built: the gate kernel forms the block of pairs
    each work item takes with ``block``. Pairs are numbered per head in
    (batch, query, slot) order; ``keys`` [H, pairs] holds each pair's flat
    key index b * T_k + j, and ``valid`` [H, pairs] is None when every
    pair is valid.
    """

    ndim = 5

    def __init__(self, qp: Tensor, kp: Tensor, batch: PairBatch):
        B, H, T_q, C = qp.shape
        idx, valid = batch.selected_indices, batch.valid_mask
        self.qp, self.kp = qp, kp
        self.shape = (B, H, T_q, idx.shape[3], C)
        self.size = B * H * T_q * idx.shape[3] * C
        self.keys = (np.arange(B)[:, None, None, None] * kp.shape[2]
                     + idx).transpose(1, 0, 2, 3).reshape(H, -1)
        self.valid = (None if valid.all()
                      else valid.transpose(1, 0, 2, 3).reshape(H, -1))
        # channel-major [H, C, B*T]: one channel of one head is contiguous
        self._q, self._k = (np.ascontiguousarray(
            t.data.transpose(1, 3, 0, 2)).reshape(H, C, -1) for t in (qp, kp))

    def block(self, hd: int, a: int, b: int) -> np.ndarray:
        """The input [C, b - a] of pairs a..b of head ``hd``."""
        r, starts = self._rows(a, b)
        x = np.take(self._k[hd], self.keys[hd, a:b], axis=1)
        x += np.repeat(self._q[hd, :, r:r + starts.size],
                       np.diff(starts, append=b - a), axis=1)
        if self.valid is not None:
            x *= self.valid[hd, a:b]
        return x

    def block_grads(self, hd: int, a: int, b: int, dx: np.ndarray):
        """The partials of ``block``'s gradient ``dx``, masked in place:
        (first query row, d qp of the rows it touches [C, rows], d kp of
        every key [C, B*T_k], scattered by ``np.bincount``)."""
        if self.valid is not None:
            dx *= self.valid[hd, a:b]
        r, starts = self._rows(a, b)
        keys, M = self.keys[hd, a:b], self._k.shape[2]
        return r, np.add.reduceat(dx, starts, axis=1), np.stack(
            [np.bincount(keys, weights=d, minlength=M) for d in dx])

    def grads(self, items: list[tuple[int, int, int]], parts: list[tuple]):
        """(d qp, d kp) from the ``block_grads`` of the (head, start, stop)
        items, summed in item order."""
        dq, dk = np.zeros_like(self._q), np.zeros_like(self._k)
        for (hd, _, _), (r, dq_rows, dk_keys) in zip(items, parts):
            dq[hd, :, r:r + dq_rows.shape[1]] += dq_rows
            dk[hd] += dk_keys
        B, H, _, _, C = self.shape
        return tuple(d.reshape(H, C, B, -1).transpose(2, 0, 3, 1) for d in (dq, dk))

    def _rows(self, a: int, b: int):
        """The first query row of pairs a..b, and the offset in the block
        at which each row they touch starts (a row holds K_eff pairs)."""
        K = self.shape[3]
        starts = np.arange(-(a % K), b - a, K)
        starts[0] = 0
        return a // K, starts


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
    return PairBatch(selected_indices=indices, valid_mask=valid)


def topk_concat(q: Tensor, k: Tensor, K: int, causal: bool = False,
                key_mask: np.ndarray | None = None) -> PairBatch:
    """Keep the K highest-scoring keys per query, scores S = q . k^T.

    Selection is partial: one ``np.partition`` per row finds the K_eff-th
    highest score, every key scoring above it is kept, and the remaining
    places go to the lowest-index keys scoring exactly that much, so ties
    break toward the lower key index. Masked-out keys (and NaN scores)
    rank below every finite score and come out invalid. Each row lists
    its valid keys in ascending index order, then pads with index 0.
    Without a mask, K >= T_k reproduces the full pairwise batch exactly.
    Under a causal mask or a key mask that pads the tail, the two batches
    differ in their invalid slots, yet each row's valid keys are the same
    prefix, and ``attention.attend`` gives bitwise the same outputs,
    weights and gradients on either. Selection is hard: scores are ranked
    outside the gradient tape and gradients flow only through selected
    pairs.

    Scores are ranked in chunks of whole (batch, head) score matrices, at
    most ``_SCORE_CHUNK`` scores or one matrix, so only one chunk's
    buffers are alive at once. A chunk makes the GEMM call per matrix that
    the whole product makes, so its scores are bitwise the same; a cut
    through a matrix's rows would not guarantee that.
    """
    if K < 1:
        raise ValueError(f"top-k needs K >= 1, got {K}")
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"pair features disagree: q has {q.shape}, k has {k.shape}")
    B, H, T_q, D = q.shape
    T_k = k.shape[2]
    K_eff = min(K, T_k)
    G = B * H
    qf = q.data.reshape(G, T_q, D)
    kf = np.swapaxes(k.data.reshape(G, T_k, D), -1, -2)
    candidates = _candidate_mask(B, H, T_q, T_k, causal, key_mask).reshape(G, T_q, T_k)
    indices = np.empty((G, T_q, K_eff), dtype=np.intp)
    valid = np.empty((G, T_q, K_eff), dtype=bool)
    step = max(1, _SCORE_CHUNK // (T_q * T_k))
    for g in (slice(g0, g0 + step) for g0 in range(0, G, step)):
        # rank -S ascending: the K best keys are the K_eff smallest entries
        neg = np.matmul(-qf[g], kf[g])
        np.copyto(neg, np.inf, where=~(candidates[g] & ~np.isnan(neg)))
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
        indices[g] = (np.flatnonzero(keep) % T_k).reshape(-1, T_q, K_eff)
        valid[g] = np.isfinite(np.take_along_axis(neg, indices[g], axis=-1))

    if not valid.all():
        # invalid entries to the tail as index 0, valid order kept
        tail = np.argsort(~valid, axis=-1, kind="stable")
        valid = np.take_along_axis(valid, tail, axis=-1)
        indices = np.where(valid, np.take_along_axis(indices, tail, axis=-1), 0)
    return PairBatch(indices.reshape(B, H, T_q, K_eff), valid.reshape(B, H, T_q, K_eff))


# the most scores one chunk of top-k selection ranks at once
_SCORE_CHUNK = 1 << 20
