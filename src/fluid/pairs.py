"""Query-key pair curation and the factored pair input of the gates.

Two strategies: full pairwise, and sparse Top-K selection by raw
dot-product score (no 1/sqrt(d) scaling on the selection scores).
Masking is applied to the scores before selection, so future keys can
never enter the pair set under causal masking; rows left with fewer than
K_eff candidates are padded with index 0 and marked invalid. Top-K
ranks its scores on ``fluid.pool``, one work item per chunk of whole
score matrices, in row slices of at most 2 MB of scores: neither the
[B,H,T_q,T_k] candidate mask nor a whole matrix's partition copy is
ever built.

The gates see each pair through a linear projection of u = [q; k], so a
pair's input is a sum of one query feature and one key feature.
``PairInput`` holds the two projections and the pair batch, and forms
the sums one block of pairs at a time, inside the gate kernel's work
items: neither u nor the projected pair input is ever built whole. The
kernel runs on each head's valid pairs only; an invalid slot holds the
floor gates f_tau = eps, f_phi = 0, so its logit a stays 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fluid import pool
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


class PairInput:
    """The gate input of every selected pair, in factored form.

    Pair (i, j) sees qp_i + kp_j, the projections of query i and key j.
    The [B,H,T_q,K_eff,C] array of these sums (``shape``, ``size``,
    ``ndim``) is never built: the gate kernel forms the block of pairs
    each work item takes with ``block``.

    Slots are numbered per head in (batch, query, slot) order. The kernel
    runs on each head's packed pairs, its valid pairs in slot order;
    ``counts`` holds them per head. An invalid slot gets no gates of its
    own: ``unroll`` writes it the floor gates f_tau = eps, f_phi = 0 where
    ``invalid`` [H, slots] is set, so its logit a stays 0. ``keys[hd]``
    holds the flat key index b * T_k + j of each packed pair of head
    ``hd``, and ``pos[hd]`` its slot. With every pair valid, packing is
    the identity and holds no index of its own: ``keys`` is the [H, slots]
    key index, and ``pos`` and ``invalid`` are None.
    """

    ndim = 5

    def __init__(self, qp: Tensor, kp: Tensor, batch: PairBatch):
        B, H, T_q, C = qp.shape
        idx, valid = batch.selected_indices, batch.valid_mask
        K = idx.shape[3]
        self.qp, self.kp = qp, kp
        self.shape = (B, H, T_q, K, C)
        self.size = B * H * T_q * K * C
        keys = (np.arange(B)[:, None, None, None] * kp.shape[2]
                + idx).transpose(1, 0, 2, 3).reshape(H, -1)
        if valid.all():
            self.keys, self.pos, self.invalid = keys, None, None
            self.counts = [keys.shape[1]] * H
        else:
            valid = valid.transpose(1, 0, 2, 3).reshape(H, -1)
            self.invalid = ~valid
            self.pos = [np.flatnonzero(v) for v in valid]
            self.keys = [k[v] for k, v in zip(keys, valid)]
            self.counts = [p.size for p in self.pos]
        # channel-major [H, C, B*T]: one channel of one head is contiguous
        self._q, self._k = (np.ascontiguousarray(
            t.data.transpose(1, 3, 0, 2)).reshape(H, C, -1) for t in (qp, kp))

    def slots(self, hd: int, a: int, b: int) -> np.ndarray:
        """The slots of packed pairs a..b of head ``hd``."""
        return np.arange(a, b) if self.pos is None else self.pos[hd][a:b]

    def block(self, hd: int, a: int, b: int) -> np.ndarray:
        """The input [C, b - a] of packed pairs a..b of head ``hd``."""
        x = np.take(self._k[hd], self.keys[hd][a:b], axis=1)
        x += np.take(self._q[hd], self.slots(hd, a, b) // self.shape[3], axis=1)
        return x

    def block_grads(self, hd: int, a: int, b: int, dx: np.ndarray):
        """The partials of ``block``'s gradient ``dx``: (the query rows
        the block touches, d qp of each [C, rows], d kp of every key
        [C, B*T_k] by one ``np.bincount`` over the flat (channel, key)
        index)."""
        rows = self.slots(hd, a, b) // self.shape[3]
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        C, M = dx.shape[0], self._k.shape[2]
        flat = (np.arange(C)[:, None] * M + self.keys[hd][a:b]).ravel()
        return rows[starts], np.add.reduceat(dx, starts, axis=1), np.bincount(
            flat, weights=dx.ravel(), minlength=C * M).reshape(C, M)

    def grads(self, items: list[tuple[int, int, int]], parts: list[tuple]):
        """(d qp, d kp) from the ``block_grads`` of the (head, start, stop)
        items, summed in item order."""
        dq, dk = np.zeros_like(self._q), np.zeros_like(self._k)
        for (hd, _, _), (rows, dq_rows, dk_keys) in zip(items, parts):
            dq[hd][:, rows] += dq_rows
            dk[hd] += dk_keys
        B, H, T_q, _, C = self.shape
        return tuple(d.reshape(H, C, B, T).transpose(2, 0, 3, 1)
                     for d, T in ((dq, T_q), (dk, self.kp.shape[2])))


def full_pairwise_concat(q: Tensor, k: Tensor, causal: bool = False,
                         key_mask: np.ndarray | None = None) -> PairBatch:
    """Every query paired with every key; K_eff == T_k."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"pair features disagree: q has {q.shape}, k has {k.shape}")
    B, H, T_q, D = q.shape
    T_k = k.shape[2]
    valid = np.ones((B, H, T_q, T_k), dtype=bool)
    if causal:
        valid &= np.tri(T_q, T_k, dtype=bool)
    if key_mask is not None:
        valid &= np.asarray(key_mask, dtype=bool)[:, None, None, :]
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
    most ``_SCORE_CHUNK`` scores or one matrix, one work item per chunk on
    ``fluid.pool``. A chunk makes the GEMM call per matrix that the whole
    product makes, so its scores are bitwise the same; a cut through a
    matrix's rows would not guarantee that. An item masks and ranks its
    rows in slices of at most ``_SLICE_SCORES`` scores or one row, and
    writes them into the outputs by position. Chunks and slices depend on
    the shapes alone, so the batch is the same for any number of workers.
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
    if key_mask is not None:
        key_mask = np.broadcast_to(np.asarray(key_mask, dtype=bool), (B, T_k))
    indices = np.empty((G * T_q, K_eff), dtype=np.intp)
    valid = np.empty((G * T_q, K_eff), dtype=bool)
    span = max(1, _SLICE_SCORES // T_k)

    def rank(g0: int, g1: int):
        # rank -S ascending: the K best keys are the K_eff smallest entries
        neg = np.matmul(-qf[g0:g1], kf[g0:g1]).reshape(-1, T_k)
        for a in range(0, len(neg), span):
            s = neg[a:a + span]
            rows = np.arange(len(s)) + (g0 * T_q + a)
            out = np.isnan(s)
            if causal:
                out |= np.arange(T_k) > rows[:, None] % T_q
            if key_mask is not None:
                out |= ~key_mask[rows // (H * T_q)]
            np.copyto(s, np.inf, where=out)
            # a copy, so that the slice's partition buffer is freed at once
            kth = np.partition(s, K_eff - 1, axis=-1)[:, K_eff - 1:K_eff].copy()
            keep = s <= kth
            # rows with more ties at kth than places keep their lowest-index ties
            over = np.count_nonzero(keep, axis=-1) > K_eff
            if over.any():
                cut, s_over = kth[over], s[over]
                below, ties = s_over < cut, s_over == cut
                room = K_eff - np.count_nonzero(below, axis=-1, keepdims=True)
                keep[over] = below | (ties & (np.cumsum(ties, axis=-1) <= room))
            # every row keeps exactly K_eff keys; read them in ascending order
            idx = np.flatnonzero(keep).reshape(-1, K_eff) % T_k
            ok = np.isfinite(np.take_along_axis(s, idx, axis=-1))
            if not ok.all():
                # invalid entries to the tail as index 0, valid order kept
                tail = np.argsort(~ok, axis=-1, kind="stable")
                ok = np.take_along_axis(ok, tail, axis=-1)
                idx = np.where(ok, np.take_along_axis(idx, tail, axis=-1), 0)
            indices[rows], valid[rows] = idx, ok

    step = max(1, _SCORE_CHUNK // (T_q * T_k))
    pool._run_items(rank, [(g0, min(g0 + step, G)) for g0 in range(0, G, step)])
    return PairBatch(indices.reshape(B, H, T_q, K_eff), valid.reshape(B, H, T_q, K_eff))


# the most scores one chunk of top-k selection ranks, and one row slice of
# it: 2 MB, so that the slice's partition copy stays in cache
_SCORE_CHUNK = 1 << 20
_SLICE_SCORES = 1 << 18
