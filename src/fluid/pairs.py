"""Query-key pair curation and the factored pair input of the gates.

Two strategies: full pairwise, and sparse Top-K selection by raw
dot-product score (no 1/sqrt(d) scaling on the selection scores).
Masking is applied to the scores before selection, so future keys can
never enter the pair set under causal masking; rows left with fewer than
K_eff candidates are padded with index 0 and marked invalid. Top-K
forms and ranks its scores on ``fluid.pool``, one work item per slice of
at most 2 MB of scores: neither the [B,H,T_q,T_k] candidate mask nor a
whole score matrix of a long sequence is ever built, nor the partition
copy of a whole slice.

The gates see each pair through a linear projection of u = [q; k], so a
pair's input is a sum of one query feature and one key feature.
``PairInput`` holds the two projections, which it lets go while a gate
tape waits for its backward, and the pair batch's tables, and forms
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
    top-k holds index 0 in the row's tail. The key indices are int32, 4
    bytes a pair, which index any key; a flat (batch, key) index made from
    one is int64. Downstream softmax must exclude invalid entries via
    valid_mask.
    """

    selected_indices: np.ndarray
    valid_mask: np.ndarray


class PairInput:
    """The gate input of every selected pair, in factored form.

    Pair (i, j) sees qp_i + kp_j, the projections of query i and key j.
    The items read them channel-major, as ``_q``, ``_k`` [H, C, B*T]; where
    qp and kp are views of that layout, as ``project_pairs`` makes them,
    these are the same buffers, so each projection is held once. ``drop``
    lets them go and ``hold`` takes them again: a gate op on the tape keeps
    the pair input without its projections, and its backward projects
    ``sources`` (q, k) again, which the pair input holds only when it was
    made under a tape. The [B,H,T_q,K_eff,C] array of these sums
    (``shape``, ``size``) is never built: the gate
    kernel forms the block of pairs each work item takes with ``block``.
    An item names its packed pairs by a selector: a slice, or an ascending
    int32 index array where the backward skips pairs whose logit gradient
    is 0.

    Slots are numbered per head in (batch, query, slot) order. The kernel
    runs on each head's packed pairs, its valid pairs in slot order;
    ``counts`` holds them per head, and ``pos[hd]`` the int32 slot of each
    packed pair of head ``hd``, 4 bytes a pair: a head has fewer than 2^31
    slots, or the pair input is refused. An invalid slot gets no gates of
    its own: ``unroll`` leaves it the floor gates f_tau = eps, f_phi = 0,
    so its logit a stays 0. A block reads its
    keys off the batch's int32 ``selected_indices`` by slot, through two
    tables of each query row, so no index of the pairs' keys is built; it
    turns them into int64 flat indices b * T_k + j of its own pairs only.
    With every pair valid, packing is the identity and holds no index of
    its own: ``pos`` is None. Besides the batch's key indices, it holds qp
    and kp until dropped, q and k under a tape, and nothing the gates do
    not read.
    """

    def __init__(self, qp: Tensor, kp: Tensor, batch: PairBatch,
                 sources: tuple | None = None):
        B, H, T_q, C = qp.shape
        idx, valid = batch.selected_indices, batch.valid_mask
        K = idx.shape[3]
        if B * T_q * K >= 2 ** 31:
            raise ValueError(f"a head has {B * T_q * K} pair slots; int32 "
                             "positions index fewer than 2^31")
        self.sources = sources
        self.shape = (B, H, T_q, K, C)
        self.size = B * H * T_q * K * C
        self._T_k = kp.shape[2]
        # the keys of every query row as one flat array, rows ``step``
        # apart: a view of top-k's indices (step K), or of full pairwise's
        # one row, which every query shares (step 0)
        idx = idx.reshape(B * H * T_q, K)
        step = K if idx.strides[0] else 0
        self._idx = (idx if step else idx[:1]).ravel()
        # per head and row r = b * T_q + i: the shift from the row's slots
        # r * K + s to its keys' places in ``_idx``, and b * T_k
        r = np.arange(B * T_q)
        b = r // T_q
        row = r + (b * (H - 1) + np.arange(H)[:, None]) * T_q   # (b, hd, i)
        self._start = row * step - r * K
        self._key0 = b * self._T_k
        if valid.all():
            self.pos = None
            self.counts = [B * T_q * K] * H
        else:
            valid = valid.transpose(1, 0, 2, 3).reshape(H, -1)
            self.pos = [np.flatnonzero(v).astype(np.int32) for v in valid]
            self.counts = [p.size for p in self.pos]
        self.hold(qp, kp)

    def hold(self, qp: Tensor, kp: Tensor):
        """Take the projections qp [B,H,T_q,C] and kp [B,H,T_k,C] that the
        blocks read, channel-major [H, C, B*T]: one channel of one head is
        contiguous, and reshape copies only where qp or kp is not laid out
        so already."""
        H, C = self.shape[1], self.shape[4]
        self._q, self._k = (t.data.transpose(1, 3, 0, 2).reshape(H, C, -1)
                            for t in (qp, kp))

    def drop(self):
        """Let the projections go; ``hold`` takes them again."""
        self._q = self._k = None

    def slots(self, hd: int, sel) -> np.ndarray:
        """The slots of head ``hd``'s packed pairs ``sel``, a slice or an
        index array of packed pairs in ascending order."""
        if self.pos is not None:
            return self.pos[hd][sel]
        return np.arange(sel.start, sel.stop) if isinstance(sel, slice) else sel

    def pairs(self, hd: int, sel) -> tuple[np.ndarray, np.ndarray]:
        """(query rows b * T_q + i, flat key indices b * T_k + j) of head
        ``hd``'s packed pairs ``sel``: the keys j are read off
        ``selected_indices`` by slot."""
        slots = self.slots(hd, sel)
        rows = slots // self.shape[3]
        # out of place: the int32 keys become int64 flat indices
        keys = np.take(self._idx, self._start[hd][rows] + slots)
        return rows, keys + self._key0[rows]

    def block(self, hd: int, sel) -> np.ndarray:
        """The input [C, pairs] of head ``hd``'s packed pairs ``sel``."""
        rows, keys = self.pairs(hd, sel)
        x = np.take(self._k[hd], keys, axis=1)
        x += np.take(self._q[hd], rows, axis=1)
        return x

    def block_grads(self, hd: int, sel, dx: np.ndarray):
        """The partials of ``block``'s gradient ``dx``: (the query rows
        the block touches, d qp of each [C, rows], d kp of every key
        [C, B*T_k] by one ``np.bincount`` over the flat (channel, key)
        index)."""
        rows, keys = self.pairs(hd, sel)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        C, M = dx.shape[0], self._k.shape[2]
        flat = (np.arange(C)[:, None] * M + keys).ravel()
        return rows[starts], np.add.reduceat(dx, starts, axis=1), np.bincount(
            flat, weights=dx.ravel(), minlength=C * M).reshape(C, M)

    def grads(self, items: list[tuple], parts: list[tuple]):
        """(d qp, d kp) from the ``block_grads`` of the (head, selector)
        items, summed in item order."""
        dq, dk = np.zeros_like(self._q), np.zeros_like(self._k)
        for (hd, _), (rows, dq_rows, dk_keys) in zip(items, parts):
            dq[hd][:, rows] += dq_rows
            dk[hd] += dk_keys
        B, H, T_q, _, C = self.shape
        return tuple(d.reshape(H, C, B, T).transpose(2, 0, 3, 1)
                     for d, T in ((dq, T_q), (dk, self._T_k)))


def full_pairwise_concat(q: Tensor, k: Tensor, causal: bool = False,
                         key_mask: np.ndarray | None = None) -> PairBatch:
    """Every query paired with every key; K_eff == T_k. The indices are
    the read-only broadcast view of one row arange(T_k)."""
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"pair features disagree: q has {q.shape}, k has {k.shape}")
    B, H, T_q, D = q.shape
    T_k = k.shape[2]
    valid = np.ones((B, H, T_q, T_k), dtype=bool)
    if causal:
        valid &= np.tri(T_q, T_k, dtype=bool)
    if key_mask is not None:
        valid &= np.asarray(key_mask, dtype=bool)[:, None, None, :]
    indices = np.broadcast_to(np.arange(T_k, dtype=np.int32), (B, H, T_q, T_k))
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

    Scores are formed and ranked in slices, one work item per slice on
    ``fluid.pool``: several whole (batch, head) score matrices, as many as
    fit ``_SLICE_SCORES``, or balanced row spans of one matrix that does
    not fit. An item makes one GEMM call per matrix, on the matrix's rows
    of its slice, and writes its rows into the outputs by position. It
    partitions its rows ``_PARTITION_SCORES`` scores at a time, so besides
    its slice's scores it holds one such chunk's partition copy. A row
    span holds at least two rows and over 2^15 scores, so BLAS runs it on
    the GEMM kernel of the whole product, and its scores are bitwise the
    whole product's, as the tests check; a single row would take the GEMV
    path and a tiny block a small-matrix kernel, whose bits differ. Slices
    depend on the shapes alone, so the batch is the same for any number
    of workers.
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
    chunk = max(1, _PARTITION_SCORES // T_k)
    indices = np.empty((G * T_q, K_eff), dtype=np.int32)
    valid = np.empty((G * T_q, K_eff), dtype=bool)

    def rank(g0: int, g1: int, r0: int, r1: int):
        # rank -S ascending: the K best keys are the K_eff smallest entries
        s = np.matmul(-qf[g0:g1, r0:r1], kf[g0:g1]).reshape(-1, T_k)
        rows = (np.arange(g0, g1)[:, None] * T_q + np.arange(r0, r1)).ravel()
        out = np.isnan(s)
        if causal:
            out |= np.arange(T_k) > rows[:, None] % T_q
        if key_mask is not None:
            out |= ~key_mask[rows // (H * T_q)]
        np.copyto(s, np.inf, where=out)
        # each row's K_eff-th score, partitioned a chunk of rows at a time:
        # an item holds one chunk's partition copy, never the slice's
        kth = np.empty((len(s), 1))
        for c in range(0, len(s), chunk):
            kth[c:c + chunk] = np.partition(s[c:c + chunk], K_eff - 1,
                                            axis=-1)[:, K_eff - 1:K_eff]
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

    # m whole matrices per slice, or n balanced row spans of each matrix;
    # a span of at least 4 rows keeps every span at 2 rows or more
    span = max(4, _SLICE_SCORES // T_k)
    m, n = max(1, span // T_q), -(-T_q // span)
    slices = [(g0, min(g0 + m, G), T_q * i // n, T_q * (i + 1) // n)
              for g0 in range(0, G, m) for i in range(n)]
    list(pool._run_items(rank, slices))
    return PairBatch(indices.reshape(B, H, T_q, K_eff), valid.reshape(B, H, T_q, K_eff))


# the most scores one slice of top-k selection forms and ranks, unless
# four rows of a matrix hold more: 2 MB, so that the slice's scores stay
# in cache
_SLICE_SCORES = 1 << 18
# the most scores one partition copy holds, unless one row holds more:
# 256 kB, 32 rows of 1,024 keys
_PARTITION_SCORES = 1 << 15
