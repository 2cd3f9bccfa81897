"""Pair curation (full pairwise, sparse Top-K) and the factored pair input."""

import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest
from conftest import pair_sum, peak_bytes, pool_workers, topk_sort
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fluid import pairs, pool, tensor as T
from fluid.tensor import Tensor


def _qk(q_rows, k_rows):
    q = np.asarray(q_rows, dtype=float)[None, None]
    k = np.asarray(k_rows, dtype=float)[None, None]
    return Tensor(q), Tensor(k)


def test_single_pair_concat():
    q, k = _qk([[1.0, 2.0]], [[3.0, 5.0]])
    pb = pairs.full_pairwise_concat(q, k)
    assert pb.selected_indices.shape[3] == 1
    up = pair_sum(q, k, pb)
    assert up.shape == (1, 1, 1, 1, 2)
    assert np.array_equal(up.data[0, 0, 0, 0], [4, 7])


def test_causal_first_position_sees_itself_only():
    q, k = _qk(np.zeros((3, 2)), np.zeros((3, 2)))
    pb = pairs.full_pairwise_concat(q, k, causal=True)
    assert pb.valid_mask[0, 0, 0].tolist() == [True, False, False]
    assert pb.valid_mask[0, 0, 2].tolist() == [True, True, True]


def test_full_pairwise_matches_nested_loop_oracle():
    rng = np.random.default_rng(3)
    qa = rng.standard_normal((2, 3))
    ka = rng.standard_normal((3, 3))
    q, k = Tensor(qa[None, None]), Tensor(ka[None, None])
    up = pair_sum(q, k, pairs.full_pairwise_concat(q, k))
    for i in range(2):
        for j in range(3):
            assert np.array_equal(up.data[0, 0, i, j], qa[i] + ka[j])


def test_feature_dim_mismatch():
    q, _ = _qk([[1.0, 2.0]], [[0.0, 0.0]])
    k = Tensor(np.zeros((1, 1, 1, 3)))
    with pytest.raises(T.ShapeError):
        pairs.full_pairwise_concat(q, k)
    with pytest.raises(T.ShapeError):
        pairs.topk_concat(q, k, K=1)


def test_topk_rejects_k_below_one():
    q, k = _qk([[1.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        pairs.topk_concat(q, k, K=0)


def test_topk_scores_rank_keys():
    # q=[1,0]; keys score 2, 1, 0 -> K=2 selects indices {0,1}
    q, k = _qk([[1.0, 0.0]], [[2.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
    pb = pairs.topk_concat(q, k, K=2)
    assert sorted(pb.selected_indices[0, 0, 0].tolist()) == [0, 1]
    assert pb.valid_mask.all()


def test_topk_tie_break_lowest_index():
    q, k = _qk([[1.0, 1.0]], [[0.5, 0.5]] * 4)
    pb = pairs.topk_concat(q, k, K=2)
    assert pb.selected_indices[0, 0, 0].tolist() == [0, 1]


@st.composite
def _tied_topk_case(draw):
    """Small integer-valued q/k (so scores tie often), masks and K."""
    B, H, T_q, T_k, D = (draw(st.integers(1, n)) for n in (2, 2, 8, 8, 3))
    small = st.integers(-2, 2).map(float)
    q = draw(hnp.arrays(float, (B, H, T_q, D), elements=small))
    k = draw(hnp.arrays(float, (B, H, T_k, D), elements=small))
    key_mask = draw(st.none() | hnp.arrays(bool, (B, T_k)))
    K = draw(st.integers(1, T_k + 2))
    return q, k, K, draw(st.booleans()), key_mask


def _assert_same_selection(q, k, K, causal, key_mask):
    q, k = Tensor(q), Tensor(k)
    got = pairs.topk_concat(q, k, K, causal=causal, key_mask=key_mask)
    want = topk_sort(q, k, K, causal=causal, key_mask=key_mask)
    assert got.selected_indices.dtype == np.int32
    assert np.array_equal(got.selected_indices, want.selected_indices)
    assert np.array_equal(got.valid_mask, want.valid_mask)


@settings(max_examples=200)
@given(_tied_topk_case())
def test_topk_partial_selection_equals_full_sort(case):
    _assert_same_selection(*case)


def test_topk_partial_selection_equals_full_sort_fully_masked_rows():
    # the first sequence has every key masked: all its rows are padding
    rng = np.random.default_rng(17)
    q = rng.integers(-2, 3, (2, 2, 5, 2)).astype(float)
    k = rng.integers(-2, 3, (2, 2, 6, 2)).astype(float)
    key_mask = np.array([[False] * 6, [True, False, True, True, False, True]])
    for K in (1, 3, 6, 8):
        for causal in (False, True):
            _assert_same_selection(q, k, K, causal, key_mask)
    pb = pairs.topk_concat(Tensor(q), Tensor(k), 3, key_mask=key_mask)
    assert not pb.valid_mask[0].any() and not pb.selected_indices[0].any()


def test_topk_partial_selection_equals_full_sort_on_non_finite_scores():
    # a diverged model's NaN and infinite scores rank as a stable sort of
    # -S ranks them, and none of them comes out valid
    rng = np.random.default_rng(19)
    q = rng.integers(-2, 3, (1, 2, 6, 2)).astype(float)
    k = rng.integers(-2, 3, (1, 2, 6, 2)).astype(float)
    q[0, 0, 1, 0] = np.nan
    q[0, 1, 2, 1] = np.inf
    k[0, 0, 3, 1] = -np.inf
    with np.errstate(invalid="ignore"):
        for K in (1, 2, 4, 6):
            for causal in (False, True):
                _assert_same_selection(q, k, K, causal, None)
        pb = pairs.topk_concat(Tensor(q), Tensor(k), 6)
    assert not pb.valid_mask[0, 0, 1].any()


def test_topk_partial_selection_equals_full_sort_at_scale():
    rng = np.random.default_rng(21)
    q = rng.standard_normal((1, 2, 64, 16))
    k = rng.standard_normal((1, 2, 1024, 16))
    _assert_same_selection(q, k, 32, False, None)


def test_topk_partial_selection_equals_full_sort_at_workload_shape():
    # the infer_topk_t1024 shape, ranked in row slices of each matrix
    rng = np.random.default_rng(23)
    q = rng.standard_normal((1, 4, 1024, 16))
    k = rng.standard_normal((1, 4, 1024, 16))
    assert pairs._SLICE_SCORES < 1024 * 1024
    _assert_same_selection(q, k, 32, False, None)


def test_topk_chunks_hold_whole_score_matrices(monkeypatch):
    # slices of two row spans of each matrix, and of one, two, three and
    # all six whole (batch, head) score matrices
    rng = np.random.default_rng(25)
    q = rng.integers(-2, 3, (2, 3, 6, 2)).astype(float)
    k = rng.integers(-2, 3, (2, 3, 7, 2)).astype(float)
    key_mask = np.array([[True] * 7, [True, False, True, True, False, True, True]])
    for scores in (1, 42, 84, 126, 10 ** 9):
        monkeypatch.setattr(pairs, "_SLICE_SCORES", scores)
        for K in (1, 3, 7):
            for causal in (False, True):
                _assert_same_selection(q, k, K, causal, key_mask)


def _tied_scores_case():
    """q [2,3,6,2] and k [2,3,7,2] of small integers, so that scores tie
    often, with NaN and infinite scores. In matrix (1, 0) every query
    scores the keys 2, 1, 1, 3, 1, 1, 0: K = 3 or 4 leaves every row, on
    both sides of every slice boundary, more ties at the K-th score than
    places, with and without the key mask and the causal mask."""
    rng = np.random.default_rng(27)
    q = rng.integers(-2, 3, (2, 3, 6, 2)).astype(float)
    k = rng.integers(-2, 3, (2, 3, 7, 2)).astype(float)
    q[1, 0] = [1.0, 0.0]
    k[1, 0] = np.column_stack([[2, 1, 1, 3, 1, 1, 0], np.zeros(7)])
    q[0, 2, 1, 0] = np.nan
    q[1, 1, 4, 1] = np.inf
    k[1, 2, 5, 0] = -np.inf
    return q, k


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_pooled_topk_is_bitwise_the_oracle_for_any_cut(monkeypatch, workers):
    # items of two row spans of one (batch, head) matrix, and of one, two
    # and all six whole matrices, on workers that interleave often; every
    # cut gives the oracle's batch, so the batch is the same for any cut
    q, k = map(Tensor, _tied_scores_case())
    key_mask = np.array([[False] * 7, [True, False, True, True, False, True, True]])
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with pool_workers(workers), np.errstate(invalid="ignore"):
            for causal in (False, True):
                for mask in (None, key_mask):
                    for K in (1, 3, 4, 7):
                        want = topk_sort(q, k, K, causal=causal, key_mask=mask)
                        # partition chunks of one row, of two and of
                        # every row of a slice
                        for scores, part in product((7, 42, 84, 10 ** 9),
                                                    (1, 14, 10 ** 9)):
                            monkeypatch.setattr(pairs, "_SLICE_SCORES", scores)
                            monkeypatch.setattr(pairs, "_PARTITION_SCORES", part)
                            got = pairs.topk_concat(q, k, K, causal=causal,
                                                    key_mask=mask)
                            case = (causal, mask is not None, K, scores, part)
                            assert np.array_equal(got.selected_indices,
                                                  want.selected_indices), case
                            assert np.array_equal(got.valid_mask,
                                                  want.valid_mask), case
    finally:
        sys.setswitchinterval(switch)


@pool_workers(2)
def test_pooled_topk_keeps_the_callers_errstate(monkeypatch):
    # inf * 0 makes NaN scores inside the items, which run on the pool
    monkeypatch.setattr(pairs, "_SLICE_SCORES", 1)
    q = np.ones((1, 2, 3, 2))
    q[0, :, 0, 0] = np.inf
    k = Tensor(np.zeros((1, 2, 4, 2)))
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        pairs.topk_concat(Tensor(q), k, 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_topk_never_holds_a_whole_candidate_mask(workers):
    # the infer_topk_t1024 shape without a mask: each running item holds
    # one 2 MB slice's scores, their flags and the partition copy of one
    # chunk of its rows, never a [B,H,T_q,T_k] candidate mask, a whole
    # score matrix or a whole slice's partition copy
    B, H, T, D, K = 1, 4, 1024, 16, 32
    rng = np.random.default_rng(29)
    q = Tensor(rng.standard_normal((B, H, T, D)))
    k = Tensor(rng.standard_normal((B, H, T, D)))
    with pool_workers(workers):
        pairs.topk_concat(q, k, K)                  # the pool starts
        peak = peak_bytes(lambda: pairs.topk_concat(q, k, K))
    # the int32 keys and their flags
    outputs = B * H * T * K * 5
    chunk = max(1, pairs._PARTITION_SCORES // T) * T
    item = pairs._SLICE_SCORES * 8 + pairs._SLICE_SCORES * 8 // 2 + chunk * 8
    bound = outputs + workers * item
    assert peak < bound
    assert peak + B * H * T * T > bound             # room for no candidate mask
    # room for no partition copy of a whole slice in each running item
    assert peak + workers * (pairs._SLICE_SCORES - chunk) * 8 > bound


def test_topk_item_drops_its_mask_before_ranking(monkeypatch):
    # at an item's first partition, the traced memory holds the outputs,
    # the item's 2 MB of scores and two int64/float64 values per row, but
    # not the item's [rows, T_k] NaN and key mask (256 kB here)
    B, H, T, D, K = 1, 4, 1024, 16, 32
    rng = np.random.default_rng(31)
    q = Tensor(rng.standard_normal((B, H, T, D)))
    k = Tensor(rng.standard_normal((B, H, T, D)))
    seen = []
    partition = np.partition

    def spy(*args, **kwargs):
        if not seen:
            seen.append(tracemalloc.get_traced_memory()[0])
        return partition(*args, **kwargs)

    monkeypatch.setattr(np, "partition", spy)
    outputs = B * H * T * K * 5                     # int32 keys, their flags
    rows = pairs._SLICE_SCORES // T
    tracemalloc.start()
    try:
        with pool_workers(1):
            base = tracemalloc.get_traced_memory()[0]
            pairs.topk_concat(q, k, K, key_mask=np.ones((B, T), dtype=bool))
    finally:
        tracemalloc.stop()
    held = seen[0] - base - outputs - pairs._SLICE_SCORES * 8 - rows * 16
    assert held < rows * T // 2, held


def _recorded_slices(monkeypatch, q, k, K):
    """The (g0, g1, r0, r1) work items of one ``topk_concat`` call, its
    batch, and the oracle's on the whole product's scores."""
    items = []
    run_items = pool._run_items

    def record(fn, its):
        items.extend(its)
        return run_items(fn, its)

    monkeypatch.setattr(pool, "_run_items", record)
    got = pairs.topk_concat(q, k, K)
    monkeypatch.setattr(pool, "_run_items", run_items)
    return items, got, topk_sort(q, k, K)


@pytest.mark.parametrize("T_q, T_k, scores", [
    (1000, 1024, None),      # T_q not a multiple of the 256-row span
    (513, 1024, None),       # one row past two spans: no one-row tail
    (9, 1024, 512),          # fewer scores than T_k: 4-row spans
    (5, 1024, 512),
])
def test_sliced_scores_are_bitwise_the_whole_product(monkeypatch, T_q, T_k,
                                                     scores):
    # every slice holds at least two rows, so its GEMM gives the whole
    # product's bits, and the slices tile each matrix's rows
    if scores is not None:
        monkeypatch.setattr(pairs, "_SLICE_SCORES", scores)
    rng = np.random.default_rng(31)
    q = Tensor(rng.standard_normal((1, 2, T_q, 16)))
    k = Tensor(rng.standard_normal((1, 2, T_k, 16)))
    items, got, want = _recorded_slices(monkeypatch, q, k, 32)
    qf, kf = q.data[0], np.swapaxes(k.data[0], -1, -2)
    whole = np.matmul(-qf, kf)
    for g in range(2):
        spans = [(r0, r1) for g0, g1, r0, r1 in items if g0 <= g < g1]
        assert [r0 for r0, _ in spans] == [0] + [r1 for _, r1 in spans[:-1]]
        assert spans[-1][1] == T_q
        for r0, r1 in spans:
            assert r1 - r0 >= 2
            assert (r1 - r0) * T_k <= max(pairs._SLICE_SCORES, 4 * T_k)
            assert np.array_equal(np.matmul(-qf[g, r0:r1], kf[g]),
                                  whole[g, r0:r1])
    assert np.array_equal(got.selected_indices, want.selected_indices)
    assert np.array_equal(got.valid_mask, want.valid_mask)


def test_topk_k_ge_tk_equals_full_pairwise_exactly():
    rng = np.random.default_rng(5)
    q = Tensor(rng.standard_normal((2, 2, 3, 4)))
    k = Tensor(rng.standard_normal((2, 2, 5, 4)))
    full = pairs.full_pairwise_concat(q, k)
    top = pairs.topk_concat(q, k, K=7)
    assert np.array_equal(top.selected_indices, full.selected_indices)
    assert np.array_equal(top.valid_mask, full.valid_mask)
    assert np.array_equal(pair_sum(q, k, top).data,
                          pair_sum(q, k, full).data)


def test_topk_causal_never_selects_future():
    rng = np.random.default_rng(7)
    q = Tensor(rng.standard_normal((2, 2, 6, 3)))
    k = Tensor(rng.standard_normal((2, 2, 6, 3)))
    pb = pairs.topk_concat(q, k, K=3, causal=True)
    pos = np.arange(6)[None, None, :, None]
    assert (pb.selected_indices[pb.valid_mask]
            <= np.broadcast_to(pos, pb.selected_indices.shape)[pb.valid_mask]).all()
    # early rows have fewer candidates than K; padding is masked and zeroed
    assert pb.valid_mask[0, 0, 0].tolist() == [True, False, False]
    assert np.array_equal(pair_sum(q, k, pb).data[0, 0, 0, 1], np.zeros(3))
    # valid indices stay distinct per row
    for b in range(2):
        for h in range(2):
            for i in range(6):
                sel = pb.selected_indices[b, h, i][pb.valid_mask[b, h, i]]
                assert len(set(sel.tolist())) == len(sel)


def test_topk_key_padding_mask_excludes_keys():
    rng = np.random.default_rng(9)
    q = Tensor(rng.standard_normal((1, 1, 2, 3)))
    k = Tensor(rng.standard_normal((1, 1, 4, 3)))
    key_mask = np.array([[True, True, False, True]])
    pb = pairs.topk_concat(q, k, K=4, key_mask=key_mask)
    assert not pb.valid_mask[..., 2].any() or (pb.selected_indices[..., 2] != 2).all()
    valid_idx = pb.selected_indices[pb.valid_mask]
    assert (valid_idx != 2).all()


def test_pair_payload_scales_with_k_eff():
    rng = np.random.default_rng(11)
    T_k, K, D = 1024, 8, 4
    q = Tensor(rng.standard_normal((1, 1, 4, D)))
    k = Tensor(rng.standard_normal((1, 1, T_k, D)))
    full = pairs.full_pairwise_concat(q, k)
    top = pairs.topk_concat(q, k, K=K)
    top_sums = pair_sum(q, k, top).data
    full_sums = pair_sum(q, k, full).data
    assert top_sums.nbytes * T_k == full_sums.nbytes * K


def test_topk_gradient_flows_to_selected_pairs_only():
    rng = np.random.default_rng(13)
    qa = rng.standard_normal((1, 1, 1, 2))
    ka = rng.standard_normal((1, 1, 3, 2))
    q = Tensor(qa.copy(), requires_grad=True)
    k = Tensor(ka.copy(), requires_grad=True)
    pb = pairs.topk_concat(q, k, K=1)
    T.tsum(pair_sum(q, k, pb)).backward()
    j = pb.selected_indices[0, 0, 0, 0]
    for idx in range(3):
        if idx == j:
            assert np.allclose(k.grad[0, 0, idx], np.ones(2))
        else:
            assert np.allclose(k.grad[0, 0, idx], np.zeros(2))
    assert np.allclose(q.grad, np.ones((1, 1, 1, 2)))


def _identity_halves(qp):
    """W_u [H,2C,C] of qp [B,H,T,C] whose two halves are identities: a
    pair input of qp and kp then projects them to themselves, bitwise."""
    _, H, _, C = qp.shape
    return Tensor(np.tile(np.eye(C), (H, 2, 1)))


def _pair_input_case(case, rng):
    """Projections qp, kp [B,H,T,C] with B = 3, and a pair batch of them:
    6 slots a query, or 3 for top-k."""
    B, H, T_q, T_k, C = 3, 2, 5, 6, 4
    qp = Tensor(rng.standard_normal((B, H, T_q, C)), requires_grad=True)
    kp = Tensor(rng.standard_normal((B, H, T_k, C)), requires_grad=True)
    key_mask = np.arange(T_k) < np.array([6, 4, 5])[:, None]
    if case == "full":
        pb = pairs.full_pairwise_concat(qp, kp)
    elif case == "key_padded":
        pb = pairs.full_pairwise_concat(qp, kp, key_mask=key_mask)
    elif case == "causal":
        pb = pairs.full_pairwise_concat(qp, kp, causal=True)
    elif case == "topk":
        pb = pairs.topk_concat(qp, kp, 3)
    else:
        pb = pairs.topk_concat(qp, kp, 3, causal=True, key_mask=key_mask)
    return qp, kp, pb


@pytest.mark.parametrize("case", ["full", "key_padded", "causal", "topk",
                                  "topk_masked"])
def test_pair_input_blocks_and_their_gradients_are_bitwise_pair_sums(case):
    # every block of packed pairs, by slice (in one batch, from a batch's
    # first slot to its last, and across batches) or by an ascending index
    # array (the backward's live pairs), is its columns of the whole
    # pair_sum, and its gradient partials are pair_sum's gradients from a
    # gradient on the block's pairs alone. The gradients are small integers,
    # so their sums are exact in any order
    rng = np.random.default_rng(37)
    qp, kp, pb = _pair_input_case(case, rng)
    B, H, T_q, C = qp.shape
    T_k, K = kp.shape[2], pb.selected_indices.shape[3]
    pin = pairs.PairInput(qp, kp, _identity_halves(qp), pb)
    # [H, slots, C], slots in (batch, query, slot) order
    whole = pair_sum(qp, kp, pb).data.transpose(1, 0, 2, 3, 4).reshape(H, -1, C)
    for hd, P in enumerate(pin.counts):
        for sel in (slice(0, P), slice(1, P - 1), slice(0, P // 3),
                    slice(P // 3, P // 2 + 1), slice(P // 2, P // 2 + 3),
                    np.arange(0, P, 2), np.array([P - 1]),
                    np.sort(rng.choice(P, P // 3, replace=False))):
            slots = pin.slots(hd, sel)
            assert np.array_equal(pin.block(hd, sel), whole[hd, slots].T)
            dx = rng.integers(-8, 9, (C, slots.size)).astype(float)
            g = np.zeros((H, B * T_q * K, C))
            g[hd, slots] = dx.T
            g = g.reshape(H, B, T_q, K, C).transpose(1, 0, 2, 3, 4)
            qp.zero_grad()
            kp.zero_grad()
            T.tsum(T.mul(pair_sum(qp, kp, pb), Tensor(g))).backward()
            rows, dq_rows, dk = pin.block_grads(hd, sel, dx)
            dq = qp.grad[:, hd].reshape(B * T_q, C).T
            assert np.array_equal(dq[:, rows], dq_rows)
            assert not np.delete(dq, rows, axis=1).any()
            assert np.array_equal(kp.grad[:, hd].reshape(B * T_k, C).T, dk)


@pytest.mark.parametrize("case", ["full", "key_padded", "causal", "topk",
                                  "topk_masked"])
def test_key_indices_are_int32_and_flat_indices_int64(case):
    # 4 bytes index any key; the flat (batch, key) indices b * T_k + j by
    # which a block reads its keys are int64, which index any batch's keys
    qp, kp, pb = _pair_input_case(case, np.random.default_rng(39))
    assert pb.selected_indices.dtype == np.int32
    T_q, T_k = qp.shape[2], kp.shape[2]
    pin = pairs.PairInput(qp, kp, _identity_halves(qp), pb)
    for hd, P in enumerate(pin.counts):
        rows, keys = pin.pairs(hd, slice(0, P))
        assert keys.dtype == np.int64
        idx = pb.selected_indices[:, hd].reshape(-1)[pin.slots(hd, slice(0, P))]
        assert np.array_equal(keys, rows // T_q * T_k + idx)


@pytest.mark.parametrize("case", ["key_padded", "causal", "topk_masked"])
def test_positions_are_int32_and_a_head_of_2_to_the_31_slots_is_refused(case):
    # the packed pairs' slots take 4 bytes each, which index any slot of a
    # head of fewer than 2^31; a larger head is refused before anything
    # is made
    qp, kp, pb = _pair_input_case(case, np.random.default_rng(41))
    pin = pairs.PairInput(qp, kp, _identity_halves(qp), pb)
    assert all(p.dtype == np.int32 for p in pin.pos)
    for hd, P in enumerate(pin.counts):
        slots = np.flatnonzero(pb.valid_mask[:, hd])
        assert np.array_equal(pin.slots(hd, slice(0, P)), slots)
    T_q, K = 2 ** 16, 2 ** 15
    idx = np.broadcast_to(np.zeros(1, dtype=np.int32), (1, 1, T_q, K))
    big = pairs.PairBatch(idx, np.broadcast_to(True, idx.shape))
    q = Tensor(np.zeros((1, 1, T_q, 3)))
    with pytest.raises(ValueError, match="2\\^31"):
        pairs.PairInput(q, Tensor(np.zeros((1, 1, 1, 3))),
                        _identity_halves(q), big)


def test_pair_sum_gradients_sum_over_pairs_and_scatter_into_keys():
    # every query sums its pairs' gradients; every key sums the gradients
    # of the pairs that selected it; invalid pairs pass nothing back
    rng = np.random.default_rng(15)
    q = Tensor(rng.standard_normal((2, 2, 4, 3)), requires_grad=True)
    k = Tensor(rng.standard_normal((2, 2, 4, 3)), requires_grad=True)
    key_mask = np.array([[True, True, True, True], [True, True, False, True]])
    for pb in (pairs.full_pairwise_concat(q, k, causal=True, key_mask=key_mask),
               pairs.topk_concat(q, k, K=2, causal=True, key_mask=key_mask)):
        coef = rng.standard_normal(pb.valid_mask.shape + (3,))
        q.zero_grad()
        k.zero_grad()
        T.tsum(T.mul(pair_sum(q, k, pb), Tensor(coef))).backward()
        gq, gk = np.zeros(q.shape), np.zeros(k.shape)
        for b, h, i, j in zip(*np.nonzero(pb.valid_mask)):
            gq[b, h, i] += coef[b, h, i, j]
            gk[b, h, pb.selected_indices[b, h, i, j]] += coef[b, h, i, j]
        assert np.allclose(q.grad, gq, rtol=0, atol=1e-14)
        assert np.allclose(k.grad, gk, rtol=0, atol=1e-14)
