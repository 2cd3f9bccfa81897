"""Pair curation (full pairwise, sparse Top-K) and the factored pair input."""

import sys

import numpy as np
import pytest
from conftest import pair_sum, topk_sort
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fluid import bench, pairs, pool, tensor as T
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
    assert got.selected_indices.dtype == want.selected_indices.dtype
    assert np.array_equal(got.selected_indices, want.selected_indices)
    assert np.array_equal(got.valid_mask, want.valid_mask)


@settings(max_examples=200, deadline=None)
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
    # the infer_topk_t1024 shape, ranked in several chunks
    rng = np.random.default_rng(23)
    q = rng.standard_normal((1, 4, 1024, 16))
    k = rng.standard_normal((1, 4, 1024, 16))
    assert pairs._SCORE_CHUNK < q.shape[1] * 1024 * 1024
    _assert_same_selection(q, k, 32, False, None)


def test_topk_chunks_hold_whole_score_matrices(monkeypatch):
    # chunks of one, two, three and all six (batch, head) score matrices
    rng = np.random.default_rng(25)
    q = rng.integers(-2, 3, (2, 3, 6, 2)).astype(float)
    k = rng.integers(-2, 3, (2, 3, 7, 2)).astype(float)
    key_mask = np.array([[True] * 7, [True, False, True, True, False, True, True]])
    for chunk in (1, 42, 84, 126, 10 ** 9):
        monkeypatch.setattr(pairs, "_SCORE_CHUNK", chunk)
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
    # items of one, two and all six (batch, head) matrices, ranked in row
    # slices of one row, of four rows (a ragged cut that crosses matrices)
    # and of one whole matrix, on workers that interleave often; every cut
    # gives the oracle's batch, so the batch is the same for any cut
    q, k = map(Tensor, _tied_scores_case())
    key_mask = np.array([[False] * 7, [True, False, True, True, False, True, True]])
    monkeypatch.setattr(pool, "_WORKERS", workers)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with np.errstate(invalid="ignore"):
            for causal in (False, True):
                for mask in (None, key_mask):
                    for K in (1, 3, 4, 7):
                        want = topk_sort(q, k, K, causal=causal, key_mask=mask)
                        for chunk in (42, 84, 10 ** 9):
                            for rows in (1, 4, 6):
                                monkeypatch.setattr(pairs, "_SCORE_CHUNK", chunk)
                                monkeypatch.setattr(pairs, "_SLICE_SCORES", 7 * rows)
                                got = pairs.topk_concat(q, k, K, causal=causal,
                                                        key_mask=mask)
                                case = (causal, mask is not None, K, chunk, rows)
                                assert np.array_equal(got.selected_indices,
                                                      want.selected_indices), case
                                assert np.array_equal(got.valid_mask,
                                                      want.valid_mask), case
    finally:
        sys.setswitchinterval(switch)


def test_pooled_topk_keeps_the_callers_errstate(monkeypatch):
    # inf * 0 makes NaN scores inside the items, which run on the pool
    monkeypatch.setattr(pool, "_WORKERS", 2)
    monkeypatch.setattr(pairs, "_SCORE_CHUNK", 1)
    q = np.ones((1, 2, 3, 2))
    q[0, :, 0, 0] = np.inf
    k = Tensor(np.zeros((1, 2, 4, 2)))
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        pairs.topk_concat(Tensor(q), k, 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_topk_never_holds_a_whole_candidate_mask(monkeypatch, workers):
    # the infer_topk_t1024 shape without a mask: each running item holds
    # its score matrix and one 2 MB slice's partition copy and flags, never
    # a [B,H,T_q,T_k] candidate mask or a whole matrix's partition copy
    B, H, T, D, K = 1, 4, 1024, 16, 32
    rng = np.random.default_rng(29)
    q = Tensor(rng.standard_normal((B, H, T, D)))
    k = Tensor(rng.standard_normal((B, H, T, D)))
    monkeypatch.setattr(pool, "_WORKERS", workers)
    pairs.topk_concat(q, k, K)                      # the pool starts
    outputs = B * H * T * K * 9
    item = T * T * 8 + 3 * pairs._SLICE_SCORES * 8 // 2
    bound = outputs + workers * item
    peak = bench.peak_bytes(lambda: pairs.topk_concat(q, k, K))
    assert peak < bound
    assert peak + B * H * T * T > bound             # room for no candidate mask


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
