"""Gated logit ODE, Euler integration, clamping, and attention assembly."""

import contextlib
import csv
import gc
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (concat, concat_pairs, euler_chain, euler_step,
                      gru_unroll, logits, pair_sum, peak_bytes, pool_workers)
from fluid import attention as A
from fluid import model as M
from fluid import pairs, pool
from fluid import reference as R
from fluid import tensor as T
from fluid import training as TR
from fluid import verify
from fluid.tensor import Tensor


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def make_core(hidden=2, seed=0):
    return A.RecurrentGateCore(hidden, np.random.default_rng(seed), heads=1)


# --------------------------------------------------------------------------
# gates
# --------------------------------------------------------------------------

def _project(core, u):
    """u W_u for raw pair inputs u [P, 2D] as a pair input [1,1,P,1,3h]:
    query i is u[i, :D], paired with key i, u[i, D:]."""
    P, D = u.shape[0], u.shape[1] // 2
    pb = pairs.PairBatch(selected_indices=np.arange(P).reshape(1, 1, P, 1),
                         valid_mask=np.ones((1, 1, P, 1), dtype=bool))
    return core.project_pairs(Tensor(u[None, None, :, :D]),
                              Tensor(u[None, None, :, D:]), pb)


def _traj_gates(traj):
    """The gates [2N, ...] of a trajectory: f_tau rows, then f_phi rows."""
    return np.moveaxis(np.concatenate([traj.f_tau, traj.f_phi], axis=-1), -1, 0)


def _gates(core, u, n_steps):
    """The gates [2N,1,1,P,1] the core's unroll gives raw pair inputs u."""
    _, traj = core.unroll(_project(core, u), n_steps, trajectory=True)
    return _traj_gates(traj)


def test_gate_ranges():
    core = make_core()
    rng = np.random.default_rng(1)
    u = rng.uniform(-3, 3, (10, 4))
    for n_steps in (1, 2):
        gates = _gates(core, u, n_steps)
        assert gates.shape == (2 * n_steps, 1, 1, 10, 1)
        assert (gates[:n_steps] >= A._EPSILON).all()
        assert (np.abs(gates[n_steps:]) < 1.0).all()


def test_gate_zero_weight_cell():
    core = make_core()
    for p in core.parameters().values():
        p.data[...] = 0.0
    # f_tau reads the hidden state through W_o's row 1: 1 makes a nonzero
    # state show
    core.W_o.data[:, 1] = 1.0
    u = np.ones((3, 4))
    for n_steps in (1, 2):
        gates = _gates(core, u, n_steps)
        assert np.allclose(gates[n_steps:], 0.0)
        assert np.allclose(gates[:n_steps], _softplus(0.0) + 1e-3)


def test_gate_hidden_carries_state():
    core = make_core(seed=3)
    u = np.random.default_rng(4).uniform(-1, 1, (5, 4))
    f_phi0, f_phi1 = _gates(core, u, 2)[2:]
    assert not np.allclose(f_phi0, f_phi1)


def test_gate_core_parameters_lead_with_the_head_axis():
    H, D, h = 3, 5, 5       # the hidden size is the head width
    core = A.RecurrentGateCore(h, np.random.default_rng(7), heads=H)
    shapes = {n: p.shape for n, p in core.parameters().items()}
    assert shapes == {"W_u": (H, 2 * D, 3 * h), "w_t": (H, 3 * h),
                      "b_x": (H, 3 * h), "W_h": (H, h, 3 * h),
                      "W_o": (H, 2, h), "b_o": (H, 2)}
    assert all(p.requires_grad for p in core.parameters().values())
    # the initial values are drawn in the order W_u, w_t, b_x, W_h, then
    # f_phi's weights and bias (row 0 of W_o, b_o), then f_tau's (row 1)
    rng = np.random.default_rng(7)
    fans = [2 * D + 1] * 3 + [h] * 5
    sizes = [H * 2 * D * 3 * h, H * 3 * h, H * 3 * h, H * h * 3 * h,
             H * h, H, H * h, H]
    draws = [rng.uniform(-f ** -0.5, f ** -0.5, n) for f, n in zip(fans, sizes)]
    got = [core.W_u.data, core.w_t.data, core.b_x.data, core.W_h.data,
           core.W_o.data[:, 0], core.b_o.data[:, 0], core.W_o.data[:, 1],
           core.b_o.data[:, 1]]
    for want, have in zip(draws, got):
        assert np.array_equal(have.reshape(-1), want)


def _gate_case(case, rng, H=2, D=3):
    """q, k and the pair batch of one curation case, at tiny dims but for
    the cases whose work-item blocks cut rows of pairs apart (at D = 3,
    blocks of 10,922 pairs)."""
    B, T_q, T_k = {"topk_blocks": (1, 701, 40),
                   "long_rows": (2, 2, 3000)}.get(case, (2, 4, 5))
    q = rng.standard_normal((B, H, T_q, D))
    k = rng.standard_normal((B, H, T_k, D))
    key_mask = np.ones((B, T_k), dtype=bool)
    key_mask[-1, -2:] = False
    if case == "full":
        pb = pairs.full_pairwise_concat(Tensor(q), Tensor(k))
        return q, k, pb
    if case == "topk_blocks":      # a block boundary cuts a query's 20 pairs
        return q, k, pairs.topk_concat(Tensor(q), Tensor(k), 20, causal=True)
    if case == "long_rows":        # 3000-pair rows; blocks cross rows and batches
        return q, k, pairs.full_pairwise_concat(Tensor(q), Tensor(k),
                                                key_mask=key_mask)
    # causal rows and padded keys leave invalid pairs
    k, key_mask = np.ascontiguousarray(k[:, :, :T_q]), key_mask[:, :T_q]
    if case == "causal_masked":
        pb = pairs.full_pairwise_concat(Tensor(q), Tensor(k), causal=True,
                                        key_mask=key_mask)
    else:
        pb = pairs.topk_concat(Tensor(q), Tensor(k), 2, causal=True,
                               key_mask=key_mask)
    return q, k, pb


def _weighted_sum(logits, coef):
    """A scalar that weighs every logit by its own coefficient."""
    return T.tsum(T.mul(logits, Tensor(coef)))


@pytest.mark.parametrize("case", ["full", "causal_masked", "topk",
                                  "topk_blocks", "long_rows"])
# the tape keeps no hidden state: each backward item replays h_0 ..
# h_{N-1} of its pairs
@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 6])
def test_fused_gates_match_composed_oracle(case, n_steps):
    rng = np.random.default_rng(41)
    core = A.RecurrentGateCore(3, rng, heads=2)
    qa, ka, pb = _gate_case(case, rng)
    if case != "full":
        assert not pb.valid_mask.all()
    _assert_fused_matches_composed(core, qa, ka, pb, n_steps, rng)


def _composed_logits(core, q, k, pb, n_steps):
    """The composed oracle of ``logits``: the GRU of ``gru_unroll`` on
    the materialized pair inputs, invalid slots then set to the constant
    floor gates f_tau = eps, f_phi = 0, and the chain of ``euler_step``s
    under the clamp of the valid pairs' f_tau. Returns (final logits,
    gates)."""
    valid = pb.valid_mask
    gates = gru_unroll(core, concat_pairs(q, k, pb), n_steps)
    floor = np.zeros(gates.shape)
    floor[:n_steps] = A._EPSILON
    keep = np.broadcast_to(valid, gates.shape).astype(np.float64)
    gates = T.add(T.mul(gates, Tensor(keep)), Tensor(np.where(valid, 0.0, floor)))
    dt = A.clamp_dt(1 / n_steps, gates.data[:n_steps][:, valid])
    final, _ = euler_chain(gates, dt, Tensor(np.zeros(pb.valid_mask.shape)))
    return final, gates.data


def _assert_fused_matches_composed(core, qa, ka, pb, n_steps, rng,
                                   errstate=None, coef=None):
    """Final logits, gates and every gradient of the kernel within 1e-12
    of the composed oracle's, under a loss that weighs every final logit
    differently, those of invalid pairs too, or by ``coef``. The kernel's
    forward and backward run under ``np.errstate(**errstate)``."""
    if coef is None:
        coef = rng.standard_normal(pb.valid_mask.shape)
    results = []
    for fused in (True, False):
        q = Tensor(qa.copy(), requires_grad=True)
        k = Tensor(ka.copy(), requires_grad=True)
        for p in core.parameters().values():
            p.zero_grad()
        with np.errstate(**(errstate if fused and errstate else {})):
            if fused:
                final, traj = logits(core, q, k, pb, n_steps, trajectory=True)
                gates = _traj_gates(traj)
            else:
                final, gates = _composed_logits(core, q, k, pb, n_steps)
            _weighted_sum(final, coef).backward()
        grads = dict(core.parameters(), q=q, k=k)
        # the composed path never reaches W_h when there is one step
        grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad
                 for n, p in grads.items()}
        results.append((final.data, gates, grads))
    (final, gates, grads), (ref_final, ref_gates, ref_grads) = results
    assert np.abs(final - ref_final).max() <= 1e-12
    assert np.abs(gates - ref_gates).max() <= 1e-12
    assert set(grads) == set(ref_grads) and len(grads) == 8
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape
        assert np.abs(grads[name] - ref).max() <= 1e-12, name


@pytest.mark.parametrize("bias", [-40.0, 40.0])
@pytest.mark.parametrize("n_steps", [1, 2, 5])
@pytest.mark.parametrize("case", ["full", "causal_masked"])
def test_f_tau_derivative_from_the_kept_gates_matches_the_oracle(case, n_steps,
                                                                 bias):
    # the backward reads sigmoid(o) = -expm1(eps - f_tau) off the gates;
    # at o = -40, softplus(o) ~ 4e-18 is far below eps, and at o = +40
    # sigmoid(o) rounds to 1
    rng = np.random.default_rng(71)
    core = A.RecurrentGateCore(3, rng, heads=2)
    core.b_o.data[:, 1] = bias
    qa, ka, pb = _gate_case(case, rng)
    assert pb.valid_mask.all() == (case == "full")    # unpacked, packed
    with T.no_grad():
        f_tau = logits(core, Tensor(qa), Tensor(ka), pb, n_steps,
                       trajectory=True)[1].f_tau
    f_tau = f_tau[pb.valid_mask]        # invalid slots hold the floor eps
    assert (f_tau < 2e-3).all() if bias < 0 else (f_tau > 30).all()
    _assert_fused_matches_composed(core, qa, ka, pb, n_steps, rng)


@pytest.mark.parametrize("bias", [-800.0, 800.0])
def test_saturated_f_tau_is_exact_under_raising_errstate(bias):
    # softplus takes e^{-|o|}, which underflows to 0 at |o| = 800, where
    # log1p(0) = 0 is exact: f_tau is eps or o + eps to the last bit
    rng = np.random.default_rng(83)
    core = A.RecurrentGateCore(3, rng, heads=2)
    core.W_o.data[:, 1] = 0.0       # the f_tau pre-activation is the bias
    core.b_o.data[:, 1] = bias
    qa, ka, pb = _gate_case("full", rng)
    with np.errstate(all="raise"), T.no_grad():
        final, traj = logits(core, Tensor(qa), Tensor(ka), pb, 3,
                             trajectory=True)
    assert (traj.f_tau == max(bias, 0.0) + 1e-3).all()
    assert np.isfinite(final.data).all()


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 6])
def test_forward_and_backward_each_run_the_cell_n_times_per_item(n_steps,
                                                                  monkeypatch):
    rng = np.random.default_rng(73)
    core = A.RecurrentGateCore(3, rng, heads=2)
    # f_tau below 0.7 (1.2 without the shift): the clamp stays inactive at
    # every dt_nominal = 1/N <= 1
    core.b_o.data[:, 1] -= 1.0
    qa, ka, pb = _gate_case("topk_blocks", rng)
    items = len(A._items(_packed_counts(pb), 3 * 3))
    assert items > core.heads
    calls = []
    cell = A._cell

    def counting(*args):
        calls.append(args[0].shape)
        cell(*args)

    monkeypatch.setattr(A, "_cell", counting)
    with T.no_grad():
        logits(core, Tensor(qa), Tensor(ka), pb, n_steps)
    assert len(calls) == n_steps * items
    q = Tensor(qa, requires_grad=True)
    final, _ = logits(core, q, Tensor(ka), pb, n_steps)
    assert len(calls) == 2 * n_steps * items
    T.tsum(final).backward()
    assert len(calls) == 3 * n_steps * items
    # where the clamp acts, each forward runs the items a second time, at
    # the clamped dt; the backward still runs them once
    core.b_o.data[:, 1] += 7.0
    calls.clear()
    with T.no_grad():
        logits(core, Tensor(qa), Tensor(ka), pb, n_steps)
    assert len(calls) == 2 * n_steps * items
    final, _ = logits(core, q, Tensor(ka), pb, n_steps)
    assert len(calls) == 4 * n_steps * items
    T.tsum(final).backward()
    assert len(calls) == 5 * n_steps * items


@pytest.mark.parametrize("n_steps", [1, 2, 5])
@pytest.mark.parametrize("case", ["full", "causal_masked"])
def test_saturated_gates_stay_finite_and_match_the_oracle(case, n_steps,
                                                          monkeypatch):
    # reset and update pre-activations near +-800: exp overflows to inf in
    # the cell's denominators (and underflows to 0), so r and z are exactly
    # 0 or 1; a backward form such as (d - 1) / d^2 would give inf / inf
    rng = np.random.default_rng(79)
    core = A.RecurrentGateCore(3, rng, heads=2)
    rz = core.b_x.data[:, :6]
    rz[...] = np.copysign(800.0, rz)
    qa, ka, pb = _gate_case(case, rng)
    overflowed = []
    cell = A._cell

    def spy(*args):
        cell(*args)
        # z's denominators, the rows the cell writes at every step
        overflowed.append(np.isinf(args[3][-len(args[4]):]).any())

    monkeypatch.setattr(A, "_cell", spy)
    _assert_fused_matches_composed(core, qa, ka, pb, n_steps, rng,
                                   errstate={"all": "raise"})
    assert any(overflowed)


class _Counting(np.ndarray):
    """An array that counts the ufunc calls, matmul's among them, that read
    or write it."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _Counting.calls += 1
        plain = [a.view(np.ndarray) if isinstance(a, _Counting) else a
                 for a in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, _Counting)
                                  else o for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        return result if out is None else out[0]


class _CountingNumpy:
    """numpy, whose ``empty`` makes ``_Counting`` arrays."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(*args, **kwargs):
        return np.empty(*args, **kwargs).view(_Counting)


def test_a_forward_item_makes_a_fixed_number_of_numpy_calls_per_step(
        monkeypatch):
    # the calls on the item's input, gates and every buffer it allocates:
    # each is one pass over a block and one GIL handoff between workers
    rng = np.random.default_rng(83)
    h, P = 4, 64
    core = A.RecurrentGateCore(h, rng, heads=1)
    w = {n: p.data for n, p in core.parameters().items()}
    monkeypatch.setattr(A, "np", _CountingNumpy())

    def calls(n_steps):
        x = rng.standard_normal((3 * h, P)).view(_Counting)
        gates = np.empty((2 * n_steps, P)).view(_Counting)
        _Counting.calls = 0
        A._forward_block(x, w, 0, gates)
        made = _Counting.calls
        assert np.isfinite(gates).all()
        return made

    at_5 = calls(5)
    assert at_5 <= 14 * 5
    # a later step: the hidden GEMM, 8 calls of the cell, 3 of the state
    # update and the heads' GEMM
    assert calls(6) - at_5 <= 13


def test_the_cell_in_place_on_the_hidden_projection_matches_separate_buffers():
    # the forward passes d = hpn[:2h] and cn = hpn[2h:]; saturated entries
    # take the overflow path of the denominators too
    rng = np.random.default_rng(89)
    h, P = 5, 257
    xn, hpn = rng.standard_normal((2, 3 * h, P)) * 3.0
    xn[0, :7] = 800.0
    hpn[1, 3:9] = -800.0
    tw = rng.standard_normal((3 * h, 1))
    d, cn, alias = np.empty((2 * h, P)), np.empty((h, P)), hpn.copy()
    A._cell(xn, hpn, tw, d, cn)
    A._cell(xn, alias, tw, alias[:2 * h], alias[2 * h:])
    assert np.isinf(d).any()
    assert np.array_equal(alias, np.concatenate([d, cn]))


@pytest.mark.parametrize("n_steps", [2, 5, 60])
def test_a_forward_item_allocates_one_scratch_and_one_state(n_steps):
    # the cell writes its denominators and -c over the hidden projection:
    # beyond the caller's input and gates, an item holds [max(3h, N), P]
    # and [h, P], plus its copies of the head's small weights and numpy's
    # 64 KB ufunc buffer, which broadcasting the [3h, 1] time terms takes
    rng = np.random.default_rng(97)
    h, P = 16, 4096
    core = A.RecurrentGateCore(h, rng, heads=1)
    w = {n: p.data for n, p in core.parameters().items()}
    x = rng.standard_normal((3 * h, P))
    gates = np.empty((2 * n_steps, P))
    weights = 8 * (2 * h * 3 * h + n_steps * 3 * h)
    tracemalloc.start()
    try:
        A._forward_block(x, w, 0, gates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(gates).all()
    assert peak <= (max(3 * h, n_steps) + h) * P * 8 + weights + 70_000, peak


@pytest.mark.parametrize("taped", [False, True])
def test_each_pair_projection_has_one_buffer(taped, monkeypatch):
    # the [B,H,T,3h] products are copied channel-major and freed, and the
    # pair input holds that one buffer of each projection. The tape holds
    # no pair projection: under a tape the pair input keeps q and k, the
    # gate op's parents, and drops the projections once its forward has run
    rng = np.random.default_rng(101)
    core = A.RecurrentGateCore(4, rng, heads=2)
    q = Tensor(rng.standard_normal((2, 2, 9, 4)), requires_grad=taped)
    k = Tensor(rng.standard_normal((2, 2, 7, 4)), requires_grad=taped)
    pb = pairs.topk_concat(q, k, 3)
    products, matmul = [], np.matmul

    def spy(*args, **kwargs):
        out = matmul(*args, **kwargs)
        products.append(weakref.ref(out))
        return out

    monkeypatch.setattr(np, "matmul", spy)
    with contextlib.nullcontext() if taped else T.no_grad():
        pin = core.project_pairs(q, k, pb)
    monkeypatch.setattr(np, "matmul", matmul)
    gc.collect()
    assert len(products) == 2 and all(ref() is None for ref in products)
    with T.no_grad():
        want = (T.matmul(q, T.narrow(core.W_u, -2, 0, 4)).data,
                T.matmul(k, T.narrow(core.W_u, -2, 4, 4)).data)
    for got, product in zip((pin._q, pin._k), want):
        assert got.flags.c_contiguous
        assert np.array_equal(got, product.transpose(1, 3, 0, 2).reshape(
            2, 12, -1))
    if taped:
        assert pin.sources[0] is q and pin.sources[1] is k
    else:
        assert pin.sources is None
    final, _ = core.unroll(pin, 2)
    assert final.requires_grad == taped
    if taped:
        assert final._parents == (q, k, core.W_u, core.W_h, core.w_t,
                                  core.b_x, core.W_o, core.b_o)
        assert pin._q is None and pin._k is None
    else:
        assert pin._q is not None and pin._k is not None


def test_fused_gates_pass_grad_check():
    rng = np.random.default_rng(43)
    core = A.RecurrentGateCore(3, rng, heads=2)
    # f_tau below 0.7 (1.23 without the shift), so the clamp, whose dt is
    # no function on the tape, stays inactive under the differences at
    # every dt_nominal = 1/N <= 1
    core.b_o.data[:, 1] -= 1.0
    qa, ka, pb = _gate_case("causal_masked", rng)
    q = Tensor(qa, requires_grad=True)
    k = Tensor(ka, requires_grad=True)
    params = dict(core.parameters(), q=q, k=k)
    for n_steps in (1, 2, 3, 5):
        coef = rng.standard_normal(pb.valid_mask.shape)

        def loss():
            final, traj = logits(core, q, k, pb, n_steps, trajectory=True)
            assert traj.dt_effective == traj.dt_nominal == 1 / n_steps
            return _weighted_sum(final, coef)

        # the op tolerance of the gradients verify suite
        report = TR.grad_check(loss, params)
        assert report["max_rel_error"] < 1e-4, (n_steps, report["per_param"])


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("case", ["full", "causal_masked"])
def test_tape_keeps_steps_1_to_n_minus_2_of_the_packed_pairs(case, n_steps):
    # the tape keeps no hidden state, of steps 1 .. N-2 or of any other:
    # beyond the final logits, which the untaped forward returns
    # too, it holds the projected queries and keys and the pair tables,
    # and one state of every packed pair would outweigh them
    rng = np.random.default_rng(61)
    B, T_, H, h = 2, 48, 2, 8
    core = A.RecurrentGateCore(h, rng, heads=H)
    q = Tensor(rng.standard_normal((B, H, T_, h)), requires_grad=True)
    k = Tensor(rng.standard_normal((B, H, T_, h)))
    key_mask = np.arange(T_) < np.array([[T_], [T_ - 9]])
    pb = (pairs.full_pairwise_concat(q, k) if case == "full" else
          pairs.full_pairwise_concat(q, k, causal=True, key_mask=key_mask))
    logits(core, q, k, pb, n_steps)                  # the pool starts

    def held(taped):
        tracemalloc.start()
        try:
            with contextlib.nullcontext() if taped else T.no_grad():
                final = logits(core, q, k, pb, n_steps)[0]
            return tracemalloc.get_traced_memory()[0], final
        finally:
            tracemalloc.stop()

    untaped, _ = held(False)
    taped, final = held(True)
    assert final.requires_grad
    packed = int(pb.valid_mask[:, 0].sum())
    state = H * h * packed * 8      # one hidden state of every packed pair
    projections = 2 * H * 3 * h * B * T_ * 8
    # the packed slots [packed] and the invalid flags [slots] of each head,
    # and the tables of each query row
    tables = (0 if pb.valid_mask.all() else
              H * (packed * 8 + pb.valid_mask[:, 0].size)) + H * B * T_ * 16
    slack = 10_000                  # the op's closure, tensors and views
    bound = untaped + projections + tables + slack
    assert taped <= bound, (taped, bound)
    assert bound < untaped + state


def test_taped_forward_keeps_no_gates_and_no_euler_states():
    # long rows and many steps on a tiny head: the gates [2N,...] and the
    # Euler states [N+1,...] outweigh everything else the tape keeps
    B, T_, d, H, N = 2, 64, 4, 2, 8
    mh = A.MultiHeadLan(_mh_cfg(d_model=d, heads=H, euler_steps=N,
                                causal=True), np.random.default_rng(81))
    x = Tensor(np.random.default_rng(82).standard_normal((B, T_, d)),
               requires_grad=True)
    key_mask = np.ones((B, T_), dtype=bool)
    key_mask[1, -20:] = False
    with T.no_grad():
        mh.forward(x, x, key_mask=key_mask)      # the pool starts
    tracemalloc.start()
    try:
        with T.no_grad():
            untaped = mh.forward(x, x, key_mask=key_mask)
        baseline = tracemalloc.get_traced_memory()[0]
        out = mh.forward(x, x, key_mask=key_mask)
        live = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert out.requires_grad and not untaped.requires_grad
    valid = np.tril(np.ones((T_, T_), dtype=bool)) & key_mask[:, None, :]
    packed = int(valid.sum())
    state = H * (d // H) * packed * 8       # one hidden state of every pair
    final = H * B * T_ * T_ * 8
    # the final logits, the softmax weights and the packed pairs' int32
    # slots; q, k, v, the outputs and the row tables take less than half
    # the final logits' bytes. No pair projection, mask or key index is kept
    bound = 2 * final + H * packed * 4 + final // 2
    assert live <= bound, (live, bound)
    assert bound < (N + 1) * final < 2 * N * final   # the states, the gates
    # no hidden state: one of every pair would break the bound
    assert bound < live + state


@pytest.mark.parametrize("workers", [1, 2])
def test_no_grad_forward_never_holds_the_gates_of_the_pass(workers):
    # the infer_topk_t1024 layer: each item's gates go through the
    # integrator as they come and are dropped, so the forward holds the
    # running items' scratch and a few blocks' gates, never the gates
    # [2N, H, pairs] of the whole pass; and while the gates run, it holds
    # only what they read: no v, no second key index, no 8-byte keys, and
    # neither q nor k
    B, T_, d, H, N, K = 1, 1024, 64, 4, 5, 32
    mh = A.MultiHeadLan(_mh_cfg(d_model=d, heads=H, euler_steps=N, top_k=K),
                        np.random.default_rng(91))
    x = Tensor(np.random.default_rng(92).standard_normal((B, T_, d)))
    with pool_workers(workers), T.no_grad():
        mh.forward(x, x)                            # the pool starts
        peak = peak_bytes(lambda: mh.forward(x, x))
    h, pairs_ = d // H, B * T_ * K
    block = A._BLOCK_SCALARS // (3 * h)
    gates = 2 * N * H * pairs_ * 8
    # what the pass holds while its gates run: the projections qp and kp,
    # the logits, and the pair batch's int32 keys and flags
    held = ((2 * H * 3 * h * B * T_ + H * pairs_) * 8
            + H * pairs_ * 5)
    # an item's input, scratch, state and gates
    item = (3 * h + max(3 * h, N) + h + 2 * N) * block * 8
    # the gates of the blocks the caller has yet to integrate: a few with
    # one worker, and with pooled items as many as finish while the caller
    # waits for the GIL
    waiting = (3 + 24 * (workers - 1)) * 2 * N * block * 8
    bound = held + workers * item + waiting
    assert peak < bound, (peak, bound)
    assert peak + gates > bound                     # room for no whole gates
    if workers == 1:
        # items run one at a time, so the peak holds still: room for no v,
        # nor for keys of 8 bytes or a second key index, which each take
        # as much as v, nor for q and k, which take twice as much
        assert peak + B * T_ * d * 8 > bound
        assert peak + H * pairs_ * 4 > bound


@pytest.mark.parametrize("workers", [1, 2])
def test_taped_backward_holds_the_kept_states_and_the_running_items(workers):
    # the train_spiral cross-attention core: 26 decoder queries over 35
    # padded encoder keys, h = 8, N = 5. The tape keeps no hidden state,
    # and each backward item replays h_0 .. h_{N-1} of its live pairs, so
    # a taped step holds the running items' states, never one state of
    # every pair
    B, T_q, T_k, h, H, N = 8, 26, 35, 8, 4, 5
    rng = np.random.default_rng(93)
    core = A.RecurrentGateCore(h, rng, heads=H)
    q = Tensor(rng.standard_normal((B, H, T_q, h)), requires_grad=True)
    k = Tensor(rng.standard_normal((B, H, T_k, h)), requires_grad=True)
    lengths = np.array([35, 33, 30, 35, 28, 31, 35, 34])
    key_mask = np.arange(T_k) < lengths[:, None]
    pb = pairs.full_pairwise_concat(q, k, key_mask=key_mask)
    coef = rng.standard_normal(pb.valid_mask.shape)
    coef[:, :, -4:] = 0.0           # padded query rows the loss never reads

    def step():
        _weighted_sum(logits(core, q, k, pb, N)[0], coef).backward()

    with pool_workers(workers):
        step()                                      # the pool starts
        peak = peak_bytes(step)
    valid = pb.valid_mask[:, 0]
    state = H * h * int(valid.sum()) * 8    # one hidden state of every pair
    live = int((valid & (coef[:, 0] != 0)).sum())
    block = max(b - a for a, b in A._blocks(live, 3 * h))
    # an item's input, which becomes dx, its states h_0 .. h_{N-1}, step
    # 0's cell outputs, the cell records of steps 1 .. N-1, two rows of
    # scratch, and the heads' gradients with their scratch
    item = (3 * h + N * h + 2 * h + 4 * h * (N - 1) + 2 * h
            + 5 * N) * block * 8
    # the logits, the loss's arrays and gradients, the int32 pair slots
    # and live indices, and the projections the backward makes again with
    # their gradients: 8 final logits' bytes at most
    rest = 8 * B * H * T_q * T_k * 8
    bound = workers * item + rest
    assert peak < bound, (peak, bound)
    assert peak + state > bound     # room for no hidden state of every pair


@pytest.mark.parametrize("case", ["causal_masked", "topk", "long_rows"])
def test_invalid_slots_hold_the_floor_gates(case):
    rng = np.random.default_rng(67)
    core = A.RecurrentGateCore(3, rng, heads=2)
    qa, ka, pb = _gate_case(case, rng)
    n_steps = 3
    with T.no_grad():
        traj = logits(core, Tensor(qa), Tensor(ka), pb, n_steps,
                      trajectory=True)[1]
    valid = pb.valid_mask
    assert (~valid).any()
    assert (traj.f_tau[~valid] == A._EPSILON).all()
    assert (traj.f_phi[~valid] == 0.0).all()
    assert not traj.a[~valid].any()
    assert traj.dt_effective == A.clamp_dt(1 / n_steps, traj.f_tau[valid])


def test_masked_keys_leave_outputs_unchanged_under_an_active_clamp():
    # a zero input leaves every hidden state 0 (no bias, time or recurrent
    # weights), so its f_tau is softplus(b_tau) + eps; positive inputs and
    # candidate weights keep every valid pair's hidden state positive, and a
    # negative f_tau head pulls its f_tau below that. Both exceed 1/dt
    B, H, T_k, D, pad, n_steps = 2, 2, 5, 3, 3, 2
    rng = np.random.default_rng(89)
    core = A.RecurrentGateCore(D, rng, heads=H)
    for p in (core.b_x, core.w_t, core.W_h):
        p.data[:] = 0.0
    core.W_u.data[..., 2 * D:] = np.abs(core.W_u.data[..., 2 * D:])
    core.W_o.data[:, 1] = -0.5
    core.b_o.data[:, 1] = 6.0
    cfg = A.LanConfig(d_model=H * D, heads=H, euler_steps=n_steps)
    qa = rng.uniform(0.5, 1.5, (B, H, T_k, D))
    ka = rng.uniform(0.5, 1.5, (B, H, T_k + pad, D))
    va = rng.standard_normal((B, H, T_k + pad, D))
    key_mask = np.arange(T_k + pad) < T_k
    with T.no_grad():
        out, alpha, pb, traj = A.attend(
            Tensor(qa), Tensor(ka[:, :, :T_k]), Tensor(va[:, :, :T_k]), core, cfg,
            trajectory=True)
        out_pad, alpha_pad, pb_pad, traj_pad = A.attend(
            Tensor(qa), Tensor(ka), Tensor(va), core, cfg,
            key_mask=np.broadcast_to(key_mask, (B, T_k + pad)), trajectory=True)
    assert pb.valid_mask.all() and not pb_pad.valid_mask.all()
    w = {n: p.data for n, p in core.parameters().items()}
    for hd in range(H):
        zero = np.empty((2 * n_steps, 1))
        A._forward_block(np.zeros((3 * D, 1)), w, hd, zero)
        f_tau = traj.f_tau[:, hd]
        assert zero[:n_steps].min() > max(f_tau.max(), n_steps)
        assert f_tau.min() > n_steps
    assert traj.dt_effective < 1 / n_steps
    assert traj_pad.dt_effective == traj.dt_effective
    assert np.abs(out_pad.data - out.data).max() <= 1e-12
    assert np.abs(alpha_pad.data[..., :T_k] - alpha.data).max() <= 1e-12
    assert not alpha_pad.data[..., T_k:].any()


@pytest.mark.parametrize("case", [dict(), dict(causal=True), dict(top_k=2)])
def test_multi_head_on_no_sequences_returns_empty_outputs_and_gradients(case):
    cfg = A.LanConfig(d_model=8, heads=2, euler_steps=3, **case)
    block = A.MultiHeadLan(cfg, np.random.default_rng(0))
    x = Tensor(np.zeros((0, 5, 8)), requires_grad=True)
    with T.no_grad():
        assert block.forward(x, x).shape == (0, 5, 8)
    out = block.forward(x, x, key_mask=np.ones((0, 5), dtype=bool))
    assert out.shape == (0, 5, 8)
    T.tsum(out).backward()
    assert x.grad.shape == (0, 5, 8)
    for name, p in block.parameters().items():
        assert p.grad.shape == p.shape and not p.grad.any(), name


@pytest.mark.parametrize("case", ["full", "causal_masked", "topk",
                                  "topk_blocks"])
def test_gate_cores_return_rows_in_the_pair_batch_shape(case):
    rng = np.random.default_rng(45)
    qa, ka, pb = _gate_case(case, rng)
    q, k = Tensor(qa), Tensor(ka)
    for core in (A.RecurrentGateCore(3, rng, heads=2),
                 R.FrozenGates()):
        for n_steps in (1, 3):
            # the core interface attend calls
            final, traj = core.unroll(core.project_pairs(q, k, pb), n_steps,
                                      trajectory=True)
            # the frozen gates take the attention limit's one step
            steps = 1 if isinstance(core, R.FrozenGates) else n_steps
            assert final.shape == pb.valid_mask.shape
            assert traj.a.shape == pb.valid_mask.shape + (steps + 1,)
            assert traj.f_tau.shape == traj.f_phi.shape == \
                pb.valid_mask.shape + (steps,)


# the pair shapes of the benchmark workloads:
# (B, H, T_q, T_k, D, top-k, causal, most padded keys of a sequence)
_WORKLOAD_PAIRS = {
    "topk_t1024": (1, 4, 1024, 1024, 16, 32, False, 0),
    "full_t256": (1, 4, 256, 256, 16, None, False, 0),
    "spiral_encoder": (8, 4, 35, 35, 8, None, False, 9),
    "spiral_causal_decoder": (8, 4, 26, 26, 8, None, True, 0),
    "spiral_masked_cross": (8, 4, 26, 35, 8, None, False, 9),
}


def _workload_pairs(case, rng):
    B, H, T_q, T_k, D, K, causal, pad = _WORKLOAD_PAIRS[case]
    q = Tensor(rng.standard_normal((B, H, T_q, D)))
    k = Tensor(rng.standard_normal((B, H, T_k, D)))
    key_mask = None
    if pad:
        key_mask = np.ones((B, T_k), dtype=bool)
        for b, n in enumerate(rng.integers(0, pad + 1, B)):
            key_mask[b, T_k - n:] = False
    if K is None:
        pb = pairs.full_pairwise_concat(q, k, causal=causal, key_mask=key_mask)
    else:
        pb = pairs.topk_concat(q, k, K, causal=causal, key_mask=key_mask)
    return A.RecurrentGateCore(D, rng, heads=H), q, k, pb


def _packed_counts(pb):
    """The pairs the gate kernel runs per head: the valid ones."""
    valid = np.swapaxes(pb.valid_mask, 0, 1).reshape(pb.valid_mask.shape[1], -1)
    return [int(v.sum()) for v in valid]


def _kernel_on(core, up, valid, n_steps):
    """The gate kernel's work items fed a materialized pair input ``up``
    [B,H,...,3h]: per head its valid pairs; every invalid slot gets the
    floor gates f_tau = eps, f_phi = 0. Returns the gates [2N, H, pairs]."""
    B, H, C = up.shape[0], up.shape[1], up.shape[-1]
    P = up.size // (H * C)
    x = np.ascontiguousarray(
        up.reshape(B, H, P // B, C).transpose(1, 3, 0, 2)).reshape(H, C, P)
    valid = np.swapaxes(valid, 0, 1).reshape(H, P)
    w = {n: p.data for n, p in core.parameters().items()}
    gates = np.empty((2 * n_steps, H, P))
    for hd in range(H):
        v = valid[hd]
        packed = x[hd][:, v]
        out = np.empty((2 * n_steps, packed.shape[1]))
        for a, b in A._blocks(packed.shape[1], C):
            A._forward_block(np.ascontiguousarray(packed[:, a:b]), w, hd,
                             out[:, a:b])
        gates[:, hd, v] = out
        gates[:n_steps, hd, ~v] = A._EPSILON
        gates[n_steps:, hd, ~v] = 0.0
    return gates


@pytest.mark.parametrize("case", list(_WORKLOAD_PAIRS))
def test_unroll_equals_the_kernel_on_oracle_pair_sum(case):
    # work items form their own pair inputs; the gates are bitwise those
    # of the same kernel fed the materialized pair_sum
    core, q, k, pb = _workload_pairs(case, np.random.default_rng(53))
    assert pb.valid_mask.all() == (case in ("topk_t1024", "full_t256"))
    n_steps = 3
    with T.no_grad():
        pin = core.project_pairs(q, k, pb)
        gates = _traj_gates(core.unroll(pin, n_steps, trajectory=True)[1])
        up = pair_sum(*core._projections(q, k), pb)
    assert (pin.shape, pin.size) == (up.shape, up.size)
    got = np.moveaxis(gates, 2, 1).reshape(2 * n_steps, core.heads, -1)
    assert np.array_equal(got, _kernel_on(core, up.data, pb.valid_mask,
                                          n_steps))


def test_items_hold_the_same_scalars_at_every_head_width(monkeypatch):
    # blocks are sized in scalars: an h = 8 item takes 4096 pairs and an
    # h = 16 item 2048, so each forms an input [3h, pairs] of the budget
    shapes = {}
    forward_block = A._forward_block

    def spy(x, *rest):
        shapes.setdefault(x.shape[0] // 3, []).append(x.shape)
        return forward_block(x, *rest)

    monkeypatch.setattr(A, "_forward_block", spy)
    rng = np.random.default_rng(101)
    for h in (8, 16):
        core = A.RecurrentGateCore(h, rng, heads=1)
        q = Tensor(rng.standard_normal((1, 1, 128, h)))
        k = Tensor(rng.standard_normal((1, 1, 64, h)))
        with T.no_grad():
            logits(core, q, k, pairs.full_pairwise_concat(q, k), 2)
    assert shapes == {8: [(24, 4096)] * 2, 16: [(48, 2048)] * 4}
    assert A._BLOCK_SCALARS == 24 * 4096 == 48 * 2048


def test_gates_never_build_the_pair_input():
    # with 3h >> 2N, one materialized pair input outweighs everything the
    # gates allocate: their outputs, the key index and each worker's blocks
    rng = np.random.default_rng(59)
    B, H, T_q, D, K, n_steps = 1, 2, 2048, 16, 32, 2
    core = A.RecurrentGateCore(D, rng, heads=H)
    q = Tensor(rng.standard_normal((B, H, T_q, D)))
    k = Tensor(rng.standard_normal((B, H, T_q, D)))
    pb = pairs.topk_concat(q, k, K)
    pair_input_bytes = H * 3 * D * (B * T_q * K) * 8
    with pool_workers(2), T.no_grad():
        logits(core, q, k, pb, n_steps)   # the pool starts
        tracemalloc.start()
        try:
            logits(core, q, k, pb, n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < pair_input_bytes, (peak, pair_input_bytes)


# --------------------------------------------------------------------------
# the whole per-head pipeline against its composed oracle, on drawn cases
# --------------------------------------------------------------------------

@st.composite
def _attend_cases(draw):
    """Shapes, curation, key padding, a gate block budget, a worker count
    and whether f_tau is raised until the clamp acts, for one ``attend``.
    Blocks of 1 to 5 pairs cut query rows and batch rows apart."""
    B, H, D = (draw(st.integers(1, n)) for n in (3, 2, 3))
    T_q, T_k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return dict(B=B, H=H, D=D, T_q=T_q, T_k=T_k,
                n_steps=draw(st.integers(1, 7)),
                top_k=draw(st.one_of(st.none(), st.integers(1, 4))),
                causal=draw(st.booleans()),
                lengths=draw(st.lists(st.integers(1, T_k), min_size=B,
                                      max_size=B)),
                block_pairs=draw(st.integers(1, 5)),
                workers=draw(st.sampled_from([1, 2])),
                clamp=draw(st.booleans()),
                seed=draw(st.integers(0, 2 ** 16)))


class _KeepingLogits:
    """A gate core that keeps the final logits ``core`` gives ``attend``."""

    def __init__(self, core):
        self.core, self.final = core, None

    def project_pairs(self, *args):
        return self.core.project_pairs(*args)

    def unroll(self, *args):
        self.final, traj = self.core.unroll(*args)
        return self.final, traj


def _pipeline_run(case, core, arrays, key_mask, coef, trajectory=False,
                  taped=True):
    """attend's output, final logits, trajectory and, taped, the gradients
    of q, k, v and the gate weights under a loss weighing every output."""
    cfg = A.LanConfig(d_model=case["H"] * case["D"], heads=case["H"],
                      euler_steps=case["n_steps"], top_k=case["top_k"],
                      causal=case["causal"])
    q, k, v = (Tensor(a, requires_grad=taped) for a in arrays)
    for p in core.parameters().values():
        p.zero_grad()
    keeping = _KeepingLogits(core)
    with contextlib.nullcontext() if taped else T.no_grad():
        out, _, pb, traj = A.attend(q, k, v, keeping, cfg, key_mask, trajectory)
    grads = {}
    if taped:
        T.tsum(T.mul(out, Tensor(coef))).backward()
        grads = {n: p.grad for n, p in dict(core.parameters(), q=q, k=k,
                                             v=v).items()}
    return out.data, keeping.final.data, traj, grads, pb


def _pipeline_oracle(core, arrays, pb, n_steps, coef):
    """The composed pipeline: ``gru_unroll``, the floor gates, the chain of
    ``euler_step``s, the masked softmax and the sum of the gathered values;
    (output, final logits, gradients)."""
    q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
    for p in core.parameters().values():
        p.zero_grad()
    final, _ = _composed_logits(core, q, k, pb, n_steps)
    alpha = T.masked_softmax(final, pb.valid_mask)
    out = T.tsum(T.mul(T.reshape(alpha, alpha.shape + (1,)),
                       T.gather_keys(v, pb.selected_indices)), axis=3)
    T.tsum(T.mul(out, Tensor(coef))).backward()
    grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad
             for n, p in dict(core.parameters(), q=q, k=k, v=v).items()}
    return out.data, final.data, grads


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(_attend_cases())
def test_attend_matches_its_composed_oracle_on_drawn_cases(case):
    rng = np.random.default_rng(case["seed"])
    B, H, D, T_q, T_k = (case[n] for n in ("B", "H", "D", "T_q", "T_k"))
    n_steps = case["n_steps"]
    core = A.RecurrentGateCore(D, rng, heads=H)
    if case["clamp"]:
        core.b_o.data[:, 1] += 8.0      # f_tau above every 1/dt_nominal
    arrays = [rng.standard_normal((B, H, T, D)) for T in (T_q, T_k, T_k)]
    key_mask = np.arange(T_k) < np.array(case["lengths"])[:, None]
    coef = rng.standard_normal((B, H, T_q, D))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(A, "_BLOCK_SCALARS", 3 * D * case["block_pairs"])
        runs = {}
        for workers in (case["workers"], 3 - case["workers"]):
            with pool_workers(workers):
                runs[workers] = _pipeline_run(case, core, arrays, key_mask,
                                              coef)
        with pool_workers(case["workers"]):
            with_traj = _pipeline_run(case, core, arrays, key_mask, coef,
                                      trajectory=True)
            untaped = _pipeline_run(case, core, arrays, key_mask, coef,
                                    taped=False)
    out, final, traj, grads, pb = runs[case["workers"]]
    assert traj is None and with_traj[2] is not None
    if case["clamp"]:
        assert with_traj[2].dt_effective < 1 / n_steps
    want_out, want_final, want_grads = _pipeline_oracle(core, arrays, pb,
                                                        n_steps, coef)
    assert np.abs(out - want_out).max() <= 1e-12
    assert np.abs(final - want_final).max() <= 1e-12
    assert set(grads) == set(want_grads)
    for name, want in want_grads.items():
        assert np.abs(grads[name] - want).max() <= 1e-12, name
    # bitwise: the other worker count, with a trajectory, without the tape
    other = runs[3 - case["workers"]]
    for got in (other, with_traj, untaped):
        assert np.array_equal(got[0], out) and np.array_equal(got[1], final)
    for got in (other, with_traj):
        for name, grad in grads.items():
            assert np.array_equal(got[3][name], grad), name


# --------------------------------------------------------------------------
# work items: the same results for any number of workers
# --------------------------------------------------------------------------

def _block_case(case):
    """A core, q, k and pair batch whose pair count ``case`` names; at
    D = 2, blocks hold at most 16,384 pairs."""
    rng = np.random.default_rng(47)
    B, H, D, key_mask, causal = 1, 2, 2, None, False
    if case == "topk_row_split":      # blocks cut a query's K pairs apart
        T_q, T_k, K = 1001, 40, 20
    elif case == "batch_rows":        # packed blocks cross batch rows
        B, T_q, T_k, K, causal = 3, 110, 110, None, True
        key_mask = np.ones((B, T_k), dtype=bool)
        key_mask[1, -9:] = False
    elif case == "one_block":
        B, T_q, T_k, K = 2, 5, 5, None
    else:                             # uneven: P not a multiple of the cut
        T_q, T_k, K = 8195, 5, 3
    core = A.RecurrentGateCore(D, rng, heads=H)
    qa = rng.standard_normal((B, H, T_q, D))
    ka = rng.standard_normal((B, H, T_k, D))
    if K is None:
        pb = pairs.full_pairwise_concat(Tensor(qa), Tensor(ka), causal=causal,
                                        key_mask=key_mask)
    else:
        pb = pairs.topk_concat(Tensor(qa), Tensor(ka), K)
    return core, qa, ka, pb


def _gate_run(core, qa, ka, pb, n_steps=3, coef=None):
    """no_grad final logits and gates, the same from the tape, and the
    gradients of the 6 gate weights and of q, k under a loss that weighs
    every final logit differently, or by ``coef``."""
    with T.no_grad():
        untaped, traj = logits(core, Tensor(qa), Tensor(ka), pb, n_steps,
                               trajectory=True)
        untaped = (untaped.data, _traj_gates(traj))
    q = Tensor(qa, requires_grad=True)
    k = Tensor(ka, requires_grad=True)
    for p in core.parameters().values():
        p.zero_grad()
    final, traj = logits(core, q, k, pb, n_steps, trajectory=True)
    if coef is None:
        coef = np.random.default_rng(48).standard_normal(final.shape)
    _weighted_sum(final, coef).backward()
    grads = {n: p.grad.copy() for n, p in dict(core.parameters(), q=q, k=k).items()}
    return untaped, (final.data, _traj_gates(traj)), grads


@pytest.mark.parametrize("case", ["topk_row_split", "batch_rows", "one_block",
                                  "uneven"])
def test_gate_kernel_is_bitwise_the_same_for_any_worker_count(case, monkeypatch):
    core, qa, ka, pb = _block_case(case)
    # both heads pack the same pairs
    counts = _packed_counts(pb)
    P = counts[0]
    assert counts == [P] * core.heads
    C = 3 * qa.shape[-1]
    blocks = A._blocks(P, C)
    sizes = [b - a for a, b in blocks]
    assert blocks[0][0] == 0 and blocks[-1][1] == P
    assert max(sizes) <= A._BLOCK_SCALARS // C
    assert max(sizes) - min(sizes) <= 1
    K = pb.selected_indices.shape[3]
    if case == "topk_row_split":
        assert len(blocks) > 1 and any(a % K for a, _ in blocks)
    elif case == "batch_rows":
        # the batch row of each packed valid pair
        row = pb.valid_mask[:, 0].size // pb.valid_mask.shape[0]
        batch = np.flatnonzero(pb.valid_mask[:, 0]) // row
        assert len(blocks) > 1 and any(batch[a] != batch[min(b, P - 1) - 1]
                                       for a, b in blocks)
        assert not pb.valid_mask.all()
    elif case == "one_block":
        assert blocks == [(0, P)]
    else:
        assert len(set(sizes)) == 2

    main = threading.get_ident()
    ran_on = []
    forward_block = A._forward_block

    def spy(*args):
        ran_on.append(threading.get_ident())
        forward_block(*args)

    monkeypatch.setattr(A, "_forward_block", spy)
    pair_grads = []
    gru_backward = A._gru_backward

    def keep_pair_grads(*args):
        grads = gru_backward(*args)
        pair_grads.append(grads[:2])
        return grads

    monkeypatch.setattr(A, "_gru_backward", keep_pair_grads)
    runs = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)               # interleave the workers often
    try:
        for workers in (1, 2, 3):
            ran_on.clear()
            pair_grads.clear()
            with pool_workers(workers):
                runs[workers] = _gate_run(core, qa, ka, pb) + tuple(pair_grads)
            items = 2 * len(blocks)
            assert len(ran_on) == 2 * items   # no_grad, then the tape
            assert (set(ran_on) == {main}) == (min(workers, items) == 1)
    finally:
        sys.setswitchinterval(switch)
    untaped, taped, grads, (d_qp, d_kp) = runs[1]
    for got, want in zip(untaped, taped):        # final logits, gates
        assert np.array_equal(got, want)
    assert len(grads) == 8
    assert d_qp.shape == qa.shape[:3] + (3 * qa.shape[3],)
    assert d_kp.shape == ka.shape[:3] + (3 * ka.shape[3],)
    for workers in (2, 3):
        other_untaped, other_taped, other_grads, other_pair = runs[workers]
        for got, want in zip(other_untaped + other_taped, untaped + taped):
            assert np.array_equal(got, want), workers
        for name, grad in grads.items():
            assert np.array_equal(other_grads[name], grad), (workers, name)
        # the d(qp)/d(kp) partials of the items, summed in item order
        assert np.array_equal(other_pair[0], d_qp)
        assert np.array_equal(other_pair[1], d_kp)


def test_gate_kernel_item_error_propagates_and_the_next_call_works(monkeypatch):
    core, qa, ka, pb = _block_case("topk_row_split")
    forward_block = A._forward_block

    def failing(x, w, hd, *rest):
        if hd == 1:
            raise RuntimeError("item failed")
        forward_block(x, w, hd, *rest)

    with pool_workers(2):
        expected = _gate_run(core, qa, ka, pb)
        monkeypatch.setattr(A, "_forward_block", failing)
        with pytest.raises(RuntimeError, match="item failed"):
            logits(core, Tensor(qa), Tensor(ka), pb, 3)
        monkeypatch.setattr(A, "_forward_block", forward_block)
        again = _gate_run(core, qa, ka, pb)
    for got, want in zip(again[1], expected[1]):
        assert np.array_equal(got, want)
    for name, grad in expected[2].items():
        assert np.array_equal(again[2][name], grad)


@pool_workers(2)
def test_run_items_yields_in_order_frees_dropped_results_and_finishes_all():
    items = [(i,) for i in range(8)]

    def slow_first(i):
        time.sleep(0.002 * (len(items) - i))     # later items finish first
        return np.full(3, float(i))

    kept = []
    for result in pool._run_items(slow_first, items):
        assert (result == len(kept)).all()
        kept.append(weakref.ref(result))
        del result
        assert kept[-1]() is None       # the pool holds no yielded result
    assert len(kept) == len(items)
    finished = []

    def failing(i):
        time.sleep(0.02 * (i > 2))      # still running when item 2 fails
        if i in (2, 5):
            raise RuntimeError(f"item {i} failed")
        finished.append(i)

    with pytest.raises(RuntimeError, match="item 2 failed"):
        list(pool._run_items(failing, items))
    assert sorted(finished) == [0, 1, 3, 4, 6, 7]


@pool_workers(2)
def test_gate_kernel_is_bitwise_the_same_for_concurrent_callers():
    # two threads submit to the one pool at once, each under its own no_grad
    core, qa, ka, pb = _block_case("batch_rows")
    with T.no_grad():
        expected = logits(core, Tensor(qa), Tensor(ka), pb, 3)[0].data

    def caller():
        with T.no_grad():
            return [logits(core, Tensor(qa), Tensor(ka), pb, 3)[0].data
                    for _ in range(3)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)               # interleave the callers often
    try:
        with ThreadPoolExecutor(2) as callers:
            runs = [callers.submit(caller) for _ in range(2)]
            results = [g for run in runs for g in run.result(timeout=60)]
    finally:
        sys.setswitchinterval(switch)
    assert len(results) == 6
    for got in results:
        assert np.array_equal(got, expected)


def test_importing_the_gate_kernel_starts_no_thread():
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import sys, threading; sys.path.insert(0, {src!r}); "
            "import fluid.attention; print(threading.active_count())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user", [None, "2"])
def test_importing_fluid_puts_blas_on_one_thread_unless_the_user_set_it(user):
    # the subprocess reads the variables, and the bundled OpenBLAS's own
    # thread count inside pooled items where numpy exposes its getter
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"""
import ctypes, glob, json, os, sys
sys.path.insert(0, {src!r})
import fluid
import numpy
from fluid import pool
libs = glob.glob(os.path.dirname(numpy.__file__) + ".libs/libscipy_openblas*")
get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_",
              None) if libs else None
if get is not None:
    get.argtypes, get.restype = [], ctypes.c_int
print(json.dumps({{"env": {{v: os.environ.get(v) for v in {_BLAS_THREADS!r}}},
                  "blas": get and list(pool._run_items(get, [()] * 4))}}))
"""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = user
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["env"] == {"OPENBLAS_NUM_THREADS": user or "1",
                          "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    if user is None and got["blas"] is not None:
        assert got["blas"] == [1] * 4


@pytest.mark.parametrize("user", [None, "2"])
def test_pooled_items_run_blas_on_one_thread_after_numpy_loaded_first(user):
    # numpy has read the variables already; fluid.pool sets the loaded
    # OpenBLAS at run time, and leaves a count the user set
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = f"""
import ctypes, glob, json, os, sys
import numpy
libs = glob.glob(os.path.dirname(numpy.__file__) + ".libs/libscipy_openblas*")
get = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_",
              None) if libs else None
if get is None:
    print("null")
    sys.exit()
get.argtypes, get.restype = [], ctypes.c_int
before = get()
sys.path.insert(0, {src!r})
from fluid import pool
print(json.dumps([before, list(pool._run_items(get, [()] * 4))]))
"""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = user
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    if got is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count is readable")
    before, pooled = got
    # a count the user set stays as OpenBLAS took it: capped at the CPUs
    # the process may use
    if user is not None:
        assert before == min(int(user), pool._WORKERS)
    assert pooled == [before if user else 1] * 4
    if user is None and pool._WORKERS > 1:
        assert before > 1      # OpenBLAS's default, which the pool overrides


def test_importing_fluid_after_numpy_leaves_the_blas_variables_unset():
    # numpy has read them already: setting them would only misreport
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (f"import json, os, sys; sys.path.insert(0, {src!r}); "
            "import numpy; import fluid; "
            f"print(json.dumps([os.environ.get(v) for v in {_BLAS_THREADS!r}]))")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREADS}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [None] * 3


def _unroll_in_child(core, qa, ka, pb, queue):
    with T.no_grad():
        queue.put(logits(core, Tensor(qa), Tensor(ka), pb, 3)[0].data)


@pool_workers(2)
def test_gate_kernel_runs_in_a_forked_child():
    core, qa, ka, pb = _block_case("batch_rows")
    with T.no_grad():
        final, _ = logits(core, Tensor(qa), Tensor(ka), pb, 3)
    assert pool._pool is not None     # the parent has started its threads
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_unroll_in_child, args=(core, qa, ka, pb, queue))
    child.start()
    try:
        got = queue.get(timeout=60)
    except Exception:
        got = None
    child.join(timeout=10)
    if child.is_alive():
        child.kill()
        child.join()
    assert got is not None, "the forked child did not return"
    assert child.exitcode == 0
    assert np.array_equal(got, final.data)


def test_gate_items_read_the_core_weight_buffers(monkeypatch):
    core, qa, ka, pb = _block_case("batch_rows")
    seen = []
    # the position of the weights among each kernel's arguments
    for name, at in (("_forward_block", 1), ("_backward_block", 2)):
        real = getattr(A, name)

        def spy(*args, real=real, at=at):
            seen.append(args[at])
            return real(*args)

        monkeypatch.setattr(A, name, spy)
    _gate_run(core, qa, ka, pb)
    assert len(seen) == 3 * len(A._items(_packed_counts(pb), 3 * qa.shape[-1]))
    for w in seen:
        for name in ("W_h", "W_o", "b_o", "w_t", "b_x"):
            assert np.shares_memory(w[name], getattr(core, name).data), name


# --------------------------------------------------------------------------
# the backward runs on live pairs only: those whose logit gradient is not 0
# --------------------------------------------------------------------------

_DEAD = ["query_rows", "single_pairs", "head", "all"]


def _dead_coef(pattern, shape, rng):
    """A loss weight per final logit [B,H,T_q,K_eff], 0 on every other
    query row, on single pairs spread through the blocks, on all of head 1,
    or everywhere."""
    coef = rng.standard_normal(shape)
    if pattern == "query_rows":
        coef[:, :, ::2] = 0.0
    elif pattern == "single_pairs":
        coef.reshape(-1)[3::7] = 0.0
    elif pattern == "head":
        coef[:, 1] = 0.0
    else:
        coef[...] = 0.0
    return coef


def _counting_backward_columns(monkeypatch):
    """The number of pairs each ``_backward_block`` call receives."""
    columns = []
    backward_block = A._backward_block

    def spy(g, x, *rest):
        columns.append(x.shape[1])
        return backward_block(g, x, *rest)

    monkeypatch.setattr(A, "_backward_block", spy)
    return columns


@pytest.mark.parametrize("pattern", _DEAD)
@pytest.mark.parametrize("case", ["causal_masked", "topk_blocks", "long_rows"])
@pytest.mark.parametrize("n_steps", [1, 3])
def test_backward_skips_dead_pairs_and_matches_the_oracle(case, pattern,
                                                          n_steps, monkeypatch):
    rng = np.random.default_rng(89)
    core = A.RecurrentGateCore(3, rng, heads=2)
    qa, ka, pb = _gate_case(case, rng)
    coef = _dead_coef(pattern, pb.valid_mask.shape, rng)
    live = np.count_nonzero(coef[pb.valid_mask])
    assert live < pb.valid_mask.sum()
    columns = _counting_backward_columns(monkeypatch)
    _assert_fused_matches_composed(core, qa, ka, pb, n_steps, rng, coef=coef)
    assert sum(columns) == live
    assert max(columns, default=0) <= A._BLOCK_SCALARS // (3 * 3)
    if pattern == "all":
        assert columns == []


@pytest.mark.parametrize("pattern", _DEAD)
@pytest.mark.parametrize("case", ["topk_row_split", "batch_rows"])
def test_backward_on_live_pairs_is_bitwise_the_same_for_any_worker_count(
        case, pattern, monkeypatch):
    core, qa, ka, pb = _block_case(case)
    coef = _dead_coef(pattern, pb.valid_mask.shape, np.random.default_rng(49))
    columns = _counting_backward_columns(monkeypatch)
    runs = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)               # interleave the workers often
    try:
        for workers in (1, 2):
            with pool_workers(workers):
                runs[workers] = _gate_run(core, qa, ka, pb, coef=coef)[2]
    finally:
        sys.setswitchinterval(switch)
    assert sum(columns) == 2 * np.count_nonzero(coef[pb.valid_mask])
    for name, grad in runs[1].items():
        assert np.array_equal(runs[2][name], grad), name
        assert grad.any() == (pattern != "all"), name


@pytest.mark.parametrize("workers", [1, 2])
def test_backward_items_hold_no_more_pairs_than_the_forward_blocks(
        workers, monkeypatch):
    # the train_spiral cross-attention shape, padded keys and query rows
    # the loss never reads, with blocks of at most 1,000 pairs: a head's
    # live pairs run as as many balanced items as its packed pairs do in
    # the forward, so no backward item outgrows the forward's blocks, and
    # cut by the budget alone they would take fewer, larger items
    monkeypatch.setattr(A, "_BLOCK_SCALARS", 3 * 8 * 1000)
    B, T_q, T_k, h, H, N = 8, 26, 35, 8, 2, 3
    rng = np.random.default_rng(95)
    core = A.RecurrentGateCore(h, rng, heads=H)
    q = Tensor(rng.standard_normal((B, H, T_q, h)), requires_grad=True)
    k = Tensor(rng.standard_normal((B, H, T_k, h)), requires_grad=True)
    key_mask = np.arange(T_k) < np.array([35, 33, 30, 35, 28, 31, 35, 34])[:, None]
    pb = pairs.full_pairwise_concat(q, k, key_mask=key_mask)
    coef = rng.standard_normal(pb.valid_mask.shape)
    coef[:, :, -4:] = 0.0
    coef[:, 1, :9] = 0.0
    sizes = {"forward": [[] for _ in range(H)], "backward": [[] for _ in range(H)]}
    for name, at in (("_forward_block", 0), ("_backward_block", 1)):
        real = getattr(A, name)

        def spy(*args, real=real, at=at, seen=sizes[name[1:-6]]):
            seen[args[at + 2]].append(args[at].shape[1])
            return real(*args)

        monkeypatch.setattr(A, name, spy)
    with pool_workers(workers):
        _weighted_sum(logits(core, q, k, pb, N)[0], coef).backward()
    valid = pb.valid_mask.transpose(1, 0, 2, 3)
    for hd in range(H):
        forward, backward = sizes["forward"][hd], sizes["backward"][hd]
        live = np.count_nonzero(coef[:, hd][valid[hd]])
        assert sum(forward) == valid[hd].sum() > sum(backward) == live
        assert len(backward) == len(forward) > 1
        assert max(backward) - min(backward) <= 1
        assert max(backward) <= max(forward)
        assert len(A._blocks(live, 3 * h)) < len(forward)


def _live_and_packed(monkeypatch):
    """[live, packed] pair counts over every gate backward: the packed
    pairs whose final logit's gradient is not 0, and all packed pairs."""
    counts = [0, 0]
    gru_backward = A._gru_backward

    def spy(g, pin, *rest):
        # g [B,H,T_q,K_eff] as [H, slots]; a head's packed pairs by slot
        heads = np.swapaxes(g, 0, 1).reshape(g.shape[1], -1)
        counts[0] += sum(np.count_nonzero(heads[hd][pin.slots(hd, slice(0, P))])
                         for hd, P in enumerate(pin.counts))
        counts[1] += sum(pin.counts)
        return gru_backward(g, pin, *rest)

    monkeypatch.setattr(A, "_gru_backward", spy)
    return counts


def test_padded_training_step_runs_the_backward_on_live_pairs_only(monkeypatch):
    lan = A.LanConfig(d_model=8, heads=2, euler_steps=3)
    model = M.FluidModel(M.ModelConfig(lan=lan, ffn_dim=8, in_features=2,
                                       out_dim=2, max_len=16, seed=3,
                                       hc_mode="liquid", hc_streams=2))
    rng = np.random.default_rng(4)
    B, T_in, T_out = 3, 7, 5
    mask = np.ones((B, T_in), dtype=bool)
    target_mask = np.ones((B, T_out), dtype=bool)
    mask[1, -2:] = target_mask[1, -1:] = False
    mask[2, -4:] = target_mask[2, -3:] = False
    columns = _counting_backward_columns(monkeypatch)
    counts = _live_and_packed(monkeypatch)
    pred = model.forward(rng.standard_normal((B, T_in, 2)),
                         np.cumsum(rng.uniform(0.5, 1.5, (B, T_in)), axis=1),
                         np.cumsum(rng.uniform(0.5, 1.5, (B, T_out)), axis=1),
                         mask=mask)
    TR.loss("mse", pred, rng.standard_normal((B, T_out, 2)),
            target_mask).backward()
    live, packed = counts
    # dead: every pair of a padded query row, in the encoder, the causal
    # decoder and the cross-attention, and the one pair of each decoder
    # row 0, whose softmax over a single key has a zero logit gradient
    keys, rows = mask.sum(axis=1), target_mask.sum(axis=1)
    padded = ((T_in - keys) * keys + (T_out - rows) * keys
              + [np.arange(r + 1, T_out + 1).sum() for r in rows])
    assert packed - live == lan.heads * (padded.sum() + B) > 0
    assert sum(columns) == live


def test_verify_gradients_suite_runs_the_skip(monkeypatch):
    counts = _live_and_packed(monkeypatch)
    assert verify.run_gradients_suite()["pass"]
    assert 0 < counts[0] < counts[1]


# --------------------------------------------------------------------------
# euler step and clamp
# --------------------------------------------------------------------------

def test_euler_step_reaches_quasi_state_in_one_step():
    # a0 = 0, dt = 1/f_tau: lands exactly on f_phi / f_tau
    a1 = euler_step(Tensor([0.0]), Tensor([2.0]), Tensor([4.0]), dt=0.5)
    assert a1.data[0] == 2.0


def test_euler_step_fixed_point():
    a = Tensor([0.8])
    out = euler_step(a, Tensor([1.5]), Tensor([1.2]), dt=0.3)
    assert np.allclose(out.data, a.data)


def test_euler_step_hand_recurrence():
    a = Tensor([1.0])
    a1 = euler_step(a, Tensor([0.5]), Tensor([0.25]), dt=1.0)
    assert a1.data[0] == 0.75
    a2 = euler_step(a1, Tensor([0.5]), Tensor([0.25]), dt=1.0)
    assert a2.data[0] == 0.625


def test_euler_step_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        euler_step(Tensor([0.0]), Tensor([1.0]), Tensor([1.0]), dt=0.0)


def test_clamp_dt_values():
    assert A.clamp_dt(1.0, np.array([4.0, 1.0])) == 0.25
    assert A.clamp_dt(0.5, np.array([0.1, 0.05])) == 0.5


def test_clamp_dt_bounds_alpha_elementwise():
    rng = np.random.default_rng(5)
    batch = rng.uniform(0.01, 10.0, (100,))
    dt = A.clamp_dt(0.7, batch)
    assert (dt * batch <= 1.0 + 1e-15).all()
    assert dt <= 0.7


def test_clamp_dt_rejects_nonpositive_entries():
    with pytest.raises(ValueError):
        A.clamp_dt(1.0, np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        A.clamp_dt(0.0, np.array([0.5]))


def test_integrate_clamps_on_every_gate_without_copies():
    rng = np.random.default_rng(49)
    gates = np.concatenate([rng.uniform(0.5, 2.0, (3, 2, 3, 1)),
                            np.zeros((3, 2, 3, 1))])
    gates[2, 1, 2, 0] = 8.0      # the largest rate, in the last step
    _, traj = A.integrate_logits(gates, 0.5)
    assert traj.dt_effective == 1.0 / 8.0
    # the f_phi rows are no rates: a large target does not clamp
    gates[4, 0, 0, 0] = 100.0
    _, traj = A.integrate_logits(gates, 0.5)
    assert traj.dt_effective == 1.0 / 8.0
    gates[1, 0, 0, 0] = -1.0
    with pytest.raises(ValueError):
        A.integrate_logits(gates, 0.5)


def test_integrate_starts_at_zero_and_records_dt():
    core = make_core(seed=9)
    u = np.random.default_rng(9).uniform(-1, 1, (6, 4))
    gates = _gates(core, u, 4)
    _, traj = A.integrate_logits(gates, 0.25)
    assert (traj.a[..., 0] == 0.0).all()
    assert traj.a.shape == (1, 1, 6, 1, 5)
    assert traj.dt_effective <= 0.25
    expected_dt = min(0.25, 1.0 / gates[:4].max())
    assert traj.dt_effective == expected_dt


def test_trajectory_csv_export(tmp_path):
    core = make_core(seed=11)
    u = np.random.default_rng(11).uniform(-1, 1, (2, 4))
    _, traj = A.integrate_logits(_gates(core, u, 3), 1 / 3)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,pair_id,a,f_tau,f_phi"
    assert len(lines) == 1 + 2 * 4  # header + (N+1) rows per pair


def test_trajectory_csv_reads_back_exactly(tmp_path):
    core = make_core(seed=12)
    u = np.random.default_rng(12).uniform(-1, 1, (5, 4))
    _, traj = A.integrate_logits(_gates(core, u, 3), 1 / 3)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "pair_id", "a", "f_tau", "f_phi"]
    n_steps, n_pairs = 3, traj.a.size // 4
    body = np.array(rows[1:], dtype=object).reshape(n_pairs, n_steps + 1, 5)
    assert (body[..., 0].astype(int) == np.arange(n_steps + 1)).all()
    assert (body[..., 1].astype(int) == np.arange(n_pairs)[:, None]).all()
    assert (body[:, 0, 3:] == "").all()
    assert np.array_equal(body[..., 2].astype(float),
                          traj.a.reshape(n_pairs, -1))
    assert np.array_equal(body[:, 1:, 3].astype(float),
                          traj.f_tau.reshape(n_pairs, -1))
    assert np.array_equal(body[:, 1:, 4].astype(float),
                          traj.f_phi.reshape(n_pairs, -1))


def _euler_case(shared, seed=61, shape=(2, 3, 4), n_steps=4):
    """Gates [2N, *shape] with f_tau < 1 / 0.5 (clamp inactive at dt 0.5),
    and a start row [*shape]. With ``shared`` one f_tau and one f_phi row
    serve every step, as the limits' gates do."""
    rng = np.random.default_rng(seed)
    rows = (1 if shared else n_steps,) + shape
    tau, phi = rng.uniform(0.2, 1.5, rows), rng.uniform(-1, 1, rows)
    gates = np.concatenate([np.broadcast_to(g, (n_steps,) + shape)
                            for g in (tau, phi)])
    return gates, rng.uniform(-1, 1, shape)


@pytest.mark.parametrize("start", ["zero", "a0"])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("dt", [0.5, 0.9])           # clamp off, clamp on
def test_integrate_equals_the_euler_step_chain(start, shared, dt):
    # integrate_logits starts at 0; euler_rows, which the verifiers run,
    # starts at any a0
    gates, a0 = _euler_case(shared)
    n_steps = len(gates) // 2
    final, traj = A.integrate_logits(gates, dt)
    assert (traj.dt_effective < dt) == (dt == 0.9)
    first = a0 if start == "a0" else np.zeros(a0.shape)
    ref, states = euler_chain(Tensor(gates), traj.dt_effective, Tensor(first))
    want = np.stack([state.data for state in states])
    assert np.array_equal(A.euler_rows(first, gates[:n_steps], gates[n_steps:],
                                       traj.dt_effective, n_steps + 1), want)
    if start == "zero":
        assert np.array_equal(final, ref.data)
        assert np.array_equal(traj.a, np.moveaxis(want, 0, -1))


def _recursion(f_tau, f_phi, dt):
    """a_0 .. a_N [..., N+1] of the Euler recursion from 0 over gates
    [..., N]."""
    a = [np.zeros(f_tau.shape[:-1])]
    for n in range(f_tau.shape[-1]):
        a.append(a[-1] + (f_phi[..., n] - f_tau[..., n] * a[-1]) * dt)
    return np.stack(a, axis=-1)


def test_trajectory_is_views_of_the_integrator_buffers():
    core = make_core(seed=11)
    u = np.random.default_rng(11).uniform(-1, 1, (3, 4))
    gates = _gates(core, u, 3)
    final, traj = A.integrate_logits(gates, 1 / 3)
    assert np.shares_memory(traj.f_tau, gates)
    assert np.shares_memory(traj.f_phi, gates)
    assert np.array_equal(traj.f_tau, np.moveaxis(gates[:3], 0, -1))
    assert np.array_equal(traj.f_phi, np.moveaxis(gates[3:], 0, -1))
    # the states are rebuilt on the first read, bitwise the recursion, and
    # kept for later reads
    assert np.array_equal(traj.a, _recursion(traj.f_tau, traj.f_phi,
                                             traj.dt_effective))
    assert traj.a is traj.a
    assert np.array_equal(traj.a[..., -1], final)
    # the gate core's own trajectory: views of its gates, which its tape op
    # does not keep; the op holds the final logits, which no state shares
    for taped in (False, True):
        pin = _project(core, u)
        with contextlib.nullcontext() if taped else T.no_grad():
            final, traj = core.unroll(pin, 3, trajectory=True)
        assert final.requires_grad == taped
        assert np.array_equal(traj.a, _recursion(traj.f_tau, traj.f_phi,
                                                 traj.dt_effective))
        assert np.array_equal(traj.a[..., -1], final.data)
        assert not np.shares_memory(traj.a, final.data)


def test_integration_keeps_two_state_rows():
    # N + 1 = 9 state rows would outweigh the two the integrator holds, its
    # final state and one more, and the trajectory's views of the gates
    rng = np.random.default_rng(63)
    n_steps, shape = 8, (4, 64, 64)
    gates = np.concatenate([rng.uniform(0.2, 1.5, (n_steps,) + shape),
                            rng.uniform(-1, 1, (n_steps,) + shape)])
    row = 8 * int(np.prod(shape))
    kept = []
    peak = peak_bytes(lambda: kept.append(A.integrate_logits(gates, 0.5)))
    assert peak < 3 * row < (n_steps + 1) * row, (peak, row)
    final, traj = kept[0]
    assert np.array_equal(traj.a, _recursion(traj.f_tau, traj.f_phi, 0.5))
    assert np.array_equal(traj.a[..., -1], final)


def _tape_nodes(root):
    """Every tensor on the tape reachable from ``root``, leaves included."""
    seen, stack = set(), [root]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_attend_tape_does_not_grow_with_euler_steps():
    rng = np.random.default_rng(71)
    qkv = [rng.standard_normal((2, 2, 5, 3)) for _ in range(3)]
    core = A.RecurrentGateCore(3, rng, heads=2)
    for case in (dict(), dict(top_k=2, causal=True)):
        counts = []
        for n_steps in (1, 2, 5):
            cfg = _head_cfg(d_model=6, heads=2, euler_steps=n_steps, **case)
            q, k, v = (Tensor(a, requires_grad=True) for a in qkv)
            out, _, _, _ = A.attend(q, k, v, core, cfg)
            counts.append(_tape_nodes(out))
        assert counts[0] == counts[1] == counts[2], (case, counts)


# --------------------------------------------------------------------------
# head forward
# --------------------------------------------------------------------------

def _head_cfg(**kw):
    base = dict(d_model=2, heads=1, euler_steps=2, top_k=None,
                sink_gate_enabled=False, causal=False)
    base.update(kw)
    return A.LanConfig(**base)


def test_single_key_softmax_is_identity():
    rng = np.random.default_rng(13)
    q = Tensor(rng.standard_normal((1, 1, 1, 2)))
    k = Tensor(rng.standard_normal((1, 1, 1, 2)))
    v = Tensor(rng.standard_normal((1, 1, 1, 2)))
    core = make_core(hidden=2, seed=13)
    out, weights, _, _ = A.attend(q, k, v, core, _head_cfg())
    assert np.allclose(weights.data, 1.0)
    assert np.allclose(out.data, v.data)


def straight_line_lan(qa, ka, va, core, n_steps):
    """Independent numpy recomputation of one full-pairwise head."""
    T_q, D = qa.shape
    T_k = ka.shape[0]
    h = core.hidden_dim
    # the one head's weights, without the head axis
    Wu, Wh, wt, bx, Wo, bo = (core.parameters()[n].data[0] for n in
                              ("W_u", "W_h", "w_t", "b_x", "W_o", "b_o"))
    dt_nom = 1.0 / n_steps

    f_tau = np.zeros((T_q, T_k, n_steps))
    f_phi = np.zeros((T_q, T_k, n_steps))
    for i in range(T_q):
        for j in range(T_k):
            u = np.concatenate([qa[i], ka[j]])
            hidden = np.zeros(h)
            for n in range(n_steps):
                x = u @ Wu + n * dt_nom * wt + bx
                hp = hidden @ Wh
                r = _sigmoid(x[:h] + hp[:h])
                z = _sigmoid(x[h:2 * h] + hp[h:2 * h])
                cand = np.tanh(x[2 * h:] + r * hp[2 * h:])
                hidden = (1 - z) * cand + z * hidden
                o = Wo @ hidden + bo           # row 0 drives f_phi, row 1 f_tau
                f_phi[i, j, n] = np.tanh(o[0])
                f_tau[i, j, n] = _softplus(o[1]) + A._EPSILON

    dt = min(dt_nom, 1.0 / f_tau.max())
    a = np.zeros((T_q, T_k))
    for n in range(n_steps):
        a = a + dt * (-f_tau[..., n] * a + f_phi[..., n])
    e = np.exp(a - a.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    return alpha @ va, alpha


def test_head_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(17)
    qa = rng.standard_normal((3, 2))
    ka = rng.standard_normal((3, 2))
    va = rng.standard_normal((3, 2))
    core = make_core(hidden=2, seed=17)
    out, weights, _, _ = A.attend(
        Tensor(qa[None, None]), Tensor(ka[None, None]), Tensor(va[None, None]),
        core, _head_cfg())
    expected_out, expected_alpha = straight_line_lan(qa, ka, va, core, n_steps=2)
    assert np.allclose(out.data[0, 0], expected_out, atol=1e-12)
    assert np.allclose(weights.data[0, 0], expected_alpha, atol=1e-12)


def test_head_weights_sum_to_one_and_masked_keys_get_zero():
    rng = np.random.default_rng(19)
    q = Tensor(rng.standard_normal((1, 1, 4, 2)))
    k = Tensor(rng.standard_normal((1, 1, 4, 2)))
    v = Tensor(rng.standard_normal((1, 1, 4, 2)))
    core = make_core(hidden=2, seed=19)
    _, weights, _, _ = A.attend(q, k, v, core, _head_cfg(causal=True))
    sums = weights.data.sum(axis=-1)
    assert np.abs(sums - 1.0).max() <= 1e-12
    w = weights.data[0, 0]
    assert w[0, 1] == 0.0 and w[1, 2] == 0.0 and w[0, 2] == 0.0


# --------------------------------------------------------------------------
# sink gate and multi-head
# --------------------------------------------------------------------------

def test_sink_gate_closed():
    x = Tensor(np.ones((1, 2, 3)))
    mh = Tensor(np.ones((1, 2, 3)))
    W0 = Tensor(np.zeros((3, 3)))
    out = A.sink_gate(x, mh, W_g=Tensor(np.eye(3)), b_g=Tensor(np.zeros(3)),
                      W_s=W0, b_s=Tensor(np.full(3, -40.0)))
    assert np.abs(out.data).max() < 1e-12


def test_sink_gate_neutral_is_half():
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((1, 2, 3)))
    mh = Tensor(rng.standard_normal((1, 2, 3)))
    out = A.sink_gate(x, mh, W_g=Tensor(np.eye(3)), b_g=Tensor(np.zeros(3)),
                      W_s=Tensor(np.zeros((3, 3))), b_s=Tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.5 * mh.data)


def test_sink_gate_matches_scripted_oracle():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((1, 2, 3))
    mh = rng.standard_normal((1, 2, 3))
    Wg, bg = rng.standard_normal((3, 3)), rng.standard_normal(3)
    Ws, bs = rng.standard_normal((3, 3)), rng.standard_normal(3)
    out = A.sink_gate(Tensor(x), Tensor(mh), Tensor(Wg), Tensor(bg),
                      Tensor(Ws), Tensor(bs))
    expected = _sigmoid(x @ Ws + bs) * (mh @ Wg + bg)
    assert np.allclose(out.data, expected, atol=1e-14)


def _mh_cfg(**kw):
    base = dict(d_model=4, heads=2, euler_steps=2, top_k=None,
                sink_gate_enabled=False, causal=False)
    base.update(kw)
    return A.LanConfig(**base)


def _head_core(mh, h):
    """An H=1 core holding head ``h``'s weight slices of ``mh.core``."""
    D = mh.cfg.head_dim
    core = A.RecurrentGateCore(D, np.random.default_rng(0), heads=1)
    for name, p in core.parameters().items():
        p.data[...] = getattr(mh.core, name).data[h:h + 1]
    return core


def _manual_heads(mh, x, cfg):
    """Compose the block head by head, each through ``attend`` with H=1."""
    B, T_q, d = x.shape
    x1 = T.reshape(x, (B, 1, T_q, d))
    parts = []
    for h in range(cfg.heads):
        q = T.add(T.matmul(x1, Tensor(mh.W_q.data[h, 0])),
                  Tensor(mh.b_q.data[h, 0, 0]))
        k = T.add(T.matmul(x1, Tensor(mh.W_k.data[h, 0])),
                  Tensor(mh.b_k.data[h, 0, 0]))
        v = T.add(T.matmul(x1, Tensor(mh.W_v.data[h, 0])),
                  Tensor(mh.b_v.data[h, 0, 0]))
        h_out, _, _, _ = A.attend(q, k, v, _head_core(mh, h), cfg)
        parts.append(T.reshape(h_out, (B, T_q, cfg.head_dim)))
    return T.add(T.matmul(concat(parts, axis=-1), mh.W_g), mh.b_g)


def test_multi_head_single_head_equals_manual_path():
    cfg = _mh_cfg(heads=1)
    mh = A.MultiHeadLan(cfg, np.random.default_rng(31))
    rng = np.random.default_rng(32)
    x = Tensor(rng.standard_normal((1, 3, 4)))
    out = mh.forward(x, x)
    manual = _manual_heads(mh, x, cfg)
    assert np.allclose(out.data, manual.data, atol=1e-12)


def test_multi_head_identical_heads_permutation_invariant():
    cfg = _mh_cfg(heads=2)
    mh = A.MultiHeadLan(cfg, np.random.default_rng(33))
    # copy head 0 parameters into head 1 along the stacked axis
    for p in (mh.W_q, mh.b_q, mh.W_k, mh.b_k, mh.W_v, mh.b_v,
              *mh.core.parameters().values()):
        p.data[1] = p.data[0]
    rng = np.random.default_rng(34)
    x = Tensor(rng.standard_normal((1, 3, 4)))
    base = mh.forward(x, x).data.copy()
    for p in (mh.W_q, mh.b_q, mh.W_k, mh.b_k, mh.W_v, mh.b_v,
              *mh.core.parameters().values()):
        p.data[...] = np.flip(p.data, axis=0)
    assert np.array_equal(mh.forward(x, x).data, base)


def test_multi_head_two_heads_match_manual_composition():
    cfg = _mh_cfg(heads=2)
    mh = A.MultiHeadLan(cfg, np.random.default_rng(35))
    rng = np.random.default_rng(36)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    out = mh.forward(x, x)
    manual = _manual_heads(mh, x, cfg)
    assert np.allclose(out.data, manual.data, atol=1e-12)


@pytest.mark.parametrize("case", [dict(), dict(causal=True), dict(top_k=2)])
def test_multi_head_tape_and_no_grad_agree_bitwise(case, monkeypatch):
    cfg = _mh_cfg(heads=2, euler_steps=3, sink_gate_enabled=True, **case)
    weights, attend = [], A.attend

    def spy(*args, **kwargs):
        result = attend(*args, **kwargs)
        weights.append(result[1].data)
        return result

    monkeypatch.setattr(A, "attend", spy)
    mh = A.MultiHeadLan(cfg, np.random.default_rng(39))
    x = Tensor(np.random.default_rng(40).standard_normal((2, 5, 4)))
    key_mask = None
    if case.get("causal"):
        key_mask = np.ones((2, 5), dtype=bool)
        key_mask[1, 3:] = False
    runs = []
    for grad in (True, False):
        collect = {}
        with T.no_grad() if not grad else contextlib.nullcontext():
            out = mh.forward(x, x, key_mask=key_mask, collect=collect)
        assert out.requires_grad == grad
        traj = collect["trajectories"][0]
        runs.append([out.data, weights[-1], traj.a, traj.f_tau, traj.f_phi])
    for taped, untaped in zip(*runs):
        assert np.array_equal(taped, untaped)


def test_multi_head_config_violation():
    with pytest.raises(ValueError):
        A.LanConfig(d_model=5, heads=2)


def test_topk_head_equals_full_head_when_k_large():
    # top-k that keeps every key moves invalid slots to the row's tail as
    # index 0, where full pairwise keeps key j; under causal and tail
    # padding masks the outputs, weights and every gradient stay bitwise
    B, H, T_k, D = 3, 2, 6, 2
    rng = np.random.default_rng(37)
    qkv = [rng.standard_normal((B, H, T_k, D)) for _ in range(3)]
    coef = Tensor(rng.standard_normal((B, H, T_k, D)))
    core = A.RecurrentGateCore(D, rng, heads=H)
    padded = np.ones((B, T_k), dtype=bool)
    padded[1, -2:] = False
    padded[2, -4:] = False
    for causal, key_mask in ((False, None), (True, None), (False, padded),
                             (True, padded)):
        runs = []
        for top_k in (None, 10):
            cfg = _mh_cfg(d_model=H * D, heads=H, top_k=top_k, causal=causal)
            q, k, v = (Tensor(a, requires_grad=True) for a in qkv)
            for p in core.parameters().values():
                p.zero_grad()
            out, weights, pb, _ = A.attend(q, k, v, core, cfg, key_mask)
            T.tsum(T.mul(out, coef)).backward()
            grads = [t.grad for t in (q, k, v, *core.parameters().values())]
            runs.append((pb.selected_indices, out.data, weights.data, grads))
        (idx_full, *full), (idx_top, *top) = runs
        masked = causal or key_mask is not None
        assert np.array_equal(idx_full, idx_top) != masked
        assert np.array_equal(full[0], top[0])
        assert np.array_equal(full[1], top[1])
        assert len(full[2]) == 9
        for got, want in zip(top[2], full[2]):
            assert np.array_equal(got, want)


def test_tracer_wrap_points_see_pairs_steps_and_the_trajectory(monkeypatch):
    # the benchmark's tracer wraps RecurrentGateCore.unroll, reading the
    # pair count as args[1].size // args[1].shape[-1] and the steps as
    # args[2], and integrate_logits, reading the trajectory of its result:
    # one call per gate block, whose f_tau are [block pairs, N]
    seen = {"integrate": []}
    unroll, integrate = A.RecurrentGateCore.unroll, A.integrate_logits

    def spy_unroll(*args, **kwargs):
        seen["unroll"] = args
        return unroll(*args, **kwargs)

    def spy_integrate(*args, **kwargs):
        seen["integrate"].append(integrate(*args, **kwargs))
        return seen["integrate"][-1]

    monkeypatch.setattr(A.RecurrentGateCore, "unroll", spy_unroll)
    monkeypatch.setattr(A, "integrate_logits", spy_integrate)
    B, T_q = 2, 5
    x = Tensor(np.random.default_rng(73).standard_normal((B, T_q, 4)))
    # full pairwise; top-2 under the causal mask, where row 0 has one key
    for case, valid_pairs in ((dict(), T_q * T_q),
                              (dict(top_k=2, causal=True), 2 * T_q - 1)):
        cfg = _mh_cfg(heads=2, euler_steps=3, **case)
        mh = A.MultiHeadLan(cfg, np.random.default_rng(74))
        k_eff = case.get("top_k", T_q)
        seen["integrate"].clear()
        collect = {}
        mh.forward(x, x, collect=collect)
        args = seen["unroll"]
        assert args[1].size // args[1].shape[-1] == B * cfg.heads * T_q * k_eff
        assert args[2] == cfg.euler_steps
        trajs = [traj for _, traj in seen["integrate"]]
        for traj in trajs:
            assert traj.dt_effective == traj.dt_nominal == 1 / cfg.euler_steps
            assert isinstance(traj.f_tau, np.ndarray)
            assert traj.f_tau.shape[-1] == cfg.euler_steps
        assert (sum(t.f_tau.size for t in trajs) // cfg.euler_steps
                == B * cfg.heads * valid_pairs)
        assert (max(t.f_tau.max() for t in trajs)
                == collect["trajectories"][0].f_tau.max())
