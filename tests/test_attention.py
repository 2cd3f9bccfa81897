"""Gated logit ODE, Euler integration, clamping, and attention assembly."""

import contextlib
import csv
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import concat_pairs, euler_chain, euler_step, gru_unroll, pair_sum
from fluid import attention as A
from fluid import pairs, pool
from fluid import tensor as T
from fluid import training as TR
from fluid.tensor import Tensor


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def make_core(pair_dim=4, hidden=2, eps=1e-3, seed=0):
    return A.RecurrentGateCore(pair_dim, hidden, eps, np.random.default_rng(seed),
                               heads=1)


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


def _gates(core, u, n_steps, dt_nominal):
    """The gates [2N,1,1,P,1] the core's unroll gives raw pair inputs u."""
    _, traj = core.unroll(_project(core, u), n_steps, dt_nominal)
    return _traj_gates(traj)


def test_gate_ranges():
    core = make_core()
    rng = np.random.default_rng(1)
    u = rng.uniform(-3, 3, (10, 4))
    for n_steps in (1, 2):
        gates = _gates(core, u, n_steps, 0.5)
        assert gates.shape == (2 * n_steps, 1, 1, 10, 1)
        assert (gates[:n_steps] >= core.epsilon).all()
        assert (np.abs(gates[n_steps:]) < 1.0).all()


def test_gate_zero_weight_cell():
    core = make_core(eps=1e-3)
    for p in core.parameters().values():
        p.data[...] = 0.0
    # f_tau reads the hidden state through W_o's row 1: 1 makes a nonzero
    # state show
    core.W_o.data[:, 1] = 1.0
    u = np.ones((3, 4))
    for n_steps in (1, 2):
        gates = _gates(core, u, n_steps, 0.7)
        assert np.allclose(gates[n_steps:], 0.0)
        assert np.allclose(gates[:n_steps], _softplus(0.0) + 1e-3)


def test_gate_hidden_carries_state():
    core = make_core(seed=3)
    u = np.random.default_rng(4).uniform(-1, 1, (5, 4))
    f_phi0, f_phi1 = _gates(core, u, 2, 0.2)[2:]
    assert not np.allclose(f_phi0, f_phi1)


def test_gate_core_parameters_lead_with_the_head_axis():
    H, D, h = 3, 4, 5
    core = A.RecurrentGateCore(2 * D, h, 1e-3, np.random.default_rng(7), heads=H)
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
    the cases whose work-item blocks cut rows of pairs apart."""
    B, T_q, T_k = {"topk_blocks": (1, 301, 40),
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
# one step keeps no hidden state on the tape, two keep none but h_0 and
# h_1, which the backward rebuilds; three and five keep h_1 .. h_{N-2}
@pytest.mark.parametrize("n_steps", [1, 2, 3, 5])
def test_fused_gates_match_composed_oracle(case, n_steps):
    rng = np.random.default_rng(41)
    core = A.RecurrentGateCore(6, 3, 1e-3, rng, heads=2)
    qa, ka, pb = _gate_case(case, rng)
    if case != "full":
        assert not pb.valid_mask.all()
    _assert_fused_matches_composed(core, qa, ka, pb, n_steps, rng)


def _composed_logits(core, q, k, pb, n_steps):
    """The composed oracle of ``core.logits``: the GRU of ``gru_unroll`` on
    the materialized pair inputs, invalid slots then set to the constant
    floor gates f_tau = eps, f_phi = 0, and the chain of ``euler_step``s
    under the clamp of the valid pairs' f_tau. Returns (final logits,
    gates)."""
    valid = pb.valid_mask
    gates = gru_unroll(core, concat_pairs(q, k, pb), n_steps, 1 / n_steps)
    floor = np.zeros(gates.shape)
    floor[:n_steps] = core.epsilon
    keep = np.broadcast_to(valid, gates.shape).astype(np.float64)
    gates = T.add(T.mul(gates, Tensor(keep)), Tensor(np.where(valid, 0.0, floor)))
    dt = A.clamp_dt(1 / n_steps, gates.data[:n_steps][:, valid])
    final, _ = euler_chain(gates, dt, Tensor(np.zeros(pb.valid_mask.shape)))
    return final, gates.data


def _assert_fused_matches_composed(core, qa, ka, pb, n_steps, rng,
                                   errstate=None):
    """Final logits, gates and every gradient of the kernel within 1e-12
    of the composed oracle's, under a loss that weighs every final logit
    differently, those of invalid pairs too. The kernel's forward and
    backward run under ``np.errstate(**errstate)``."""
    coef = rng.standard_normal(pb.valid_mask.shape)
    results = []
    for fused in (True, False):
        q = Tensor(qa.copy(), requires_grad=True)
        k = Tensor(ka.copy(), requires_grad=True)
        for p in core.parameters().values():
            p.zero_grad()
        with np.errstate(**(errstate if fused and errstate else {})):
            if fused:
                final, traj = core.logits(q, k, pb, n_steps, 1 / n_steps)
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
    core = A.RecurrentGateCore(6, 3, 1e-3, rng, heads=2)
    core.b_o.data[:, 1] = bias
    qa, ka, pb = _gate_case(case, rng)
    assert pb.valid_mask.all() == (case == "full")    # unpacked, packed
    with T.no_grad():
        f_tau = core.logits(Tensor(qa), Tensor(ka), pb, n_steps, 1)[1].f_tau
    f_tau = f_tau[pb.valid_mask]        # invalid slots hold the floor eps
    assert (f_tau < 2e-3).all() if bias < 0 else (f_tau > 30).all()
    _assert_fused_matches_composed(core, qa, ka, pb, n_steps, rng)


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5])
def test_forward_and_backward_each_run_the_cell_n_times_per_item(n_steps,
                                                                  monkeypatch):
    rng = np.random.default_rng(73)
    core = A.RecurrentGateCore(6, 3, 1e-3, rng, heads=2)
    qa, ka, pb = _gate_case("topk_blocks", rng)
    items = len(A._items(_packed_counts(pb)))
    assert items > core.heads
    calls = []
    cell = A._cell

    def counting(*args):
        calls.append(args[0].shape)
        cell(*args)

    monkeypatch.setattr(A, "_cell", counting)
    with T.no_grad():
        core.logits(Tensor(qa), Tensor(ka), pb, n_steps, 1 / n_steps)
    assert len(calls) == n_steps * items
    q = Tensor(qa, requires_grad=True)
    final, _ = core.logits(q, Tensor(ka), pb, n_steps, 1 / n_steps)
    assert len(calls) == 2 * n_steps * items
    T.tsum(final).backward()
    assert len(calls) == 3 * n_steps * items


@pytest.mark.parametrize("n_steps", [1, 2, 5])
@pytest.mark.parametrize("case", ["full", "causal_masked"])
def test_saturated_gates_stay_finite_and_match_the_oracle(case, n_steps,
                                                          monkeypatch):
    # reset and update pre-activations near +-800: exp overflows to inf in
    # the cell's denominators (and underflows to 0), so r and z are exactly
    # 0 or 1; a backward form such as (d - 1) / d^2 would give inf / inf
    rng = np.random.default_rng(79)
    core = A.RecurrentGateCore(6, 3, 1e-3, rng, heads=2)
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
    core = A.RecurrentGateCore(2 * h, h, 1e-3, rng, heads=1)
    w = {n: p.data for n, p in core.parameters().items()}
    monkeypatch.setattr(A, "np", _CountingNumpy())

    def calls(n_steps):
        x = rng.standard_normal((3 * h, P)).view(_Counting)
        gates = np.empty((2 * n_steps, P)).view(_Counting)
        _Counting.calls = 0
        A._forward_block(x, w, 0, n_steps, 1 / n_steps, core.epsilon, gates,
                         None)
        made = _Counting.calls
        assert np.isfinite(gates).all()
        return made

    at_5 = calls(5)
    assert at_5 <= 14 * 5
    # a later step: the hidden GEMM, 8 calls of the cell, 3 of the state
    # update and the heads' GEMM
    assert calls(6) - at_5 <= 13


def test_fused_gates_pass_grad_check():
    rng = np.random.default_rng(43)
    core = A.RecurrentGateCore(6, 3, 1e-3, rng, heads=2)
    qa, ka, pb = _gate_case("causal_masked", rng)
    q = Tensor(qa, requires_grad=True)
    k = Tensor(ka, requires_grad=True)
    params = dict(core.parameters(), q=q, k=k)
    for n_steps in (1, 2, 3, 5):
        coef = rng.standard_normal(pb.valid_mask.shape)
        # a step small enough that the clamp, whose dt is no function on
        # the tape, stays inactive under the differences
        dt = 0.5 / n_steps

        def loss():
            final, traj = core.logits(q, k, pb, n_steps, dt)
            assert traj.dt_effective == dt
            return _weighted_sum(final, coef)

        # the op tolerance of the gradients verify suite
        report = TR.grad_check(loss, params, h=1e-5)
        assert report["max_rel_error"] < 1e-4, (n_steps, report["per_param"])


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5])
@pytest.mark.parametrize("case", ["full", "causal_masked"])
def test_tape_keeps_steps_1_to_n_minus_2_of_the_packed_pairs(case, n_steps,
                                                             monkeypatch):
    rng = np.random.default_rng(61)
    H, h = 2, 3
    core = A.RecurrentGateCore(6, h, 1e-3, rng, heads=H)
    qa, ka, pb = _gate_case(case, rng)
    kept = []
    gru_forward = A._gru_forward

    def spy(*args):
        kept.append(args[-1])
        gru_forward(*args)

    monkeypatch.setattr(A, "_gru_forward", spy)
    with T.no_grad():
        core.logits(Tensor(qa), Tensor(ka), pb, n_steps, 1 / n_steps)
    core.logits(Tensor(qa, requires_grad=True), Tensor(ka), pb, n_steps,
                1 / n_steps)
    untaped, taped = kept
    assert untaped is None
    # both heads see the same mask; every pair valid packs as it stands
    slots = pb.valid_mask[:, 0]
    pairs_run = slots.size if slots.all() else int(slots.sum())
    assert taped.nbytes == H * max(n_steps - 2, 0) * h * pairs_run * 8


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
        mh.forward(x, x, x, key_mask=key_mask)      # the pool starts
    tracemalloc.start()
    try:
        with T.no_grad():
            untaped = mh.forward(x, x, x, key_mask=key_mask)
        baseline = tracemalloc.get_traced_memory()[0]
        out = mh.forward(x, x, x, key_mask=key_mask)
        live = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert out.requires_grad and not untaped.requires_grad
    valid = np.tril(np.ones((T_, T_), dtype=bool)) & key_mask[:, None, :]
    packed = int(valid.sum())
    hidden = H * (N - 2) * (d // H) * packed * 8
    final = H * B * T_ * T_ * 8
    # the softmax weights, the pair indices, the packed keys and slots and
    # the masks each take at most the final logits' bytes
    slack = 5 * final
    assert live <= hidden + final + slack, (live, hidden, final)
    assert slack < (N + 1) * final < 2 * N * final   # the states, the gates


@pytest.mark.parametrize("case", ["causal_masked", "topk", "long_rows"])
def test_invalid_slots_hold_the_floor_gates(case):
    rng = np.random.default_rng(67)
    core = A.RecurrentGateCore(6, 3, 1e-3, rng, heads=2)
    qa, ka, pb = _gate_case(case, rng)
    n_steps = 3
    with T.no_grad():
        traj = core.logits(Tensor(qa), Tensor(ka), pb, n_steps, 1 / n_steps)[1]
    valid = pb.valid_mask
    assert (~valid).any()
    assert (traj.f_tau[~valid] == core.epsilon).all()
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
    core = A.RecurrentGateCore(2 * D, D, 1e-3, rng, heads=H)
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
            Tensor(qa), Tensor(ka[:, :, :T_k]), Tensor(va[:, :, :T_k]), core, cfg)
        out_pad, alpha_pad, pb_pad, traj_pad = A.attend(
            Tensor(qa), Tensor(ka), Tensor(va), core, cfg,
            key_mask=np.broadcast_to(key_mask, (B, T_k + pad)))
    assert pb.valid_mask.all() and not pb_pad.valid_mask.all()
    w = {n: p.data for n, p in core.parameters().items()}
    for hd in range(H):
        zero = np.empty((2 * n_steps, 1))
        A._forward_block(np.zeros((3 * D, 1)), w, hd, n_steps, cfg.dt_nominal,
                         core.epsilon, zero, None)
        f_tau = traj.f_tau[:, hd]
        assert zero[:n_steps].min() > max(f_tau.max(), 1 / cfg.dt_nominal)
        assert f_tau.min() > 1 / cfg.dt_nominal
    assert traj.dt_effective < cfg.dt_nominal
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
        assert block.forward(x, x, x).shape == (0, 5, 8)
    out = block.forward(x, x, x, key_mask=np.ones((0, 5), dtype=bool))
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
    for core in (A.RecurrentGateCore(6, 3, 1e-3, rng, heads=2),
                 A.SdpaFrozenGates(3)):
        for n_steps in (1, 3):
            final, traj = core.logits(q, k, pb, n_steps, 1 / n_steps)
            assert final.shape == pb.valid_mask.shape
            assert traj.a.shape == pb.valid_mask.shape + (n_steps + 1,)
            assert traj.f_tau.shape == traj.f_phi.shape == \
                pb.valid_mask.shape + (n_steps,)


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
    return A.RecurrentGateCore(2 * D, D, 1e-3, rng, heads=H), q, k, pb


def _packed_counts(pb):
    """The pairs the gate kernel runs per head: the valid ones."""
    valid = np.swapaxes(pb.valid_mask, 0, 1).reshape(pb.valid_mask.shape[1], -1)
    return [int(v.sum()) for v in valid]


def _kernel_on(core, up, valid, n_steps, dt):
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
        for a, b in A._blocks(packed.shape[1]):
            A._forward_block(np.ascontiguousarray(packed[:, a:b]), w, hd,
                             n_steps, dt, core.epsilon, out[:, a:b], None)
        gates[:, hd, v] = out
        gates[:n_steps, hd, ~v] = core.epsilon
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
        gates = _traj_gates(core.unroll(pin, n_steps, 1 / n_steps)[1])
        up = pair_sum(pin.qp, pin.kp, pb)
    assert (pin.shape, pin.size, pin.ndim) == (up.shape, up.size, up.ndim)
    got = np.moveaxis(gates, 2, 1).reshape(2 * n_steps, core.heads, -1)
    assert np.array_equal(got, _kernel_on(core, up.data, pb.valid_mask,
                                          n_steps, 1 / n_steps))


def test_gates_never_build_the_pair_input(monkeypatch):
    # with 3h >> 2N, one materialized pair input outweighs everything the
    # gates allocate: their outputs, the key index and each worker's blocks
    monkeypatch.setattr(pool, "_WORKERS", 2)
    rng = np.random.default_rng(59)
    B, H, T_q, D, K, n_steps = 1, 2, 2048, 16, 32, 2
    core = A.RecurrentGateCore(2 * D, D, 1e-3, rng, heads=H)
    q = Tensor(rng.standard_normal((B, H, T_q, D)))
    k = Tensor(rng.standard_normal((B, H, T_q, D)))
    pb = pairs.topk_concat(q, k, K)
    pair_input_bytes = H * 3 * D * (B * T_q * K) * 8
    with T.no_grad():
        core.logits(q, k, pb, n_steps, 1 / n_steps)   # the pool starts
        tracemalloc.start()
        try:
            core.logits(q, k, pb, n_steps, 1 / n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < pair_input_bytes, (peak, pair_input_bytes)


# --------------------------------------------------------------------------
# work items: the same results for any number of workers
# --------------------------------------------------------------------------

def _block_case(case):
    """A core, q, k and pair batch whose pair count ``case`` names."""
    rng = np.random.default_rng(47)
    B, H, D, key_mask, causal = 1, 2, 2, None, False
    if case == "topk_row_split":      # blocks cut a query's K pairs apart
        T_q, T_k, K = 301, 40, 20
    elif case == "batch_rows":        # packed blocks cross batch rows
        B, T_q, T_k, K, causal = 3, 60, 60, None, True
        key_mask = np.ones((B, T_k), dtype=bool)
        key_mask[1, -9:] = False
    elif case == "one_block":
        B, T_q, T_k, K = 2, 5, 5, None
    else:                             # uneven: P not a multiple of the cut
        T_q, T_k, K = 4099, 5, 3
    core = A.RecurrentGateCore(2 * D, D, 1e-3, rng, heads=H)
    qa = rng.standard_normal((B, H, T_q, D))
    ka = rng.standard_normal((B, H, T_k, D))
    if K is None:
        pb = pairs.full_pairwise_concat(Tensor(qa), Tensor(ka), causal=causal,
                                        key_mask=key_mask)
    else:
        pb = pairs.topk_concat(Tensor(qa), Tensor(ka), K)
    return core, qa, ka, pb


def _gate_run(core, qa, ka, pb, n_steps=3):
    """no_grad final logits and gates, the same from the tape, and the
    gradients of the 6 gate weights and of q, k under a loss that weighs
    every final logit differently."""
    with T.no_grad():
        untaped, traj = core.logits(Tensor(qa), Tensor(ka), pb, n_steps,
                                    1 / n_steps)
        untaped = (untaped.data, _traj_gates(traj))
    q = Tensor(qa, requires_grad=True)
    k = Tensor(ka, requires_grad=True)
    for p in core.parameters().values():
        p.zero_grad()
    final, traj = core.logits(q, k, pb, n_steps, 1 / n_steps)
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
    blocks = A._blocks(P)
    sizes = [b - a for a, b in blocks]
    assert blocks[0][0] == 0 and blocks[-1][1] == P and max(sizes) <= A._BLOCK_PAIRS
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
            monkeypatch.setattr(pool, "_WORKERS", workers)
            ran_on.clear()
            pair_grads.clear()
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
    monkeypatch.setattr(pool, "_WORKERS", 2)
    expected = _gate_run(core, qa, ka, pb)
    forward_block = A._forward_block

    def failing(x, w, hd, *rest):
        if hd == 1:
            raise RuntimeError("item failed")
        forward_block(x, w, hd, *rest)

    monkeypatch.setattr(A, "_forward_block", failing)
    with pytest.raises(RuntimeError, match="item failed"):
        core.logits(Tensor(qa), Tensor(ka), pb, 3, 1 / 3)
    monkeypatch.setattr(A, "_forward_block", forward_block)
    again = _gate_run(core, qa, ka, pb)
    for got, want in zip(again[1], expected[1]):
        assert np.array_equal(got, want)
    for name, grad in expected[2].items():
        assert np.array_equal(again[2][name], grad)


def test_gate_kernel_is_bitwise_the_same_for_concurrent_callers(monkeypatch):
    # two threads submit to the one pool at once, each under its own no_grad
    core, qa, ka, pb = _block_case("batch_rows")
    monkeypatch.setattr(pool, "_WORKERS", 2)
    with T.no_grad():
        expected = core.logits(Tensor(qa), Tensor(ka), pb, 3, 1 / 3)[0].data

    def caller():
        with T.no_grad():
            return [core.logits(Tensor(qa), Tensor(ka), pb, 3, 1 / 3)[0].data
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
                  "blas": get and pool._run_items(get, [()] * 4)}}))
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
        queue.put(core.logits(Tensor(qa), Tensor(ka), pb, 3, 1 / 3)[0].data)


def test_gate_kernel_runs_in_a_forked_child(monkeypatch):
    core, qa, ka, pb = _block_case("batch_rows")
    monkeypatch.setattr(pool, "_WORKERS", 2)
    with T.no_grad():
        final, _ = core.logits(Tensor(qa), Tensor(ka), pb, 3, 1 / 3)
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
    assert len(seen) == 3 * len(A._items(_packed_counts(pb)))
    for w in seen:
        for name in ("W_h", "W_o", "b_o", "w_t", "b_x"):
            assert np.shares_memory(w[name], getattr(core, name).data), name


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
    gates = Tensor(np.concatenate([rng.uniform(0.5, 2.0, (3, 2, 3, 1)),
                                   np.zeros((3, 2, 3, 1))]))
    gates.data[2, 1, 2, 0] = 8.0      # the largest rate, in the last step
    _, traj = A.integrate_logits(gates, 0.5)
    assert traj.dt_effective == 1.0 / 8.0
    # the f_phi rows are no rates: a large target does not clamp
    gates.data[4, 0, 0, 0] = 100.0
    _, traj = A.integrate_logits(gates, 0.5)
    assert traj.dt_effective == 1.0 / 8.0
    gates.data[1, 0, 0, 0] = -1.0
    with pytest.raises(ValueError):
        A.integrate_logits(gates, 0.5)
    _, traj = A.integrate_logits(gates, 0.5, clamp=False)
    assert traj.dt_effective == 0.5


def test_integrate_starts_at_zero_and_records_dt():
    core = make_core(seed=9)
    u = np.random.default_rng(9).uniform(-1, 1, (6, 4))
    gates = _gates(core, u, 4, 0.25)
    a, traj = A.integrate_logits(Tensor(gates), 0.25)
    assert (traj.a[..., 0] == 0.0).all()
    assert traj.a.shape == (1, 1, 6, 1, 5)
    assert traj.dt_effective <= 0.25
    expected_dt = min(0.25, 1.0 / gates[:4].max())
    assert traj.dt_effective == expected_dt


def test_trajectory_csv_export(tmp_path):
    core = make_core(seed=11)
    u = np.random.default_rng(11).uniform(-1, 1, (2, 4))
    _, traj = A.integrate_logits(Tensor(_gates(core, u, 3, 1 / 3)), 1 / 3)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,pair_id,a,f_tau,f_phi"
    assert len(lines) == 1 + 2 * 4  # header + (N+1) rows per pair


def test_trajectory_csv_reads_back_exactly(tmp_path):
    core = make_core(seed=12)
    u = np.random.default_rng(12).uniform(-1, 1, (5, 4))
    _, traj = A.integrate_logits(Tensor(_gates(core, u, 3, 1 / 3)), 1 / 3)
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
    """Gates with f_tau < 1 / 0.5 (clamp inactive at dt 0.5), and a0.
    Returns (make_gates, gate leaves, a0, coef): make_gates() builds the
    gates [2N, *shape] from the leaves, a fresh graph each call. With
    ``shared`` one f_tau and one f_phi tensor serve every step, as SDPA
    gates do; else the gates are a leaf themselves."""
    rng = np.random.default_rng(seed)

    def leaf(lo, hi):
        return Tensor(rng.uniform(lo, hi, shape), requires_grad=True)

    if shared:
        tau, phi = leaf(0.2, 1.5), leaf(-1, 1)

        def make_gates():
            tau_row, phi_row = (T.reshape(t, (1,) + shape) for t in (tau, phi))
            return T.concat([tau_row] * n_steps + [phi_row] * n_steps, axis=0)
        leaves = [tau, phi]
    else:
        rows = (n_steps,) + shape
        gates = Tensor(np.concatenate([rng.uniform(0.2, 1.5, rows),
                                       rng.uniform(-1, 1, rows)]),
                       requires_grad=True)

        def make_gates():
            return gates
        leaves = [gates]
    return make_gates, leaves, leaf(-1, 1), rng.standard_normal(shape)


@pytest.mark.parametrize("start", ["zero", "a0"])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("dt", [0.5, 0.9])           # clamp off, clamp on
def test_integrate_equals_the_euler_step_chain(start, shared, dt):
    make_gates, leaves, a0, coef = _euler_case(shared)
    a0 = a0 if start == "a0" else None
    final, traj = A.integrate_logits(make_gates(), dt, a0=a0)
    assert (traj.dt_effective < dt) == (dt == 0.9)
    first = a0 if a0 is not None else Tensor(np.zeros(coef.shape))
    ref, states = euler_chain(make_gates(), traj.dt_effective, first)
    assert np.array_equal(final.data, ref.data)
    assert np.array_equal(traj.a, np.stack([s.data for s in states], axis=-1))
    leaves = leaves + ([] if a0 is None else [a0])
    grads = []
    for out in (final, ref):
        for t in leaves:
            t.zero_grad()
        T.tsum(T.mul(out, Tensor(coef))).backward()
        grads.append([t.grad.copy() for t in leaves])
    for got, want in zip(*grads):
        assert np.abs(got - want).max() <= 1e-12


def test_integrate_passes_grad_check():
    make_gates, (gates,), a0, coef = _euler_case(False, seed=67, shape=(3, 2))

    def loss():
        final, _ = A.integrate_logits(make_gates(), 0.5, a0=a0)
        return T.tsum(T.mul(final, Tensor(coef)))

    report = TR.grad_check(loss, {"gates": gates, "a0": a0}, h=1e-5)
    assert report["max_rel_error"] < 1e-6, report["per_param"]


def test_trajectory_is_views_of_the_integrator_buffers():
    core = make_core(seed=11)
    u = np.random.default_rng(11).uniform(-1, 1, (3, 4))
    gates = Tensor(_gates(core, u, 3, 1 / 3))
    final, traj = A.integrate_logits(gates, 1 / 3)
    assert np.shares_memory(traj.a, final.data)
    assert np.shares_memory(traj.f_tau, gates.data)
    assert np.shares_memory(traj.f_phi, gates.data)
    assert np.array_equal(traj.f_tau, np.moveaxis(gates.data[:3], 0, -1))
    assert np.array_equal(traj.f_phi, np.moveaxis(gates.data[3:], 0, -1))
    assert np.array_equal(traj.a[..., -1], final.data)
    # the gate core's own trajectory: views of its gates and state buffer,
    # which its tape op does not keep; it holds a copy of the final logits
    for taped in (False, True):
        pin = _project(core, u)
        with contextlib.nullcontext() if taped else T.no_grad():
            final, traj = core.unroll(pin, 3, 1 / 3)
        assert final.requires_grad == taped
        assert np.array_equal(traj.a[..., -1], final.data)
        assert np.shares_memory(traj.a, final.data) != taped


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
    core = A.RecurrentGateCore(6, 3, 1e-3, rng, heads=2)
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
                epsilon=1e-3, sink_gate_enabled=False, causal=False)
    base.update(kw)
    return A.LanConfig(**base)


def test_single_key_softmax_is_identity():
    rng = np.random.default_rng(13)
    q = Tensor(rng.standard_normal((1, 1, 1, 2)))
    k = Tensor(rng.standard_normal((1, 1, 1, 2)))
    v = Tensor(rng.standard_normal((1, 1, 1, 2)))
    core = make_core(pair_dim=4, hidden=2, seed=13)
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
                f_tau[i, j, n] = _softplus(o[1]) + core.epsilon

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
    core = make_core(pair_dim=4, hidden=2, seed=17)
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
    core = make_core(pair_dim=4, hidden=2, seed=19)
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
                epsilon=1e-3, sink_gate_enabled=False, causal=False)
    base.update(kw)
    return A.LanConfig(**base)


def _head_core(mh, h):
    """An H=1 core holding head ``h``'s weight slices of ``mh.core``."""
    D = mh.cfg.head_dim
    core = A.RecurrentGateCore(2 * D, D, mh.cfg.epsilon,
                               np.random.default_rng(0), heads=1)
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
    return T.add(T.matmul(T.concat(parts, axis=-1), mh.W_g), mh.b_g)


def test_multi_head_single_head_equals_manual_path():
    cfg = _mh_cfg(heads=1)
    mh = A.MultiHeadLan(cfg, np.random.default_rng(31))
    rng = np.random.default_rng(32)
    x = Tensor(rng.standard_normal((1, 3, 4)))
    out = mh.forward(x, x, x)
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
    base = mh.forward(x, x, x).data.copy()
    for p in (mh.W_q, mh.b_q, mh.W_k, mh.b_k, mh.W_v, mh.b_v,
              *mh.core.parameters().values()):
        p.data[...] = np.flip(p.data, axis=0)
    assert np.array_equal(mh.forward(x, x, x).data, base)


def test_multi_head_two_heads_match_manual_composition():
    cfg = _mh_cfg(heads=2)
    mh = A.MultiHeadLan(cfg, np.random.default_rng(35))
    rng = np.random.default_rng(36)
    x = Tensor(rng.standard_normal((2, 3, 4)))
    out = mh.forward(x, x, x)
    manual = _manual_heads(mh, x, cfg)
    assert np.allclose(out.data, manual.data, atol=1e-12)


@pytest.mark.parametrize("case", [dict(), dict(causal=True), dict(top_k=2)])
def test_multi_head_tape_and_no_grad_agree_bitwise(case):
    cfg = _mh_cfg(heads=2, euler_steps=3, sink_gate_enabled=True, **case)
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
            out = mh.forward(x, x, x, key_mask=key_mask, collect=collect)
        assert out.requires_grad == grad
        traj = collect["trajectories"][0]
        runs.append([out.data, collect["weights"][0], traj.a, traj.f_tau,
                     traj.f_phi])
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
    core = A.RecurrentGateCore(2 * D, D, 1e-3, rng, heads=H)
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
    # args[2], and integrate_logits, reading the trajectory of its result
    seen = {}
    unroll, integrate = A.RecurrentGateCore.unroll, A.integrate_logits

    def spy_unroll(*args, **kwargs):
        seen["unroll"] = args
        return unroll(*args, **kwargs)

    def spy_integrate(*args, **kwargs):
        seen["integrate"] = integrate(*args, **kwargs)
        return seen["integrate"]

    monkeypatch.setattr(A.RecurrentGateCore, "unroll", spy_unroll)
    monkeypatch.setattr(A, "integrate_logits", spy_integrate)
    B, T_q = 2, 5
    x = Tensor(np.random.default_rng(73).standard_normal((B, T_q, 4)))
    for case, k_eff in ((dict(), T_q), (dict(top_k=2, causal=True), 2)):
        cfg = _mh_cfg(heads=2, euler_steps=3, **case)
        mh = A.MultiHeadLan(cfg, np.random.default_rng(74))
        seen.clear()
        mh.forward(x, x, x)
        args = seen["unroll"]
        assert args[1].size // args[1].shape[-1] == B * cfg.heads * T_q * k_eff
        assert args[2] == cfg.euler_steps
        _, traj = seen["integrate"]
        assert 0 < traj.dt_effective <= traj.dt_nominal == cfg.dt_nominal
        assert isinstance(traj.f_tau, np.ndarray)
        assert traj.f_tau.shape == (B, cfg.heads, T_q, k_eff, cfg.euler_steps)
