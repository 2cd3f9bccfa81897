"""Reference SDPA / CT-RNN oracles and the limit verifiers."""

import numpy as np
import pytest

from fluid import attention as A
from fluid import reference as R
from fluid.tensor import Tensor


def test_sdpa_single_key_returns_value():
    out, weights = R.sdpa_reference(np.array([1.0, 2.0]),
                                    np.array([[0.5, 0.1]]),
                                    np.array([[3.0, -1.0]]))
    assert np.allclose(weights, [[1.0]])
    assert np.allclose(out, [[3.0, -1.0]])


def test_sdpa_orthogonal_query_gives_uniform_weights():
    q = np.array([1.0, 0.0])
    k = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, -3.0]])
    v = np.eye(3)
    _, weights = R.sdpa_reference(q, k, v)
    assert np.allclose(weights, 1.0 / 3.0)


def test_sdpa_matches_textbook_hand_computation():
    rng = np.random.default_rng(0)
    q = rng.standard_normal(3)
    k = rng.standard_normal((4, 3))
    v = rng.standard_normal((4, 2))
    out, weights = R.sdpa_reference(q, k, v)
    logits = k @ q / np.sqrt(3)
    alpha = np.exp(logits) / np.exp(logits).sum()
    assert np.allclose(weights[0], alpha, atol=1e-12)
    assert np.allclose(out[0], alpha @ v, atol=1e-12)


def test_ct_rnn_converges_to_fixed_point():
    cell = R.CtRnnCell(tau=1.0, W_phi=np.array([[0.7]]), b_phi=np.array([0.2]))
    u = np.array([0.5])
    traj = R.ct_rnn_integrate(cell, u, dt=0.1, n_steps=400)
    target = np.tanh(u @ cell.W_phi + cell.b_phi)
    assert np.abs(traj[-1] - target).max() < 1e-6


def test_ct_rnn_zero_weights_stay_at_zero():
    cell = R.CtRnnCell(tau=1.0, W_phi=np.zeros((2, 1)), b_phi=np.zeros(1))
    traj = R.ct_rnn_integrate(cell, np.ones(2), dt=0.5, n_steps=10)
    assert (traj == 0).all()


def test_ct_rnn_three_step_hand_recurrence():
    # tau=2, dt=0.5: h' = h + 0.5*(-0.5 h + 0.5 s), s = tanh(u)
    cell = R.CtRnnCell(tau=2.0, W_phi=np.eye(1), b_phi=np.zeros(1))
    s = np.tanh(1.0)
    traj = R.ct_rnn_integrate(cell, np.array([1.0]), dt=0.5, n_steps=3)
    h = 0.0
    for _ in range(3):
        h = h + 0.5 * (-0.5 * h + 0.5 * s)
    assert np.isclose(traj[-1, 0], h, atol=1e-15)


def test_ct_rnn_rejects_dt_above_tau():
    cell = R.CtRnnCell(tau=0.5, W_phi=np.eye(1), b_phi=np.zeros(1))
    with pytest.raises(ValueError):
        R.ct_rnn_integrate(cell, np.array([1.0]), dt=0.6, n_steps=2)


def test_verify_sdpa_limit_passes_battery():
    report = R.verify_sdpa_limit(seed=1)
    assert report["pass"]
    assert report["battery_size"] == 100
    assert report["max_gap"] <= 1e-6


def test_unfrozen_gates_show_nonzero_gap():
    # sanity: the limit check is not vacuous
    rng = np.random.default_rng(2)
    D = 3
    q = rng.standard_normal((2, D))
    k = rng.standard_normal((3, D))
    v = rng.standard_normal((3, D))
    cfg = A.LanConfig(d_model=D, heads=1, euler_steps=1, top_k=None,
                      sink_gate_enabled=False, causal=False)
    core = A.RecurrentGateCore(D, rng, heads=1)
    out, _, _, _ = A.attend(Tensor(q[None, None]), Tensor(k[None, None]),
                            Tensor(v[None, None]), core, cfg)
    expected, _ = R.sdpa_reference(q, k, v)
    assert np.abs(out.data[0, 0] - expected).max() > 1e-6


def test_frozen_block_is_sdpa_for_any_configured_step_count():
    # the limit is one step at dt = 1: three steps of dt = 1/3 would stop
    # every logit short of q.k/sqrt(d)
    rng = np.random.default_rng(4)
    cfg = A.LanConfig(d_model=6, heads=2, euler_steps=3,
                      sink_gate_enabled=False)
    mh = A.MultiHeadLan(cfg, rng)
    mh.gate = R.FrozenGates()
    x_q, x_kv = rng.standard_normal((1, 4, 6)), rng.standard_normal((1, 5, 6))
    out = mh.forward(Tensor(x_q), Tensor(x_kv)).data[0]
    heads = []
    for h in range(cfg.heads):
        q, k, v = (x[0] @ W.data[h, 0] + b.data[h, 0, 0] for x, W, b in (
            (x_q, mh.W_q, mh.b_q), (x_kv, mh.W_k, mh.b_k),
            (x_kv, mh.W_v, mh.b_v)))
        heads.append(R.sdpa_reference(q, k, v)[0])
    want = np.concatenate(heads, axis=-1) @ mh.W_g.data + mh.b_g.data
    assert np.abs(out - want).max() < 1e-12


def test_verify_ctrnn_limit_exact_and_first_order():
    report = R.verify_ctrnn_limit(seed=3)
    assert report["pass"]
    assert report["max_gap"] == 0.0
    assert 1.8 <= report["convergence_ratio"] <= 2.2


def test_ctrnn_limit_tracks_analytic_curve():
    # tau=1, constant input, t=5: integrator within 2% of the exponential
    cell = R.CtRnnCell(tau=1.0, W_phi=np.array([[1.2]]), b_phi=np.array([0.1]))
    u = np.array([0.8])
    n_steps, dt = 100, 0.05
    traj = R.ct_rnn_integrate(cell, u, dt, n_steps)
    analytic = R.ct_rnn_analytic_constant_input(cell, u, n_steps * dt)
    rel = abs(traj[-1, 0] - analytic[0]) / abs(analytic[0])
    assert rel < 0.02
