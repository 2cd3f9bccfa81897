"""Independent reference implementations used as oracles.

Straight-line code, sharing no kernels with the attention modules: a
textbook scaled dot-product attention and an explicit-Euler leaky
integrator. The two verifiers exercise the limit behaviors of the
liquid attention dynamics against these references and emit JSON-able
reports {battery_size, max_gap, tolerance, pass}. Both limits build
their gates here, in numpy, and run the program's integrator on them:
the SDPA limit runs ``attention.attend`` with the ``FrozenGates`` core,
and the CT-RNN limit feeds ``attention.integrate_logits`` the gates of
the CT-RNN setting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fluid import attention as A
from fluid import pairs
from fluid.tensor import Tensor


@dataclass
class CtRnnCell:
    """Leaky integrator tau * dh/dt = -h + tanh(W_phi u + b_phi)."""

    tau: float
    W_phi: np.ndarray
    b_phi: np.ndarray

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        self.W_phi = np.asarray(self.W_phi, dtype=float)
        self.b_phi = np.asarray(self.b_phi, dtype=float)


def sdpa_reference(q: np.ndarray, k: np.ndarray, v: np.ndarray):
    """Textbook attention: a_i = q.k_i/sqrt(d), alpha = softmax, out = sum alpha_i v_i.

    q: [T_q, D] (or [D]), k: [T_k, D], v: [T_k, D_v].
    Returns (output, weights).
    """
    q = np.atleast_2d(np.asarray(q, dtype=float))
    k = np.asarray(k, dtype=float)
    v = np.asarray(v, dtype=float)
    d = q.shape[-1]
    out = np.zeros((q.shape[0], v.shape[1]))
    weights = np.zeros((q.shape[0], k.shape[0]))
    for i in range(q.shape[0]):
        logits = np.zeros(k.shape[0])
        for j in range(k.shape[0]):
            logits[j] = float(q[i] @ k[j]) / np.sqrt(d)
        e = np.exp(logits - logits.max())
        alpha = e / e.sum()
        weights[i] = alpha
        for j in range(k.shape[0]):
            out[i] += alpha[j] * v[j]
    return out, weights


def ct_rnn_integrate(cell: CtRnnCell, u_series: np.ndarray, dt: float,
                     n_steps: int) -> np.ndarray:
    """Explicit Euler of the leaky integrator from h0 = 0.

    u_series: [n_steps, in_dim] (a constant row may be pre-tiled).
    Returns the trajectory [n_steps + 1, hidden].

    The update is written h + dt*((-1/tau)*h + (1/tau)*tanh(Wu+b)); this
    evaluation order makes the matched-step comparison against the gated
    logit path exact in floating point.
    """
    if dt > cell.tau:
        raise ValueError(f"dt {dt} exceeds tau {cell.tau}; the explicit "
                         f"scheme would be unstable")
    u_series = np.asarray(u_series, dtype=float)
    if u_series.ndim == 1:
        u_series = np.tile(u_series, (n_steps, 1))
    if u_series.shape[0] < n_steps:
        raise ValueError("u_series shorter than n_steps")
    hidden = cell.W_phi.shape[1] if cell.W_phi.ndim == 2 else 1
    inv_tau = 1.0 / cell.tau
    h = np.zeros(hidden)
    traj = np.zeros((n_steps + 1, hidden))
    for n in range(n_steps):
        drive = np.zeros(hidden)
        for col in range(hidden):
            drive[col] = (u_series[n] * cell.W_phi[:, col]).sum() + cell.b_phi[col]
        sig = np.tanh(drive)
        phi = sig * inv_tau
        h = h + dt * ((-inv_tau) * h + phi)
        traj[n + 1] = h
    return traj


def ct_rnn_analytic_constant_input(cell: CtRnnCell, u: np.ndarray,
                                   t: float) -> np.ndarray:
    """Closed form for constant input: h(t) = sigma * (1 - exp(-t/tau))."""
    sig = np.tanh(np.asarray(u, dtype=float) @ cell.W_phi + cell.b_phi)
    return sig * (1.0 - np.exp(-t / cell.tau))


# --------------------------------------------------------------------------
# limit verifiers
# --------------------------------------------------------------------------

class FrozenGates:
    """A gate core of the attention limit: f_tau = 1, f_phi = q.k/sqrt(d)
    on the selected pairs, 0 on invalid ones. Its pair input is f_phi. One
    Euler step at the largest stable size dt = 1/f_tau = 1 lands each logit
    on f_phi/f_tau, so ``unroll`` takes that step whatever step count the
    block has. Numpy on the values of q and k: no gradient flows through
    it."""

    def project_pairs(self, q: Tensor, k: Tensor,
                      pb: pairs.PairBatch) -> np.ndarray:
        B, H, T_q, D = q.shape
        k_sel = k.data[np.arange(B)[:, None, None, None],
                       np.arange(H)[:, None, None], pb.selected_indices]
        dots = (q.data[..., None, :] * k_sel).sum(axis=-1) * pb.valid_mask
        return dots * (1.0 / np.sqrt(D))

    def unroll(self, f_phi: np.ndarray, n_steps: int, trajectory: bool = False):
        gates = np.stack([np.ones_like(f_phi), f_phi])
        final, traj = A.integrate_logits(gates, 1.0)
        return Tensor(final), traj if trajectory else None


def verify_sdpa_limit(seed: int = 0) -> dict:
    """Frozen-gate attention vs the straight-line reference, on a battery
    of 100 random shapes.

    Gates are pinned to f_tau = 1 and f_phi = q.k/sqrt(d); a single Euler
    step at the maximum stable size lands every logit on the dot-product
    value, so the post-softmax outputs must agree within 1e-6.
    """
    rng = np.random.default_rng(seed)
    tolerance, battery_size = 1e-6, 100
    max_gap = 0.0
    for _ in range(battery_size):
        T_q = int(rng.integers(1, 7))
        T_k = int(rng.integers(1, 7))
        D = int(rng.integers(1, 7))
        q = rng.standard_normal((T_q, D))
        k = rng.standard_normal((T_k, D))
        v = rng.standard_normal((T_k, D))

        cfg = A.LanConfig(d_model=D, heads=1, euler_steps=1, top_k=None,
                          sink_gate_enabled=False, causal=False)
        out, _, _, _ = A.attend(Tensor(q[None, None]), Tensor(k[None, None]),
                                Tensor(v[None, None]), FrozenGates(), cfg)
        expected, _ = sdpa_reference(q, k, v)
        gap = float(np.abs(out.data[0, 0] - expected).max())
        max_gap = max(max_gap, gap)
    return {"battery_size": battery_size, "max_gap": max_gap,
            "tolerance": tolerance, "pass": max_gap <= tolerance}


def verify_ctrnn_limit(seed: int = 0) -> dict:
    """Fixed-tau feedforward-gate attention logits vs the leaky integrator,
    over 16 pairs of width 6 and 40 steps of dt = 0.25 at tau = 2.

    The gates take their CT-RNN setting: f_tau = 1/tau fixed and f_phi =
    tanh(W u + b)/tau, both constant along the Euler axis because u does
    not change within a pass. At matched dt the two recursions are the
    same floating-point sequence, so the trajectory deviation must be
    exactly zero; against the analytic exponential the error must fall at
    first order (ratio close to 2 when dt halves).
    """
    rng = np.random.default_rng(seed)
    tau, dt, n_steps, n_pairs, pair_dim = 2.0, 0.25, 40, 16, 6
    W = rng.standard_normal((pair_dim, 1))
    b = rng.standard_normal(1)
    u = rng.standard_normal((n_pairs, pair_dim))

    # the float operations of ct_rnn_integrate's drive, so that the two
    # recursions match exactly
    inv_tau = 1.0 / tau
    f_phi = np.tanh((u * W[:, 0]).sum(axis=-1) + b) * inv_tau
    gates = np.concatenate([np.full((n_steps, n_pairs), inv_tau),
                            np.tile(f_phi, (n_steps, 1))])
    _, traj = A.integrate_logits(gates, dt)

    cell = CtRnnCell(tau=tau, W_phi=W, b_phi=b)
    max_dev = 0.0
    for p in range(n_pairs):
        ref = ct_rnn_integrate(cell, u[p], dt, n_steps)
        max_dev = max(max_dev, float(np.abs(traj.a[p] - ref[:, 0]).max()))

    # order-1 convergence to the analytic solution at fixed horizon
    t_end = n_steps * dt
    analytic = ct_rnn_analytic_constant_input(cell, u[0], t_end)[0]
    err_coarse = abs(ct_rnn_integrate(cell, u[0], dt, n_steps)[-1, 0] - analytic)
    err_fine = abs(ct_rnn_integrate(cell, u[0], dt / 2, 2 * n_steps)[-1, 0]
                   - analytic)
    ratio = float(err_coarse / err_fine) if err_fine > 0 else float("inf")

    ok = (max_dev == 0.0) and (1.8 <= ratio <= 2.2)
    return {"battery_size": n_pairs, "max_gap": max_dev,
        "tolerance": 0.0, "convergence_ratio": ratio,
        "ratio_window": [1.8, 2.2], "pass": ok}
