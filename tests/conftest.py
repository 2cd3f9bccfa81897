"""Shared oracle helpers for the test suite.

These are deliberately naive (loops, direct formulas) so they stay
independent of the library code paths they check.
"""

import numpy as np

from fluid import tensor as T
from fluid.pairs import PairBatch
from fluid.tensor import ShapeError, Tensor


def matmul_triple_loop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Naive O(MNK) matrix product."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for l in range(k):
                s += a[i, l] * b[l, j]
            out[i, j] = s
    return out


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Per-element central differences of a scalar function of an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


# --------------------------------------------------------------------------
# run-length decoding: the oracle of data.event_encode
# --------------------------------------------------------------------------

def event_decode(seq) -> np.ndarray:
    """Expand an EventSequence's events back into the binary pixel sequence."""
    v = seq.values[seq.mask, 0]
    t = seq.times[seq.mask]
    durations = np.diff(np.concatenate([[0.0], t])).astype(int)
    return np.concatenate([np.full(d, val) for val, d in zip(v, durations)]) \
        if len(v) else np.zeros(0)


# --------------------------------------------------------------------------
# softplus on the tape: the gate kernel runs T._softplus_ in place, so the
# composed oracles below need their own op
# --------------------------------------------------------------------------

def softplus(a: Tensor) -> Tensor:
    """log(1 + e^a), with derivative sigmoid(a)."""
    x = a.data
    out = T._softplus_(x.copy(), np.empty_like(x))
    return T._node(out, (a,), lambda g: (g * T.sigmoid(Tensor(x)).data,))


# --------------------------------------------------------------------------
# materialized pair input and composed GRU gate: the oracles for the fused
# gate kernel
# --------------------------------------------------------------------------

def pair_sum(a: Tensor, b: Tensor, batch: PairBatch) -> Tensor:
    """a_i + b_j for every selected pair (i, j), zero on invalid pairs.

    a: [B,H,T_q,C] query features, b: [B,H,T_k,C] key features; returns
    [B,H,T_q,K_eff,C], built whole (stored channel-major). The backward
    sums over the pairs of a query for a and scatter-adds into the
    selected keys for b.
    """
    B, H, T_q, C = a.shape
    T_k = b.shape[2]
    if b.shape != (B, H, T_k, C):
        raise ShapeError(f"pair_sum: features disagree: {a.shape} and {b.shape}")
    idx, valid = batch.selected_indices, batch.valid_mask
    K = idx.shape[3]
    a_cm = a.data.transpose(1, 3, 0, 2)[..., None]          # [H,C,B,T_q,1]
    b_cm = b.data.transpose(1, 3, 0, 2)                     # [H,C,B,T_k]
    # one flat key index per pair and head: b * T_k + selected key
    flat_idx = (np.arange(B)[:, None, None, None] * T_k
                + idx).transpose(1, 0, 2, 3)                 # [H,B,T_q,K]
    b_flat = b_cm.reshape(H, C, B * T_k)
    out = np.empty((H, C, B, T_q, K))
    for h in range(H):
        np.take(b_flat[h], flat_idx[h], axis=1, out=out[h])
    out += a_cm
    valid_cm = valid.transpose(1, 0, 2, 3)[:, None]
    out *= valid_cm

    def rule(g):
        g_cm = g.transpose(1, 4, 0, 2, 3) * valid_cm         # [H,C,B,T_q,K]
        ga = g_cm.sum(axis=4).transpose(2, 0, 3, 1)
        gb = np.empty((H, C, B * T_k))
        for h in range(H):
            lin = flat_idx[h].reshape(-1)
            for c in range(C):
                gb[h, c] = np.bincount(lin, weights=g_cm[h, c].reshape(-1),
                                       minlength=B * T_k)
        return ga, gb.reshape(H, C, B, T_k).transpose(2, 0, 3, 1)

    return T._node(out.transpose(2, 0, 3, 4, 1), (a, b), rule)


def concat_pairs(q: Tensor, k: Tensor, pb) -> Tensor:
    """u = [q_i; k_j] for every selected pair, zero on invalid pairs."""
    B, H, T_q, D = q.shape
    K = pb.selected_indices.shape[3]
    k_sel = T.gather_keys(k, pb.selected_indices)
    q_tiled = T.broadcast_to(T.reshape(q, (B, H, T_q, 1, D)), (B, H, T_q, K, D))
    u = T.concat([q_tiled, k_sel], axis=-1)
    if not pb.valid_mask.all():
        u = T.mul(u, Tensor(pb.valid_mask[..., None].astype(np.float64)))
    return u


def broadcast_weights(core) -> dict:
    """The core's weights as [1,H,1,...] views that broadcast against pair
    batches [B,H,T_q,K_eff,...], with f_phi's and f_tau's heads apart as
    rows [1,H,1,1,h] and biases [1,H,1,1]: the layout of a composed GRU.
    Gradients flow back to the core."""
    H, h = core.heads, core.hidden_dim

    def view(t, shape):
        return T.reshape(t, (1, H, 1) + shape)

    def row(t, i, shape):
        return view(T.narrow(t, 1, i, 1), shape)

    return {"W_u": view(core.W_u, core.W_u.shape[1:]),
            "w_t": view(core.w_t, (1, 3 * h)), "b_x": view(core.b_x, (1, 3 * h)),
            "W_h": view(core.W_h, (h, 3 * h)),
            "W_phi": row(core.W_o, 0, (1, h)), "b_phi": row(core.b_o, 0, (1,)),
            "W_tau": row(core.W_o, 1, (1, h)), "b_tau": row(core.b_o, 1, (1,))}


def _cell(w, h: int, x_proj: Tensor, hidden):
    # single-bias GRU: the reset gate scales the raw hidden projection,
    # so a zero hidden state needs no projection at all
    xr, xz, xn = (T.narrow(x_proj, -1, i * h, h) for i in range(3))
    if hidden is None:
        z = T.sigmoid(xz)
        n = T.tanh(xn)
        return T.mul(T.sub(Tensor(1.0), z), n)
    hp = T.matmul(hidden, w["W_h"])
    hr, hz, hn = (T.narrow(hp, -1, i * h, h) for i in range(3))
    r = T.sigmoid(T.add(xr, hr))
    z = T.sigmoid(T.add(xz, hz))
    n = T.tanh(T.add(xn, T.mul(r, hn)))
    return T.add(T.mul(T.sub(Tensor(1.0), z), n), T.mul(z, hidden))


def _heads(w, epsilon: float, hidden: Tensor):
    def head(name):
        return T.add(T.tsum(T.mul(hidden, w["W_" + name]), axis=-1),
                     w["b_" + name])

    f_phi = T.tanh(head("phi"))
    f_tau = T.add(softplus(head("tau")), Tensor(epsilon))
    return f_tau, f_phi


def gru_step(core, w, u_proj: Tensor, t_n: float, hidden):
    """One recurrent step on the projected input, with the weight views
    ``w`` of ``broadcast_weights``; (f_tau, f_phi, hidden)."""
    step_bias = T.add(T.scale(w["w_t"], t_n), w["b_x"])
    new_hidden = _cell(w, core.hidden_dim, T.add(u_proj, step_bias), hidden)
    f_tau, f_phi = _heads(w, core.epsilon, new_hidden)
    return f_tau, f_phi, new_hidden


def gru_unroll(core, u: Tensor, n_steps: int, dt_nominal: float):
    """RecurrentGateCore's gates [2N, ...] on raw pair inputs u [..., 2D],
    composed from tape ops step by step: f_tau rows, then f_phi rows."""
    w = broadcast_weights(core)
    u_proj = T.matmul(u, w["W_u"])
    hidden = None
    f_taus, f_phis = [], []
    for n in range(n_steps):
        f_tau, f_phi, hidden = gru_step(core, w, u_proj, n * dt_nominal, hidden)
        f_taus.append(f_tau)
        f_phis.append(f_phi)
    return T.concat([T.reshape(g, (1,) + g.shape) for g in f_taus + f_phis],
                    axis=0)


# --------------------------------------------------------------------------
# composed Euler step: the oracle for the one-op integrator
# --------------------------------------------------------------------------

def euler_step(a_n: Tensor, f_tau: Tensor, f_phi: Tensor, dt: float) -> Tensor:
    """a_{n+1} = a_n + dt * (-f_tau * a_n + f_phi), from tape ops."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return T.add(a_n, T.scale(T.sub(f_phi, T.mul(f_tau, a_n)), dt))


def euler_chain(gates: Tensor, dt: float, a0: Tensor):
    """The recursion over gates [2N, ...] (f_tau rows, then f_phi rows) as
    a chain of ``euler_step``s: (final, every state)."""
    n_steps = gates.shape[0] // 2

    def row(i):
        return T.reshape(T.narrow(gates, 0, i, 1), gates.shape[1:])

    states = [a0]
    for n in range(n_steps):
        states.append(euler_step(states[-1], row(n), row(n_steps + n), dt))
    return states[-1], states


# --------------------------------------------------------------------------
# full stable sort: the oracle for top-k pair selection
# --------------------------------------------------------------------------

def topk_sort(q: Tensor, k: Tensor, K: int, causal: bool = False,
              key_mask=None) -> PairBatch:
    """Top-K keys per query by a full stable argsort of -S over T_k.

    Ties keep ascending index order; invalid (masked-out) entries go to
    the tail of each row as index 0.
    """
    B, H, T_q, _ = q.shape
    T_k = k.shape[2]
    K_eff = min(K, T_k)
    valid = np.ones((B, H, T_q, T_k), dtype=bool)
    if causal:
        valid &= np.arange(T_k)[None, :] <= np.arange(T_q)[:, None]
    if key_mask is not None:
        valid &= np.asarray(key_mask, dtype=bool)[:, None, None, :]
    scores = np.matmul(q.data, np.swapaxes(k.data, -1, -2))
    scores = np.where(valid, scores, -np.inf)

    order = np.argsort(-scores, axis=-1, kind="stable")[..., :K_eff]
    sel_valid = np.isfinite(np.take_along_axis(scores, order, axis=-1))

    sort_key = np.where(sel_valid, order, T_k)
    asc = np.argsort(sort_key, axis=-1, kind="stable")
    indices = np.take_along_axis(order, asc, axis=-1)
    sel_valid = np.take_along_axis(sel_valid, asc, axis=-1)
    indices = np.where(sel_valid, indices, 0)
    return PairBatch(selected_indices=indices, valid_mask=sel_valid)
