"""Shared oracle helpers for the test suite.

These are deliberately naive (loops, direct formulas) so they stay
independent of the library code paths they check.
"""

import contextlib
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from hypothesis import settings

from fluid import attention as A
from fluid import pool
from fluid import tensor as T
from fluid.pairs import PairBatch
from fluid.tensor import ShapeError, Tensor

# The property tests draw the same examples on every run and keep no
# example database, so a run repeats; each test's ``settings`` sets only
# its example count. ``--hypothesis-profile=explore`` draws new examples
# at a random seed instead.
settings.register_profile("explore", derandomize=False, database=None,
                          deadline=None)
settings.register_profile("repeatable", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("repeatable")


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


def peak_bytes(fn) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated during one ``fn()``."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()


@contextlib.contextmanager
def pool_workers(workers: int):
    """``fluid.pool`` with ``workers`` workers and a pool of as many
    threads for the body; then that pool is shut down and the original
    count and pool come back. The pool made at import has one thread per
    CPU the process may use, so on one CPU the items of a test that only
    set the count would never overlap."""
    saved = pool._WORKERS, pool._pool
    pool._WORKERS = workers
    pool._pool = ThreadPoolExecutor(workers, thread_name_prefix="fluid-pool")
    try:
        yield
    finally:
        pool._pool.shutdown()
        pool._WORKERS, pool._pool = saved


def weighted_run(fn, arrays, coef: np.ndarray):
    """fn on fresh leaves made from ``arrays``, then backward of
    sum(fn(...) * coef): (output values, the leaves' gradients)."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    T.tsum(T.mul(out, Tensor(coef))).backward()
    return out.data, [t.grad for t in leaves]


def logits(core, q: Tensor, k: Tensor, pb: PairBatch, n_steps: int,
           trajectory: bool = False):
    """(final logits [B,H,T_q,K_eff], LogitTrajectory or None) of the
    pairs ``pb`` selects from [B,H,T,D] q, k: the gate core's
    ``project_pairs``, then its ``unroll``, as ``attention.attend`` calls
    them."""
    return core.unroll(core.project_pairs(q, k, pb), n_steps, trajectory)


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


def scale(a: Tensor, c: float) -> Tensor:
    """a times a python scalar kept off the tape, such as the clamped dt."""
    c = float(c)
    return T._node(a.data * c, (a,), lambda g: (g * c,))


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries from ``start`` along ``axis`` (view, no
    copy), as one tape op."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def rule(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return T._node(a.data[idx], (a,), rule)


def concat(tensors, axis: int = -1) -> Tensor:
    """The tensors joined along ``axis``, as one tape op."""
    out = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]
    return T._node(out, tensors, lambda g: tuple(np.split(g, splits, axis=axis)))


def concat_pairs(q: Tensor, k: Tensor, pb) -> Tensor:
    """u = [q_i; k_j] for every selected pair, zero on invalid pairs."""
    B, H, T_q, D = q.shape
    K = pb.selected_indices.shape[3]
    k_sel = T.gather_keys(k, pb.selected_indices)
    q_tiled = T.broadcast_to(T.reshape(q, (B, H, T_q, 1, D)), (B, H, T_q, K, D))
    u = concat([q_tiled, k_sel], axis=-1)
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
        return view(narrow(t, 1, i, 1), shape)

    return {"W_u": view(core.W_u, core.W_u.shape[1:]),
            "w_t": view(core.w_t, (1, 3 * h)), "b_x": view(core.b_x, (1, 3 * h)),
            "W_h": view(core.W_h, (h, 3 * h)),
            "W_phi": row(core.W_o, 0, (1, h)), "b_phi": row(core.b_o, 0, (1,)),
            "W_tau": row(core.W_o, 1, (1, h)), "b_tau": row(core.b_o, 1, (1,))}


def _cell(w, h: int, x_proj: Tensor, hidden):
    # single-bias GRU: the reset gate scales the raw hidden projection,
    # so a zero hidden state needs no projection at all
    xr, xz, xn = (narrow(x_proj, -1, i * h, h) for i in range(3))
    if hidden is None:
        z = T.sigmoid(xz)
        n = T.tanh(xn)
        return T.mul(T.sub(Tensor(1.0), z), n)
    hp = T.matmul(hidden, w["W_h"])
    hr, hz, hn = (narrow(hp, -1, i * h, h) for i in range(3))
    r = T.sigmoid(T.add(xr, hr))
    z = T.sigmoid(T.add(xz, hz))
    n = T.tanh(T.add(xn, T.mul(r, hn)))
    return T.add(T.mul(T.sub(Tensor(1.0), z), n), T.mul(z, hidden))


def _heads(w, hidden: Tensor):
    def head(name):
        return T.add(T.tsum(T.mul(hidden, w["W_" + name]), axis=-1),
                     w["b_" + name])

    f_phi = T.tanh(head("phi"))
    f_tau = T.add(softplus(head("tau")), Tensor(A._EPSILON))
    return f_tau, f_phi


def gru_step(core, w, u_proj: Tensor, t_n: float, hidden):
    """One recurrent step on the projected input, with the weight views
    ``w`` of ``broadcast_weights``; (f_tau, f_phi, hidden)."""
    step_bias = T.add(scale(w["w_t"], t_n), w["b_x"])
    new_hidden = _cell(w, core.hidden_dim, T.add(u_proj, step_bias), hidden)
    f_tau, f_phi = _heads(w, new_hidden)
    return f_tau, f_phi, new_hidden


def gru_unroll(core, u: Tensor, n_steps: int):
    """RecurrentGateCore's gates [2N, ...] on raw pair inputs u [..., 2D],
    composed from tape ops step by step over a unit horizon: f_tau rows,
    then f_phi rows."""
    w = broadcast_weights(core)
    u_proj = T.matmul(u, w["W_u"])
    hidden = None
    f_taus, f_phis = [], []
    for n in range(n_steps):
        f_tau, f_phi, hidden = gru_step(core, w, u_proj, n * (1.0 / n_steps),
                                        hidden)
        f_taus.append(f_tau)
        f_phis.append(f_phi)
    return concat([T.reshape(g, (1,) + g.shape) for g in f_taus + f_phis],
                    axis=0)


# --------------------------------------------------------------------------
# composed affine map and hyper-connection mixing: the oracles for the
# one-op T.affine, hc_aggregate and hc_combine
# --------------------------------------------------------------------------

def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x W + b as a bias ``add`` on a bare ``matmul`` product."""
    return T.add(T.matmul(x, W), b)


def hc_aggregate(A_m: Tensor, H: Tensor) -> Tensor:
    """A_m^T H [..., d] as a broadcast ``mul`` and a ``tsum`` over streams."""
    w = T.reshape(A_m, A_m.shape + (1,))
    return T.tsum(T.mul(w, H), axis=-2)


def hc_combine(B: Tensor, A_r: Tensor, H: Tensor, layer_out: Tensor) -> Tensor:
    """B^T layer_out + A_r^T H [..., n, d] from ``mul``, ``tsum`` and ``add``."""
    n = H.shape[-2]
    col = T.reshape(B, B.shape + (1,))
    row = T.reshape(layer_out, layer_out.shape[:-1] + (1, layer_out.shape[-1]))
    broadcasted = T.mul(col, row)
    # residual[..., r, :] = sum_s A_r[..., s, r] * H[..., s, :]
    Ar_e = T.reshape(A_r, A_r.shape + (1,))
    H_e = T.reshape(H, H.shape[:-2] + (n, 1, H.shape[-1]))
    residual = T.tsum(T.mul(Ar_e, H_e), axis=-3)
    return T.add(broadcasted, residual)


# --------------------------------------------------------------------------
# composed Euler step: the oracle for the one-op integrator
# --------------------------------------------------------------------------

def euler_step(a_n: Tensor, f_tau: Tensor, f_phi: Tensor, dt: float) -> Tensor:
    """a_{n+1} = a_n + dt * (-f_tau * a_n + f_phi), from tape ops."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    return T.add(a_n, scale(T.sub(f_phi, T.mul(f_tau, a_n)), dt))


def euler_chain(gates: Tensor, dt: float, a0: Tensor):
    """The recursion over gates [2N, ...] (f_tau rows, then f_phi rows) as
    a chain of ``euler_step``s: (final, every state)."""
    n_steps = gates.shape[0] // 2

    def row(i):
        return T.reshape(narrow(gates, 0, i, 1), gates.shape[1:])

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
