"""Liquid attention: logits evolved by a gated linear ODE.

Each query-key pair carries a scalar logit state a integrated by explicit
Euler over a unit refinement horizon, da/dt = -f_tau * a + f_phi. The two
gates come from projection heads over a shared recurrent cell driven by
the pair input u = [q; k] and the step time. f_tau > 0 sets the
convergence rate (its reciprocal is the effective time constant) and
f_phi in (-1, 1) the content target. The step size is clamped so
dt * f_tau <= 1 for every pair, which keeps every update a convex
combination of the current state and the instantaneous target f_phi/f_tau
and therefore keeps trajectories inside the equilibrium envelope.

The gate recurrence is the costly part: it runs per pair and per step.
``RecurrentGateCore`` projects queries and keys once and never builds u
or the pair input: each work item of its kernel forms its own block of
pair inputs. The GRU runs only on the valid pairs, plus one zero-input
pair whose gates every invalid pair gets. All steps unroll as one tape
op with a hand-written backward that keeps only the hidden states of
steps 1 .. N-2 and recomputes the rest; inference runs the same kernel
without keeping anything. The (head, block) work items run on
``fluid.pool``, which top-k selection shares, one thread per CPU, with
the same results for any number of threads.

Every gate core returns the gates of all N steps as one tensor
[2N,B,H,T_q,K_eff], f_tau in rows :N and f_phi in rows N:, each row in
the shape of the pair batch's valid mask. The Euler recursion takes it
whole: it is one tape op with a hand-written adjoint that writes one
gradient in the gates' layout, and its recorded trajectory is views of
the gates and of its state buffer.

Final logits pass through a masked softmax, and one op contracts the
weights with the selected values a chunk of query rows at a time, so the
gathered values are never whole in memory. ``attend`` is the one
per-head pipeline, on [B,H,T,D] inputs; ``MultiHeadLan`` projects into
it, then concatenates and projects the heads, optionally through a
query-dependent sigmoid output gate that counteracts attention sinks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fluid import pairs as pairs_mod
from fluid import pool
from fluid import tensor as T
from fluid.tensor import Tensor, uniform_init, zeros_param


@dataclass
class LanConfig:
    """Hyperparameters of one liquid-attention block."""

    d_model: int
    heads: int = 4
    euler_steps: int = 5
    top_k: int | None = None        # None means full pairwise
    epsilon: float = 1e-3
    sink_gate_enabled: bool = True
    causal: bool = False

    def __post_init__(self):
        if self.d_model < 1 or self.heads < 1:
            raise ValueError(f"d_model {self.d_model} and heads {self.heads} "
                             "must be >= 1")
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by "
                             f"{self.heads} heads")
        if self.euler_steps < 1:
            raise ValueError("euler_steps must be >= 1")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1 or None")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads

    @property
    def dt_nominal(self) -> float:
        return 1.0 / self.euler_steps


@dataclass
class LogitTrajectory:
    """Recorded logit states and gate values across the Euler steps.

    a: [..., N+1] with a[..., 0] == 0; f_tau, f_phi: [..., N];
    dt_effective is the single clamped step used for the whole pass.
    """

    a: np.ndarray
    f_tau: np.ndarray
    f_phi: np.ndarray
    dt_effective: float
    dt_nominal: float

    def to_csv(self, path):
        """Diagnostic dump, one row per (step, pair), pair by pair; step 0
        has no gates. Floats are written with 17 significant digits, so
        they read back exactly."""
        n_steps = self.f_tau.shape[-1]
        a2 = self.a.reshape(-1, n_steps + 1)
        pid = np.arange(a2.shape[0], dtype=np.float64)
        steps = np.stack(np.broadcast_arrays(
            pid[:, None], a2[:, 1:], self.f_tau.reshape(-1, n_steps),
            self.f_phi.reshape(-1, n_steps)), axis=-1)
        # one line of values per pair, written as its N+1 rows by one
        # multi-line format
        fmt = "\n".join(["0,%d,%.17g,,"] + [f"{n},%d,%.17g,%.17g,%.17g"
                                             for n in range(1, n_steps + 1)])
        values = np.column_stack([pid, a2[:, 0], steps.reshape(len(pid), -1)])
        np.savetxt(path, values, fmt=fmt, header="step,pair_id,a,f_tau,f_phi",
                   comments="")


# --------------------------------------------------------------------------
# gate cores
# --------------------------------------------------------------------------

class RecurrentGateCore:
    """GRU over the refinement axis with tanh/softplus projection heads.

    Hidden size equals the per-head dimension; the hidden state is carried
    across Euler steps, independently per pair, starting from zero. The
    step input is [u; t_n] with u = [q; k] and t_n = n * dt_nominal.

    Every weight leads with the head axis, in the layout the kernel
    reads: W_u [H,2D,3h], w_t and b_x [H,3h], W_h [H,h,3h] (the 3h axis
    holds the reset, update and candidate channels), and the two
    projection heads as W_o [H,2,h] and b_o [H,2], row 0 for f_phi and
    row 1 for f_tau. Pair batches are [B,H,...]; a single head is H = 1.

    The input projection is factorized, u W_u = q W_u[:D] + k W_u[D:]:
    ``project_pairs`` projects each query and key once and returns the
    factored ``pairs.PairInput``. ``unroll`` runs all Euler steps as one
    tape op with a hand-written BPTT backward (``_gru_forward`` /
    ``_gru_backward``) that keeps only the gates it returns and the hidden
    states h_1 .. h_{N-2}, and recomputes the rest: the pair inputs, the
    reset, update and candidate gates with one GEMM per step (Chen et
    al., "Training Deep Nets with Sublinear Memory Cost"), h_0 from the
    step-0 cell and h_{N-1}, which is never a previous state, from the
    last step's cell (Gruslys et al., "Memory-Efficient Backpropagation
    Through Time"). Under ``no_grad`` it keeps nothing. Tape and
    ``no_grad`` run the same kernel, so both give bitwise the same gates.

    The kernel runs on each head's packed pairs (``PairInput.counts``):
    its valid pairs in slot order, then one zero-input pair standing for
    the invalid ones, whose gates are copied into every invalid slot and
    whose gradient is the sum of theirs. With every pair valid, packing
    is the identity. The kernel cuts each head's packed pairs into
    contiguous, balanced blocks of at most ``_BLOCK_PAIRS``, a cut that
    depends on the pair count alone, and runs the (head, block) work
    items on ``fluid.pool``, one thread per CPU, made once at import
    (numpy releases the GIL inside ufuncs and GEMMs), or inline with one
    CPU or one item. An item reads the weights in the core's own buffers,
    and forms its block's input [3h, block] and every other buffer in
    scratch of its own, so the pair input is never whole in memory. The
    gates are stored head-major ([2N, H, slots]); callers see them as one
    tensor [2N,B,H,T_q,K_eff]. An item writes its gates, by position, and
    its hidden states in place, and returns its partials of the weight,
    query-projection and key-projection gradients, which are summed in
    item order: outputs and every gradient are bitwise the same for any
    number of threads.
    """

    def __init__(self, pair_dim: int, hidden_dim: int, epsilon: float,
                 rng: np.random.Generator, heads: int):
        h = hidden_dim
        in_dim = pair_dim + 1  # the step time rides along with u
        self.hidden_dim = h
        self.heads = heads
        self.epsilon = float(epsilon)
        self.W_u = uniform_init(rng, (heads, pair_dim, 3 * h), in_dim)
        self.w_t = uniform_init(rng, (heads, 3 * h), in_dim)
        self.b_x = uniform_init(rng, (heads, 3 * h), in_dim)
        self.W_h = uniform_init(rng, (heads, h, 3 * h), h)
        # f_phi's weights and bias, then f_tau's: the order of the draws
        phi_tau = [uniform_init(rng, shape, h).data
                   for shape in ((heads, h), (heads,)) * 2]
        self.W_o = Tensor(np.stack(phi_tau[0::2], axis=1), requires_grad=True)
        self.b_o = Tensor(np.stack(phi_tau[1::2], axis=1), requires_grad=True)

    def parameters(self) -> dict:
        return {"W_u": self.W_u, "w_t": self.w_t, "b_x": self.b_x,
                "W_h": self.W_h, "W_o": self.W_o, "b_o": self.b_o}

    def gates(self, q: Tensor, k: Tensor, pb: pairs_mod.PairBatch,
              n_steps: int, dt_nominal: float) -> Tensor:
        """Gates [2N,B,H,T_q,K_eff] of the pairs ``pb`` selects from
        [B,H,T,D] q, k; f_tau in rows :N, f_phi in rows N:."""
        return self.unroll(self.project_pairs(q, k, pb), n_steps, dt_nominal)

    def project_pairs(self, q: Tensor, k: Tensor,
                      pb: pairs_mod.PairBatch) -> pairs_mod.PairInput:
        """u W_u for every selected pair, [B,H,T_q,K_eff,3h], in factored
        form: the projected queries q W_u[:D] and keys k W_u[D:]."""
        D = q.shape[-1]
        qp = T.matmul(q, T.narrow(self.W_u, -2, 0, D))
        kp = T.matmul(k, T.narrow(self.W_u, -2, D, D))
        return pairs_mod.PairInput(qp, kp, pb)

    def unroll(self, pin: pairs_mod.PairInput, n_steps: int,
               dt_nominal: float) -> Tensor:
        """Gate trajectories for all steps from the pair input ``pin``.

        pin: [B,H,...,3h], factored; the op's parents are its projected
        queries and keys and the gate weights. Returns the gates
        [2N,B,H,T_q,K_eff]: f_tau in rows :N, f_phi in rows N:. The tape
        holds the hidden states [H, max(N-2, 0), h, packed pairs].
        """
        h, C = self.hidden_dim, pin.shape[-1]
        if C != 3 * h:
            raise ValueError(f"pair projection has {C} channels, expected {3 * h}")
        H = self.heads
        if pin.shape[1] != H:
            raise ValueError(f"pair batch {pin.shape} has no head axis of {H}")
        B = pin.shape[0]
        P = pin.size // (H * C)
        # head-major [2N, H, pairs] in memory, seen as [2N,B,H,T_q,K_eff]
        g_hm = np.empty((2 * n_steps, H, P))
        gates = np.moveaxis(
            g_hm.reshape((2 * n_steps, H, B) + pin.shape[2:-1]), 2, 1)

        # in the order of _gru_backward's gradients
        inputs = (pin.qp, pin.kp, self.W_h, self.w_t, self.b_x, self.W_o,
                  self.b_o)
        w = {n: p.data for n, p in self.parameters().items()}
        # h_1 .. h_{N-2} of every packed pair; the backward rebuilds the rest
        saved = (np.empty((H, max(n_steps - 2, 0), h, max(pin.counts)))
                 if T._grad_enabled() and any(t.requires_grad for t in inputs)
                 else None)
        _gru_forward(pin, w, n_steps, dt_nominal, self.epsilon, g_hm, saved)

        def rule(g):
            # a gradient in the gates' layout, as integrate_logits makes
            # it, is head-major already and reshapes without a copy
            g_hm_grad = np.moveaxis(g, 1, 2).reshape(g_hm.shape)
            return _gru_backward(g_hm_grad, pin, w, saved, g_hm, n_steps,
                                 dt_nominal)

        return T._node(gates, inputs, rule)


def _cell(x: np.ndarray, bias: np.ndarray, hp: np.ndarray | None,
          r: np.ndarray, z: np.ndarray, c: np.ndarray, tmp: np.ndarray):
    """Reset, update and candidate gates of one step of one head and block.

    x: [3h,P] projected pairs; bias: [3h,1] step bias; hp: W_h^T h_prev
    [3h,P], or None at the first step where the hidden state is zero (the
    single-bias GRU needs no hidden projection then, and r is unused).
    """
    h = r.shape[0]
    np.add(x[h:2 * h], bias[h:2 * h], out=z)
    np.add(x[2 * h:], bias[2 * h:], out=c)
    if hp is not None:
        z += hp[h:2 * h]
        np.add(x[:h], bias[:h], out=r)
        r += hp[:h]
        T._sigmoid_(r)
        np.multiply(r, hp[2 * h:], out=tmp)
        c += tmp
    T._sigmoid_(z)
    np.tanh(c, out=c)


def _step_bias(w: dict, hd: int, t_n: float) -> np.ndarray:
    return (w["w_t"][hd] * t_n + w["b_x"][hd])[:, None]


# --------------------------------------------------------------------------
# work items of the gate kernel: (head, pair block) on a thread pool
# --------------------------------------------------------------------------

# the most pairs one work item takes: each item's scratch is a few
# [3h, block] arrays, small enough to stay in cache
_BLOCK_PAIRS = 4096


def gate_workers() -> int:
    """The number of threads of the pool that gates and top-k share."""
    return pool._WORKERS


def _blocks(P: int) -> list[tuple[int, int]]:
    """[start, stop) of contiguous, balanced blocks of at most _BLOCK_PAIRS
    pairs each, none for no pairs. The cut depends on P alone, never on
    the worker count."""
    n = -(-P // _BLOCK_PAIRS)
    return [(P * i // n, P * (i + 1) // n) for i in range(n)]


def _items(counts: list[int]) -> list[tuple[int, int, int]]:
    """(head, start, stop) of every work item over the packed pairs of
    each head, head by head."""
    return [(hd, a, b) for hd, P in enumerate(counts) for a, b in _blocks(P)]


def _gru_forward(pin, w, n_steps, dt_nominal, epsilon, gates, saved):
    """Run every head's GRU on the packed pairs of ``pin`` and write f_tau
    (rows :N) and f_phi (rows N:) of ``gates`` [2N,H,slots]. With
    ``saved`` [H,N-2,h,packed pairs] the hidden states h_1 .. h_{N-2} are
    kept there for the backward."""
    def item(hd, a, b):
        out = (gates[:, hd, a:b] if pin.pos is None
               else np.empty((2 * n_steps, b - a)))
        _forward_block(pin.block(hd, a, b), w, hd, n_steps, dt_nominal,
                       epsilon, out,
                       None if saved is None else saved[hd, :, :, a:b])
        if pin.pos is not None:
            pin.scatter(gates[:, hd], hd, a, b, out)

    pool._run_items(item, _items(pin.counts))


def _forward_block(x, w, hd, n_steps, dt_nominal, epsilon, gates, saved):
    """Head ``hd``'s GRU over one block of pairs: x [3h,P], gates [2N,P],
    saved [N-2,h,P] for h_1 .. h_{N-2}, or None. The scratch is the
    block's alone; it holds h_0 and h_{N-1}, which are never saved."""
    C, P = x.shape
    h = C // 3
    hp = np.empty((C, P))
    r, z, c, tmp, hidden = (np.empty((h, P)) for _ in range(5))
    o = np.empty((2, P))
    t = np.empty(P)
    W_hT, W_o, b_o = w["W_h"][hd].T, w["W_o"][hd], w["b_o"][hd]
    prev = None
    for n in range(n_steps):
        new = hidden if saved is None or not 0 < n < n_steps - 1 else saved[n - 1]
        if prev is not None:
            np.matmul(W_hT, prev, out=hp)
        _cell(x, _step_bias(w, hd, n * dt_nominal),
              None if prev is None else hp, r, z, c, tmp)
        # new hidden = (1 - z) * c + z * prev
        np.subtract(1.0, z, out=tmp)
        tmp *= c
        if prev is None:
            new[...] = tmp
        else:
            np.multiply(z, prev, out=new)
            new += tmp
        prev = new

        np.matmul(W_o, new, out=o)
        o += b_o[:, None]
        # f_phi = tanh(o[0]), f_tau = softplus(o[1]) + eps
        np.tanh(o[0], out=gates[n_steps + n])
        np.add(T._softplus_(o[1], t), epsilon, out=gates[n])


def _gru_backward(g, pin, w, saved, gates, n_steps, dt_nominal):
    """BPTT through ``_gru_forward``, g and gates [2N,H,slots]: returns
    (d qp, d kp, dW_h, dw_t, db_x, dW_o, db_o), each in its parameter's
    shape. Each item forms its block of pair inputs again, gathers its
    columns of g and of the gates, and returns its partials; they are
    summed in item order, so every gradient is the same for any number of
    workers."""
    items = _items(pin.counts)

    def item(hd, a, b):
        dx, parts = _backward_block(
            pin.gather(g[:, hd], hd, a, b, sum_invalid=True),
            pin.block(hd, a, b), w, hd, saved[hd, :, :, a:b],
            pin.gather(gates[:, hd], hd, a, b), n_steps, dt_nominal)
        return parts, pin.block_grads(hd, a, b, dx)

    results = pool._run_items(item, items)
    totals = tuple(np.zeros_like(w[n])
                   for n in ("W_h", "w_t", "b_x", "W_o", "b_o"))
    for (hd, _, _), (parts, _) in zip(items, results):
        for total, part in zip(totals, parts):
            total[hd] += part
    return pin.grads(items, [pair for _, pair in results]) + totals


def _backward_block(g, x, w, hd, saved, gates, n_steps, dt_nominal):
    """BPTT of head ``hd`` over one block: g, gates [2N,P], x [3h,P],
    saved [N-2,h,P]. Returns d x and this block's partials (dW_h [h,3h],
    dw_t [3h], db_x [3h], dW_o [2,h], db_o [2]).

    h_0 = (1 - z_0) * c_0 is rebuilt once at the start, and h_{N-1} at
    step N-1 from the cell that step recomputes, each with the forward's
    own float operations, so the states are bitwise the forward's."""
    C, P = x.shape
    h = C // 3
    N = n_steps
    dW_h, dw_t, db_x = np.zeros((h, C)), np.zeros(C), np.zeros(C)
    dW_o, db_o = np.zeros((2, h)), np.zeros(2)
    hp = np.empty((C, P))
    dhp = np.empty((C, P))      # grad of W_h^T h_prev; its r, z rows are dx's
    dr, dz, dn = dhp[:h], dhp[h:2 * h], dhp[2 * h:]
    r, z, c, tmp, dcp, dh, h0 = (np.empty((h, P)) for _ in range(7))
    o = np.empty((2, P))
    dpre = np.empty((2, P))
    d_phi, d_tau = dpre
    sums = np.empty(C)
    W_h, W_hT = w["W_h"][hd], w["W_h"][hd].T
    W_o, b_o = w["W_o"][hd], w["b_o"][hd]
    dx = np.zeros((C, P))
    dh[...] = 0.0
    if N > 1:
        _cell(x, _step_bias(w, hd, 0.0), None, r, z, c, tmp)
        np.subtract(1.0, z, out=h0)
        h0 *= c
    for n in reversed(range(N)):
        prev = None if n == 0 else h0 if n == 1 else saved[n - 2]
        # recompute the cell; 1 - z is kept in dz's rows
        if prev is not None:
            np.matmul(W_hT, prev, out=hp)
        _cell(x, _step_bias(w, hd, n * dt_nominal),
              None if prev is None else hp, r, z, c, tmp)
        np.subtract(1.0, z, out=dz)
        if n == N - 1:
            # the last state, in dcp until the candidate pre-activation:
            # new = (1 - z) * c + z * prev
            new = dcp
            np.multiply(dz, c, out=new)
            if prev is not None:
                np.multiply(z, prev, out=tmp)
                new += tmp
        else:
            new = h0 if n == 0 else saved[n - 1]

        # projection heads: f_phi = tanh(.), f_tau = softplus(.) + eps
        phi = gates[N + n]
        np.multiply(phi, phi, out=d_phi)
        np.subtract(1.0, d_phi, out=d_phi)
        d_phi *= g[N + n]
        np.matmul(W_o, new, out=o)
        o += b_o[:, None]
        T._sigmoid_(o[1])
        np.multiply(g[n], o[1], out=d_tau)
        dW_o += dpre @ new.T
        db_o += dpre.sum(axis=1)
        np.matmul(W_o.T, dpre, out=tmp)
        dh += tmp

        # candidate pre-activation: dh * (1 - z) * (1 - c^2)
        np.multiply(dz, dh, out=tmp)
        np.multiply(c, c, out=dcp)
        np.subtract(1.0, dcp, out=dcp)
        dcp *= tmp
        # update pre-activation: dh * (prev - c) * z * (1 - z)
        if prev is None:
            np.negative(c, out=tmp)
        else:
            np.subtract(prev, c, out=tmp)
        tmp *= dh
        dz *= z
        dz *= tmp
        sums[h:2 * h] = dz.sum(axis=1)
        sums[2 * h:] = dcp.sum(axis=1)
        dx[h:2 * h] += dz
        dx[2 * h:] += dcp
        if prev is None:
            sums[:h] = 0.0
        else:
            # reset pre-activation: dc_pre * hp_n * r * (1 - r)
            np.subtract(1.0, r, out=dr)
            dr *= r
            dr *= hp[2 * h:]
            dr *= dcp
            np.multiply(dcp, r, out=dn)
            sums[:h] = dr.sum(axis=1)
            dx[:h] += dr
            dW_h += prev @ dhp.T
            dh *= z
            np.matmul(W_h, dhp, out=tmp)
            dh += tmp
        db_x += sums
        dw_t += (n * dt_nominal) * sums
    return dx, (dW_h, dw_t, db_x, dW_o, db_o)


class SdpaFrozenGates:
    """Gate freeze realizing the attention limit: f_tau = 1, f_phi = q.k/sqrt(d).

    With a single Euler step at the maximum stable size dt = 1/f_tau the
    logit lands exactly on f_phi/f_tau = q.k/sqrt(d). Gradients still flow
    into q and k through f_phi, so a model built with this core trains as
    a plain dot-product attention.
    """

    def __init__(self, head_dim: int):
        self.head_dim = head_dim
        self.inv_sqrt_d = 1.0 / np.sqrt(head_dim)

    def parameters(self) -> dict:
        return {}

    def gates(self, q: Tensor, k: Tensor, pb: pairs_mod.PairBatch,
              n_steps: int, dt_nominal: float) -> Tensor:
        B, H, T_q, D = q.shape
        k_sel = T.gather_keys(k, pb.selected_indices)
        dots = T.tsum(T.mul(T.reshape(q, (B, H, T_q, 1, D)), k_sel), axis=-1)
        if not pb.valid_mask.all():
            dots = T.mul(dots, Tensor(pb.valid_mask.astype(np.float64)))
        f_phi = T.reshape(T.scale(dots, self.inv_sqrt_d), (1,) + dots.shape)
        rates = Tensor(np.ones((n_steps,) + dots.shape))
        return T.concat([rates] + [f_phi] * n_steps, axis=0)


# --------------------------------------------------------------------------
# integration
# --------------------------------------------------------------------------

def clamp_dt(dt_nominal: float, f_tau: np.ndarray) -> float:
    """min(dt_nominal, 1/max f_tau): guarantees dt * f_tau <= 1 everywhere.

    The max-reduction is a plain float off the gradient tape.
    """
    if dt_nominal <= 0:
        raise ValueError("dt_nominal must be positive")
    if f_tau.size == 0:
        return float(dt_nominal)
    if f_tau.min() <= 0:
        raise ValueError("f_tau must be strictly positive")
    return float(min(dt_nominal, 1.0 / f_tau.max()))


def integrate_logits(gates: Tensor, dt_nominal: float, clamp: bool = True,
                     a0: Tensor | None = None):
    """Run the Euler recursion from a0 (default 0) with one global dt.

    gates: [2N, *pairs], f_tau in rows :N and f_phi in rows N:, each row
    in the pair batch's shape, as every gate core returns them; a0
    broadcasts to one row [*pairs]. One tape op: the states
    a_{n+1} = a_n + dt * (f_phi_n - f_tau_n * a_n) fill one [N+1, ...]
    buffer, in the float order of that formula, with no temporaries, and
    the backward runs the adjoint recursion by hand into one gradient in
    the gates' layout, on one copy of the incoming gradient.
    Returns (final state tensor, LogitTrajectory), whose arrays are views
    of the state buffer and the gates. Disabling the clamp is only meant
    for instability demonstrations.
    """
    n_steps = gates.shape[0] // 2
    f_tau, f_phi = gates.data[:n_steps], gates.data[n_steps:]
    dt = clamp_dt(dt_nominal, f_tau) if clamp else float(dt_nominal)
    a = np.empty((n_steps + 1,) + gates.shape[1:])
    a[0] = 0.0 if a0 is None else a0.data
    for n in range(n_steps):
        # a + (f_phi - f_tau * a) * dt, built in a[n + 1]
        step = np.multiply(f_tau[n], a[n], out=a[n + 1])
        np.subtract(f_phi[n], step, out=step)
        step *= dt
        step += a[n]

    def rule(g):
        d = np.empty_like(gates.data)   # keeps the gates' memory layout
        g = g.copy()
        for n in reversed(range(n_steps)):
            gs = np.multiply(g, dt, out=d[n_steps + n])
            # g -= gs * f_tau, with d[n] as scratch before it takes its value
            g -= np.multiply(gs, f_tau[n], out=d[n])
            np.multiply(gs, a[n], out=d[n])
            np.negative(d[n], out=d[n])
        return (d,) if a0 is None else (d, T._unbroadcast(g, a0.shape))

    traj = LogitTrajectory(
        a=np.moveaxis(a, 0, -1),
        f_tau=np.moveaxis(f_tau, 0, -1),
        f_phi=np.moveaxis(f_phi, 0, -1),
        dt_effective=dt,
        dt_nominal=float(dt_nominal),
    )
    parents = (gates,) if a0 is None else (gates, a0)
    return T._node(a[n_steps], parents, rule), traj


# --------------------------------------------------------------------------
# attention assembly
# --------------------------------------------------------------------------

def attend(q: Tensor, k: Tensor, v: Tensor, core, cfg: LanConfig,
           key_mask: np.ndarray | None = None):
    """The per-head pipeline on [B,H,T,D] inputs: pair curation, gates,
    Euler integration, masked softmax, and the weighted sum of the selected
    values (``T.gather_weighted``, which never gathers them whole). Returns
    (heads out [B,H,T_q,D_v], weights [B,H,T_q,K_eff], pairs, trajectory).
    """
    if cfg.top_k is None:
        pb = pairs_mod.full_pairwise_concat(q, k, causal=cfg.causal,
                                            key_mask=key_mask)
    else:
        pb = pairs_mod.topk_concat(q, k, cfg.top_k, causal=cfg.causal,
                                   key_mask=key_mask)
    gates = core.gates(q, k, pb, cfg.euler_steps, cfg.dt_nominal)
    a_final, traj = integrate_logits(gates, cfg.dt_nominal)

    alpha = T.masked_softmax(a_final, pb.valid_mask, axis=-1)
    out = T.gather_weighted(alpha, v, pb.selected_indices)
    return out, alpha, pb, traj


def sink_gate(x: Tensor, multihead_out: Tensor, W_g: Tensor, b_g: Tensor,
              W_s: Tensor, b_s: Tensor) -> Tensor:
    """O = sigmoid(x W_s + b_s) * (multihead_out W_g + b_g), elementwise."""
    gate = T.sigmoid(T.add(T.matmul(x, W_s), b_s))
    projected = T.add(T.matmul(multihead_out, W_g), b_g)
    return T.mul(gate, projected)


class MultiHeadLan:
    """H liquid-attention heads processed along one batched axis.

    Per-head projections are stacked into [H,1,d,D] weights; the gate
    core carries the head axis too, so the whole block runs without a
    python-level head loop. gate_mode "recurrent" is the learned GRU
    gating; "sdpa_frozen" snaps every head to the attention limit (and
    callers should pair it with euler_steps = 1).
    """

    def __init__(self, cfg: LanConfig, rng: np.random.Generator,
                 gate_mode: str = "recurrent"):
        self.cfg = cfg
        d, D, H = cfg.d_model, cfg.head_dim, cfg.heads
        self.W_q = uniform_init(rng, (H, 1, d, D), d)
        self.b_q = uniform_init(rng, (H, 1, 1, D), d)
        self.W_k = uniform_init(rng, (H, 1, d, D), d)
        self.b_k = uniform_init(rng, (H, 1, 1, D), d)
        self.W_v = uniform_init(rng, (H, 1, d, D), d)
        self.b_v = uniform_init(rng, (H, 1, 1, D), d)
        if gate_mode == "recurrent":
            self.core = RecurrentGateCore(2 * D, D, cfg.epsilon, rng, heads=H)
        elif gate_mode == "sdpa_frozen":
            self.core = SdpaFrozenGates(D)
        else:
            raise ValueError(f"unknown gate_mode {gate_mode!r}")
        self.W_g = uniform_init(rng, (d, d), d)
        self.b_g = uniform_init(rng, (d,), d)
        if cfg.sink_gate_enabled:
            # zero init: the gate opens at 0.5 and is neutral at start
            self.W_s = zeros_param((d, d))
            self.b_s = zeros_param((d,))

    def parameters(self) -> dict:
        out = {"W_q": self.W_q, "b_q": self.b_q, "W_k": self.W_k,
               "b_k": self.b_k, "W_v": self.W_v, "b_v": self.b_v}
        out.update({f"gate.{k}": v for k, v in self.core.parameters().items()})
        out["W_g"] = self.W_g
        out["b_g"] = self.b_g
        if self.cfg.sink_gate_enabled:
            out["W_s"] = self.W_s
            out["b_s"] = self.b_s
        return out

    def _project(self, x: Tensor, W: Tensor, b: Tensor) -> Tensor:
        # [B,T,d] -> [B,H,T,D]
        x4 = T.reshape(x, (1,) + x.shape)
        return T.swapaxes(T.add(T.matmul(x4, W), b), 0, 1)

    def forward(self, x_q: Tensor, x_k: Tensor, x_v: Tensor,
                key_mask: np.ndarray | None = None,
                collect: dict | None = None) -> Tensor:
        cfg = self.cfg
        B, T_q, d = x_q.shape
        q = self._project(x_q, self.W_q, self.b_q)
        k = self._project(x_k, self.W_k, self.b_k)
        v = self._project(x_v, self.W_v, self.b_v)
        out_heads, alpha, pb, traj = attend(q, k, v, self.core, cfg, key_mask)
        merged = T.reshape(T.swapaxes(out_heads, 1, 2),
                           (B, T_q, cfg.heads * cfg.head_dim))

        if collect is not None:
            collect.setdefault("weights", []).append(alpha.data.copy())
            collect.setdefault("indices", []).append(pb.selected_indices.copy())
            collect.setdefault("trajectories", []).append(traj)

        if cfg.sink_gate_enabled:
            return sink_gate(x_q, merged, self.W_g, self.b_g,
                             self.W_s, self.b_s)
        return T.add(T.matmul(merged, self.W_g), self.b_g)

