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
pair inputs. The GRU runs only on the valid pairs; an invalid pair
holds the floor gates f_tau = eps, f_phi = 0, so its logit stays 0 and
it never raises the clamp's max. One tape op runs from the pair input
through ``integrate_logits`` to the final logits. It keeps the hidden
states of steps 1 .. N-2, the clamped dt and the final logits; each
backward work item rebuilds the rest of its block's hidden states,
its gates and its Euler states, bitwise the forward's, with few numpy
calls and passes per step (see ``_cell``). Inference runs the same
kernel without keeping anything. The (head, block) work items run on
``fluid.pool``, which top-k selection shares, one thread per CPU, with
the same results for any number of threads.

Gates are [2N,B,H,T_q,K_eff], f_tau in rows :N and f_phi in rows N:,
each row in the shape of the pair batch's valid mask; they and the Euler
states outlive a forward only in a trajectory the caller keeps. For the
gates of the attention limit, ``integrate_logits`` is a tape op itself.

Final logits pass through a masked softmax, and one op contracts the
weights with the selected values a chunk of query rows at a time, so the
gathered values are never whole in memory. ``attend`` is the one
per-head pipeline, on [B,H,T,D] inputs; ``MultiHeadLan`` projects into
it, then concatenates and projects the heads, optionally through a
query-dependent sigmoid output gate that counteracts attention sinks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from fluid import pairs as pairs_mod
from fluid import pool
from fluid import tensor as T
from fluid.tensor import Tensor, uniform_init, zeros_param


def check_types(cfg, kind: type, what: str, names: str):
    """Raise a ValueError naming the first of the space-separated fields
    ``names`` of ``cfg`` that is no ``kind``; a bool counts as none unless
    ``kind`` is bool."""
    for name in names.split():
        value = getattr(cfg, name)
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, not {value!r}")


def check_at_least(cfg, low, names: str):
    """Raise a ValueError naming every one of the space-separated fields
    ``names`` of ``cfg`` that is below ``low``."""
    small = [name for name in names.split() if getattr(cfg, name) < low]
    if small:
        raise ValueError(f"{', '.join(small)} must be >= {low}")


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
        ints = "d_model heads euler_steps" + " top_k" * (self.top_k is not None)
        check_types(self, numbers.Integral, "an integer", ints)
        check_types(self, numbers.Real, "a number", "epsilon")
        check_types(self, bool, "true or false", "sink_gate_enabled causal")
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
    dt_effective is the single clamped step used for the whole pass. An
    invalid slot of the recurrent core reads the floor gates: a = 0,
    f_tau = eps and f_phi = 0 at every step.
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
    factored ``pairs.PairInput``. ``unroll`` is one tape op from it to the
    final logits, ``_gru_forward`` then ``integrate_logits``. Its tape
    keeps only the pair input, the weights, the hidden states
    h_1 .. h_{N-2}, the clamped dt and a copy of the final logits
    (Gruslys et al., "Memory-Efficient Backpropagation Through Time"; Chen
    et al., "Training Deep Nets with Sublinear Memory Cost"). Each
    backward item rebuilds the rest, bitwise the forward's, and evaluates
    the cell N times, as the forward does. A step costs few numpy calls,
    as each is a GIL handoff between the workers, and few passes over the
    block: the item's input and bias are negated once, the reset and
    update gates stay as their sigmoids' denominators 1 + exp(-s), and the
    heads' bias and nonlinearities run once over all steps. Under
    ``no_grad`` it keeps nothing; both modes give bitwise the same logits.

    The kernel runs on each head's packed pairs (``PairInput.counts``),
    its valid pairs in slot order; ``unroll`` gives every invalid slot the
    floor gates f_tau = eps, f_phi = 0, which no gradient reaches. It cuts
    the packed pairs into contiguous, balanced blocks of at most
    ``_BLOCK_PAIRS``, a cut that depends on the pair count alone, and runs
    the (head, block) work items on ``fluid.pool``, one thread per CPU
    (numpy releases the GIL inside ufuncs and GEMMs), or inline with one
    CPU or one item. An item reads the core's own weight buffers and forms
    its block's input [3h, block] and all its scratch itself, so the pair
    input is never whole in memory. Gates are stored head-major ([2N, H,
    slots]) and seen as one tensor [2N,B,H,T_q,K_eff]. Items write their
    gates and hidden states by position and return their gradient
    partials, summed in item order: outputs and every gradient are bitwise
    the same for any number of threads.
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

    def logits(self, q: Tensor, k: Tensor, pb: pairs_mod.PairBatch,
               n_steps: int, dt_nominal: float):
        """(final logits [B,H,T_q,K_eff], LogitTrajectory) of the pairs
        ``pb`` selects from [B,H,T,D] q, k."""
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
               dt_nominal: float):
        """Final logits and their trajectory from the pair input ``pin``.

        pin: [B,H,...,3h], factored; the op's parents are its projected
        queries and keys and the gate weights. Returns (final logits
        [B,H,T_q,K_eff], LogitTrajectory) as ``integrate_logits`` does.
        The tape holds the hidden states [H, max(N-2, 0), h, packed pairs]
        and a copy of the final logits, not the trajectory.
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
        if pin.invalid is not None:
            # the floor gates; a valid f_tau = softplus + eps >= eps
            np.copyto(g_hm[:n_steps], self.epsilon, where=pin.invalid)
            np.copyto(g_hm[n_steps:], 0.0, where=pin.invalid)
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
        final, traj = integrate_logits(Tensor(gates), dt_nominal)
        if saved is None:
            return final, traj
        epsilon, dt = self.epsilon, traj.dt_effective

        def rule(g):
            # one head-major copy [H, 1, slots]: items run the adjoint on
            # their columns of it in place
            g_h = np.array(np.moveaxis(g, 1, 0)).reshape(H, 1, -1)
            return _gru_backward(g_h, pin, w, saved, n_steps, dt_nominal,
                                 epsilon, dt)

        return T._node(final.data.copy(), inputs, rule), traj


def _cell(xn: np.ndarray, hpn: np.ndarray | None, tw: np.ndarray,
          d: np.ndarray, cn: np.ndarray):
    """Reset, update and candidate gates of one step of one head and block.

    xn: -(x + b_x) [3h,P], the negated block input; hpn: -W_h^T h_prev
    [3h,P], or None at step 0, where t_0 = 0 and h_prev = 0 (the
    single-bias GRU needs no hidden projection then, and r is unused); tw:
    t_n w_t [3h,1]. cn [h,P] gets -c; r and z stay as their denominators
    1 + exp(-s) = 1/sigmoid(s) in d [2h,P], z's alone in its last h rows
    at step 0. exp over- or underflows only where a gate saturates, to an
    exact d = inf or 1.
    """
    h = cn.shape[0]
    if hpn is None:
        d, s = d[-h:], xn[h:2 * h]
        np.tanh(xn[2 * h:], out=cn)
    else:
        s = np.add(xn[:2 * h], hpn[:2 * h], out=d)
        s -= tw[:2 * h]
    with np.errstate(over="ignore", under="ignore"):
        np.exp(s, out=d)
    d += 1.0
    if hpn is not None:
        np.divide(hpn[2 * h:], d[:h], out=cn)
        cn += xn[2 * h:]
        cn -= tw[2 * h:]
        np.tanh(cn, out=cn)


def _state(prev, cn, d_z, out):
    """out <- (1 - z) c + z prev = (prev + cn) / d_z - cn, from the cell's
    cn = -c and d_z = 1/z; prev None is zero."""
    if prev is None:
        np.divide(cn, d_z, out=out)
    else:
        np.add(prev, cn, out=out)
        out /= d_z
    out -= cn


def _negate_input(x, w, hd, n_steps, dt_nominal):
    """x <- -(x + b_x) in place; returns the time terms t_n w_t [N,3h,1],
    t_n = n * dt_nominal."""
    np.subtract(np.negative(w["b_x"][hd])[:, None], x, out=x)
    t = np.arange(n_steps) * dt_nominal
    return (t[:, None] * w["w_t"][hd])[..., None]


# --------------------------------------------------------------------------
# work items of the gate kernel: (head, pair block) on a thread pool
# --------------------------------------------------------------------------

# the most pairs one work item takes. An item outgrows a core's 2 MB L2
# (one [3h, 4096] array is 1.5 MB), but larger blocks make fewer numpy
# calls per pair, each a GIL handoff between the workers
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
            gates[:, hd, pin.pos[hd][a:b]] = out

    pool._run_items(item, _items(pin.counts))


def _forward_block(x, w, hd, n_steps, dt_nominal, epsilon, gates, saved):
    """Head ``hd``'s GRU over one block of pairs: x [3h,P] (overwritten),
    gates [2N,P], saved [N-2,h,P] for h_1 .. h_{N-2}, or None. The scratch
    is the block's alone; it holds h_0 and h_{N-1}, which are never saved.
    The loop writes W_o h_n into the gates, and the heads' bias, tanh,
    softplus and +eps follow over all steps at once."""
    C, P = x.shape
    h, N = C // 3, n_steps
    scratch = np.empty((max(C, N), P))   # hpn, then the softplus scratch
    hpn, d = scratch[:C], np.empty((2 * h, P))
    cn, hidden = np.empty((h, P)), np.empty((h, P))
    tw = _negate_input(x, w, hd, N, dt_nominal)
    W_hnT = np.negative(w["W_h"][hd].T)
    W_o = w["W_o"][hd][::-1].copy()      # f_tau's row above f_phi's, as in gates
    prev = None
    for n in range(N):
        new = hidden if saved is None or not 0 < n < N - 1 else saved[n - 1]
        if prev is not None:
            np.matmul(W_hnT, prev, out=hpn)
        _cell(x, None if prev is None else hpn, tw[n], d, cn)
        _state(prev, cn, d[h:], new)
        prev = new
        np.matmul(W_o, new, out=gates[n::N])     # rows n and N + n
    _heads_(gates, w["b_o"][hd], epsilon, scratch[:N])


def _heads_(gates: np.ndarray, b_o: np.ndarray, epsilon: float,
            scratch: np.ndarray):
    """In place on gates [2N,P] holding W_o h_n of every step: f_tau =
    softplus(. + b_tau) + eps in rows :N, f_phi = tanh(. + b_phi) in rows
    N:, over all steps at once; scratch is [N,P]."""
    N = len(gates) // 2
    b_phi, b_tau = b_o
    f_tau, f_phi = gates[:N], gates[N:]
    f_tau += b_tau
    T._softplus_(f_tau, scratch)
    f_tau += epsilon
    f_phi += b_phi
    np.tanh(f_phi, out=f_phi)


def _gru_backward(g, pin, w, saved, n_steps, dt_nominal, epsilon, dt):
    """The backward of ``unroll`` from the final logits' gradient g [H, 1,
    slots]: returns (d qp, d kp, dW_h, dw_t, db_x, dW_o, db_o), each in its
    parameter's shape. Each item takes its slots of g and its block of
    pair inputs again, and returns its partials; they are summed in item
    order, so every gradient is the same for any number of workers."""
    items = _items(pin.counts)

    def item(hd, a, b):
        dx, parts = _backward_block(
            g[hd, 0, pin.slots(hd, a, b)],
            pin.block(hd, a, b), w, hd, saved[hd, :, :, a:b], n_steps,
            dt_nominal, epsilon, dt)
        return parts, pin.block_grads(hd, a, b, dx)

    results = pool._run_items(item, items)
    totals = tuple(np.zeros_like(w[n])
                   for n in ("W_h", "w_t", "b_x", "W_o", "b_o"))
    for (hd, _, _), (parts, _) in zip(items, results):
        for total, part in zip(totals, parts):
            total[hd] += part
    return pin.grads(items, [pair for _, pair in results]) + totals


def _head_grads(g, hidden, w, hd, epsilon, dt):
    """The gradients [N,2,P] of the heads' pre-activations o, f_phi's above
    f_tau's at each step, of one block from g [P], the gradient of its
    final logits (overwritten), and its hidden states h_0 .. h_{N-1}. The
    gates are rebuilt with the forward's heads and the Euler states
    a_0 .. a_{N-1} with dt, both bitwise the forward's; the Euler adjoint
    gives the gates' gradient d, and o's are (1 - f_phi^2) d and
    sigmoid(o) d, with sigmoid(o) = -expm1(eps - f_tau) read from
    f_tau = softplus(o) + eps, off by about eps * 2^-53 at most."""
    N, P = len(hidden), g.shape[0]
    gates, a = np.empty((2 * N, P)), np.empty((N, P))
    W_o = w["W_o"][hd][::-1].copy()      # as in _forward_block
    for n, h_n in enumerate(hidden):
        np.matmul(W_o, h_n, out=gates[n::N])
    _heads_(gates, w["b_o"][hd], epsilon, a)
    a[0] = 0.0
    _euler_states(a, gates[:N], gates[N:], dt)
    g_gates = np.empty_like(gates)
    _euler_adjoint(g, gates[:N], a, dt, g_gates)
    d = np.empty((N, 2, P))
    d_phi, d_tau = d[:, 0], d[:, 1]
    np.multiply(gates[N:], gates[N:], out=d_phi)
    np.subtract(1.0, d_phi, out=d_phi)
    d_phi *= g_gates[N:]
    np.subtract(epsilon, gates[:N], out=d_tau)
    np.expm1(d_tau, out=d_tau)
    d_tau *= g_gates[:N]
    np.negative(d_tau, out=d_tau)
    return d


def _backward_block(g, x, w, hd, saved, n_steps, dt_nominal, epsilon, dt):
    """Backward of head ``hd`` over one block, from g [P], the gradient of
    its final logits: x [3h,P] (overwritten), saved [N-2,h,P]. Returns d x
    and this block's partials (dW_h [h,3h], dw_t [3h], db_x [3h], dW_o
    [2,h], db_o [2]).

    The cell runs N times: step 0's first, kept for step 0 and to rebuild
    h_0, then each later step's, h_{N-1} rebuilt at step N-1, where
    ``_head_grads`` reads every state; the states are bitwise the
    forward's. The gradients read z and r off the cell's denominators
    (z dh = dh / d_z) and fold in its signs, cn = -c and hpn = -hp."""
    C, P = x.shape
    h, N = C // 3, n_steps
    hpn, dhp = np.empty((C, P)), np.empty((C, P))
    t, zdh = hpn[:h], hpn[h:2 * h]      # scratch once the cell has run
    # grad of W_h^T h_prev, [dr; dz; dn]: the cell writes d_r, d_z into
    # its first rows, and their grads replace them
    d, dn = dhp[:2 * h], dhp[2 * h:]
    cn, dcp, h0, d0, c0 = (np.empty((h, P)) for _ in range(5))
    tw = _negate_input(x, w, hd, N, dt_nominal)
    W_h, W_hnT, W_o = w["W_h"][hd], np.negative(w["W_h"][hd].T), w["W_o"][hd]
    _cell(x, None, tw[0], d0, c0)
    _state(None, c0, d0, h0)
    for n in reversed(range(N)):
        prev = None if n == 0 else h0 if n == 1 else saved[n - 2]
        if prev is None:
            d_z, c_n = d0, c0
        else:
            np.matmul(W_hnT, prev, out=hpn)
            _cell(x, hpn, tw[n], d, cn)
            d_z, c_n = d[h:], cn
        new = h0 if n == 0 else dcp if n == N - 1 else saved[n - 1]
        if new is dcp:      # the last state, kept until dcp takes its value
            _state(prev, c_n, d_z, new)
        if n == N - 1:
            # every state is rebuilt; the gradients' buffers come after the
            # heads' scratch is freed
            d_heads = _head_grads(g, [h0, *saved, new][:N], w, hd, epsilon, dt)
            dW_h, dx_sums = np.zeros((h, C)), np.zeros(C)
            dW_o, dx, dh = np.zeros((2, h)), np.zeros((C, P)), np.zeros((h, P))

        # projection heads
        d_o = d_heads[n]
        dW_o += d_o @ new.T
        np.matmul(W_o.T, d_o, out=t)
        dh += t
        # dh splits into z dh, a part of the previous state's, and (1 - z) dh
        np.divide(dh, d_z, out=zdh)
        dh -= zdh
        # update pre-activation: (1 - z) dh * z (prev - c), and
        # z (prev - c) = new - c, in d_z's rows
        np.add(new, c_n, out=d_z)
        d_z *= dh
        # candidate pre-activation: (1 - z) dh * (1 - c^2)
        np.multiply(c_n, c_n, out=dcp)
        np.subtract(1.0, dcp, out=dcp)
        dcp *= dh
        if prev is not None:
            # reset pre-activation: dn = dcp * r, then dr = (1 - r) dn hp_c
            # = (r dn - dn) hpn_c in d_r's rows
            d_r = d[:h]
            np.divide(dcp, d_r, out=dn)
            np.divide(dn, d_r, out=d_r)
            d_r -= dn
            d_r *= hpn[2 * h:]
            dW_h += prev @ dhp.T
            np.matmul(W_h, dhp, out=cn)
            np.add(zdh, cn, out=dh)
        dg = d_z if prev is None else d     # [dr;] dz
        dx[2 * h - len(dg):2 * h] += dg
        dx[2 * h:] += dcp
        if n:
            # dx now sums steps n .. N-1; over n >= 1 these sums add up
            # each step's row sums n times, so dw_t = dt * dx_sums
            dx_sums += dx.sum(axis=1)
    return dx, (dW_h, dt_nominal * dx_sums, dx.sum(axis=1), dW_o,
                d_heads.sum(axis=(0, 2)))


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

    def logits(self, q: Tensor, k: Tensor, pb: pairs_mod.PairBatch,
               n_steps: int, dt_nominal: float):
        """(final logits, LogitTrajectory) of the frozen gates."""
        B, H, T_q, D = q.shape
        k_sel = T.gather_keys(k, pb.selected_indices)
        dots = T.tsum(T.mul(T.reshape(q, (B, H, T_q, 1, D)), k_sel), axis=-1)
        if not pb.valid_mask.all():
            dots = T.mul(dots, Tensor(pb.valid_mask.astype(np.float64)))
        f_phi = T.reshape(T.scale(dots, self.inv_sqrt_d), (1,) + dots.shape)
        rates = Tensor(np.ones((n_steps,) + dots.shape))
        return integrate_logits(T.concat([rates] + [f_phi] * n_steps, axis=0),
                                dt_nominal)


# --------------------------------------------------------------------------
# integration
# --------------------------------------------------------------------------

def clamp_dt(dt_nominal: float, f_tau: np.ndarray) -> float:
    """min(dt_nominal, 1/max f_tau): guarantees dt * f_tau <= 1 everywhere.

    The max-reduction is a plain float off the gradient tape. An invalid
    slot's floor f_tau = eps is no valid pair's above, so valid pairs set dt.
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
    in the pair batch's shape, as every gate core makes them; a0
    broadcasts to one row [*pairs]. One tape op: the states fill one
    [N+1, ...] buffer (``_euler_states``), and the backward runs the
    adjoint recursion by hand (``_euler_adjoint``, as the gate kernel's
    backward items do) into one gradient in the gates' layout, on one
    copy of the incoming gradient.
    Returns (final state tensor, LogitTrajectory), whose arrays are views
    of the state buffer and the gates. Disabling the clamp is only meant
    for instability demonstrations.
    """
    n_steps = gates.shape[0] // 2
    f_tau, f_phi = gates.data[:n_steps], gates.data[n_steps:]
    dt = clamp_dt(dt_nominal, f_tau) if clamp else float(dt_nominal)
    a = np.empty((n_steps + 1,) + gates.shape[1:])
    a[0] = 0.0 if a0 is None else a0.data
    _euler_states(a, f_tau, f_phi, dt)

    def rule(g):
        d = np.empty_like(gates.data)   # keeps the gates' memory layout
        g = g.copy()
        _euler_adjoint(g, f_tau, a, dt, d)
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


def _euler_states(a: np.ndarray, f_tau: np.ndarray, f_phi: np.ndarray,
                  dt: float):
    """a_{n+1} = a_n + dt * (f_phi_n - f_tau_n * a_n) into every row after
    the first of a [M+1, ...], from a[0] and gate rows n < M; in the float
    order of that formula, with no temporaries."""
    for n in range(len(a) - 1):
        # a + (f_phi - f_tau * a) * dt, built in a[n + 1]
        step = np.multiply(f_tau[n], a[n], out=a[n + 1])
        np.subtract(f_phi[n], step, out=step)
        step *= dt
        step += a[n]


def _euler_adjoint(g: np.ndarray, f_tau: np.ndarray, a: np.ndarray,
                   dt: float, d: np.ndarray):
    """The adjoint of ``_euler_states`` over the N steps of f_tau [N, ...]:
    from g, the gradient of a_N, writes the gates' gradient into d [2N, ...]
    (f_tau's rows, then f_phi's), reading a_0 .. a_{N-1}, and leaves the
    gradient of a_0 in g."""
    N = len(f_tau)
    for n in reversed(range(N)):
        gs = np.multiply(g, dt, out=d[N + n])
        # g -= gs * f_tau, with d[n] as scratch before it takes its value
        g -= np.multiply(gs, f_tau[n], out=d[n])
        np.multiply(gs, a[n], out=d[n])
        np.negative(d[n], out=d[n])


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
    a_final, traj = core.logits(q, k, pb, cfg.euler_steps, cfg.dt_nominal)

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

