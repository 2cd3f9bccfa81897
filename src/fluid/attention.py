"""Liquid attention: logits evolved by a gated linear ODE.

Each query-key pair carries a scalar logit state a integrated by explicit
Euler over a unit refinement horizon, da/dt = -f_tau * a + f_phi: N steps
of nominal size dt = 1/N. The two gates come from projection heads over a
shared recurrent cell driven by the pair input u = [q; k] and the step
time. f_tau > 0 sets the convergence rate (its reciprocal is the
effective time constant) and f_phi in (-1, 1) the content target;
f_tau = softplus(.) + eps never falls below the constant floor eps =
``_EPSILON``. The step size is clamped so dt * f_tau <= 1 for every pair,
which keeps every update a convex combination of the current state and
the instantaneous target f_phi/f_tau and therefore keeps trajectories
inside the equilibrium envelope.

The gate recurrence is the costly part: it runs per pair and per step.
``RecurrentGateCore`` runs it as one tape op from q and k through
``integrate_logits`` to the final logits, on (head, pair block) work
items that form their own pair inputs. ``_gru_steps`` is the one code
that runs the GRU: inference, the taped forward and the backward's
replay of each block (``_backward_block``) all call it, and inference
keeps nothing.

Gates live per block: each work item computes the gates [2N, block] of
its pairs, f_tau in rows :N and f_phi in rows N:, and the calling thread
runs them through ``integrate_logits`` as they come and drops them, so
the gates of a whole pass never exist at once. Only a caller that asks
for a trajectory gets them whole, as [2N,B,H,T_q,K_eff] in a
``LogitTrajectory``. The Euler states are never kept: ``integrate_logits``
runs them over two rows, and a trajectory rebuilds them from its gates
when they are read.

Final logits pass through a masked softmax, and one op contracts the
weights with the selected values a chunk of query rows at a time, so the
gathered values are never whole in memory. ``attend`` is the one
per-head pipeline, on [B,H,T,D] inputs; ``MultiHeadLan`` projects into
it, then concatenates and projects the heads, optionally through a
query-dependent sigmoid output gate that counteracts attention sinks.

Each stage holds only what it reads. Curation holds q and k. The gates
hold q and k, the projections qp and kp of one head for each running
item at most, the logits, the pair batch (4-byte int32 key indices and
their flags, int32 positions of the packed pairs) and the running items;
a block's flat (batch, key) indices b * T_k + j are int64, made per
block. Once the gates have run, only the tape holds q and k, and once
the softmax has run, only the tape holds the logits. The gate tape keeps
q, k, the pair tables, the clamped dt and the final logits: no hidden
state, and not q's and k's three times wider projections, which its
backward makes again head by head. A backward item holds its block's
replay and no more pairs than the forward's blocks, and reads its pairs'
logit gradients in place.
``MultiHeadLan`` projects the values only after the softmax, right
before the value sum, so no gate runs beside them.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from fluid import pairs as pairs_mod
from fluid import pool
from fluid import tensor as T
from fluid.tensor import Tensor, uniform_init, zeros_param

_EPSILON = 1e-3     # eps, the floor of f_tau


def check_types(cfg, kind: type, what: str, names: str):
    """Raise a ValueError naming the first of the space-separated fields
    ``names`` of ``cfg`` that is no ``kind``; a bool counts as none unless
    ``kind`` is bool. A ``numbers.Real`` must also be finite: NaN passes
    every comparison a bound check makes, and inf saturates what it scales."""
    for name in names.split():
        value = getattr(cfg, name)
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, not {value!r}")
        if kind is numbers.Real and not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, not {value!r}")


def check_at_least(cfg, low, names: str):
    """Raise a ValueError naming every one of the space-separated fields
    ``names`` of ``cfg`` that is below ``low``."""
    small = [name for name in names.split() if getattr(cfg, name) < low]
    if small:
        raise ValueError(f"{', '.join(small)} must be >= {low}")


@dataclass
class LanConfig:
    """Hyperparameters of one liquid-attention block. The logits run
    ``euler_steps`` steps over a unit horizon, so the nominal step is
    dt = 1/euler_steps; the f_tau floor is the constant ``_EPSILON``."""

    d_model: int
    heads: int = 4
    euler_steps: int = 5
    top_k: int | None = None        # None means full pairwise
    sink_gate_enabled: bool = True
    causal: bool = False

    def __post_init__(self):
        ints = "d_model heads euler_steps" + " top_k" * (self.top_k is not None)
        check_types(self, numbers.Integral, "an integer", ints)
        check_types(self, bool, "true or false", "sink_gate_enabled causal")
        check_at_least(self, 1, ints)
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by "
                             f"{self.heads} heads")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads


@dataclass
class LogitTrajectory:
    """Gate values and logit states across the Euler steps.

    f_tau, f_phi: [..., N], views of the gates; dt_effective is the single
    clamped step used for the whole pass. The states a [..., N+1],
    a[..., 0] == 0, are not stored: the first read of ``a`` rebuilds them
    from the gates with the integrator's ops, bitwise its states, and keeps
    them. An invalid slot reads ``RecurrentGateCore``'s floor gates.
    """

    f_tau: np.ndarray
    f_phi: np.ndarray
    dt_effective: float
    dt_nominal: float

    @classmethod
    def of(cls, gates: np.ndarray, dt_effective: float, dt_nominal: float):
        """The trajectory of gates [2N, ...], views of their rows."""
        n_steps = len(gates) // 2
        return cls(np.moveaxis(gates[:n_steps], 0, -1),
                   np.moveaxis(gates[n_steps:], 0, -1), dt_effective,
                   float(dt_nominal))

    @functools.cached_property
    def a(self) -> np.ndarray:
        f_tau, f_phi = (np.moveaxis(f, -1, 0) for f in (self.f_tau, self.f_phi))
        return np.moveaxis(euler_rows(0.0, f_tau, f_phi, self.dt_effective),
                           0, -1)

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

class RecurrentGateCore(T.Module):
    """GRU over the refinement axis with tanh/softplus projection heads.

    Hidden size equals the per-head dimension D; the hidden state is carried
    across Euler steps, independently per pair, starting from zero. The N
    steps span a unit horizon: the step input is [u; t_n] with u = [q; k],
    2D wide, and t_n = n * dt_nominal, dt_nominal = 1/N. The heads give
    f_tau = softplus(.) + eps with the constant eps = ``_EPSILON``.

    Every weight leads with the head axis, in the layout the kernel
    reads: W_u [H,2D,3h], w_t and b_x [H,3h], W_h [H,h,3h] (the 3h axis
    holds the reset, update and candidate channels), and the two
    projection heads as W_o [H,2,h] and b_o [H,2], row 0 for f_phi and
    row 1 for f_tau. Pair batches are [B,H,...]; a single head is H = 1.

    The input projection is factorized, u W_u = q W_u[:D] + k W_u[D:]:
    ``project_pairs`` returns the factored ``pairs.PairInput``, which
    projects a head's queries and keys when the kernel forms the head's
    first block of a pass, into one channel-major buffer per projection,
    and lets them go after the head's last block. Items run head by head,
    so the pair input holds one head's projections for each running item
    at most. ``unroll`` is one tape op from q and k to the final logits:
    ``_gru_forward``, whose blocks of gates go through ``integrate_logits``
    one at a time. Its backward projects each head again, which is cheap,
    and each backward item replays its block's GRU (``_backward_block``).
    Both directions run the GRU by ``_gru_steps``, whose step costs few
    numpy calls, as each is a GIL handoff between the workers, and few
    passes over the block: the item's input and bias are negated once, the
    reset and update gates stay as their sigmoids' denominators
    1 + exp(-s), and the heads' bias and nonlinearities run once over all
    steps. Under ``no_grad`` it keeps nothing; both modes give bitwise the
    same logits.

    The kernel runs on each head's packed pairs (``PairInput.counts``),
    its valid pairs in slot order. An invalid slot gets no gates of its
    own: it holds the floor gates f_tau = eps, f_phi = 0, so its logit
    stays 0, it never raises the clamp's max and no gradient reaches it.
    The kernel cuts the packed pairs into contiguous, balanced blocks whose
    input [3h, block] holds at most ``_BLOCK_SCALARS`` scalars, a cut that
    depends on the pair and channel counts alone, and runs the (head,
    block) work items on ``fluid.pool``, which top-k selection shares, one
    thread per CPU (numpy releases the GIL inside ufuncs and GEMMs), or
    inline with one CPU or one item. An item reads the core's own weight
    buffers and forms its block's input and all its scratch itself, so the
    pair input is never whole in memory. Besides its input, a forward item
    holds one scratch [max(3h, N), block], which the cell overwrites in
    place, one state [h, block] and its gates [2N, block], so while
    3h >= N an item holds the same number of scalars at every head width.
    Forward items return their gates, which the calling thread integrates
    in item order, and backward items their gradient partials, summed in
    item order: the outputs and every gradient are bitwise the same for
    any number of threads. The backward runs only on the live pairs
    (``_gru_backward``). A head's live pairs take as many blocks as its
    packed pairs do in the forward, so a backward item, whose scratch per
    pair is several times a forward item's, never holds more pairs than the
    forward's largest block.
    """

    def __init__(self, head_dim: int, rng: np.random.Generator, heads: int):
        h = head_dim
        in_dim = 2 * h + 1  # the step time rides along with u
        self.hidden_dim = h
        self.heads = heads
        self.W_u = uniform_init(rng, (heads, 2 * h, 3 * h), in_dim)
        self.w_t = uniform_init(rng, (heads, 3 * h), in_dim)
        self.b_x = uniform_init(rng, (heads, 3 * h), in_dim)
        self.W_h = uniform_init(rng, (heads, h, 3 * h), h)
        # f_phi's weights and bias, then f_tau's: the order of the draws
        phi_tau = [uniform_init(rng, shape, h).data
                   for shape in ((heads, h), (heads,)) * 2]
        self.W_o = Tensor(np.stack(phi_tau[0::2], axis=1), requires_grad=True)
        self.b_o = Tensor(np.stack(phi_tau[1::2], axis=1), requires_grad=True)

    def project_pairs(self, q: Tensor, k: Tensor,
                      pb: pairs_mod.PairBatch) -> pairs_mod.PairInput:
        """u W_u for every selected pair, [B,H,T_q,K_eff,3h], in factored
        form: the pair input holds q, k and W_u, and projects each head
        when the kernel forms that head's first block. The projections are
        no tape op: q and k are the pair input's ``sources``, the first
        parents of ``unroll``'s op."""
        return pairs_mod.PairInput(q, k, self.W_u, pb)

    def unroll(self, pin: pairs_mod.PairInput, n_steps: int,
               trajectory: bool = False):
        """Final logits, and their trajectory on request, from the pair
        input ``pin`` after ``n_steps`` steps of dt_nominal = 1/n_steps.

        pin: [B,H,...,3h], factored. Returns (final logits [B,H,T_q,K_eff],
        LogitTrajectory or None). The calling thread integrates each
        item's gates as they come, at dt_nominal, and copies them into the
        trajectory's gates; where the clamped dt of the pass, ``clamp_dt``
        of the items' f_tau maxima, is smaller, the items run again and
        integrate at it. Each run of the items projects each head once, at
        its first block, so the pair input keeps q and k for the second
        run. The op's parents are the pair input's sources q and k, then
        the core's ``parameters()`` in their order; ``T._node`` alone
        decides whether the op is taped. The tape holds the final logits,
        the clamped dt and the pair input, which holds no projection once a
        run is over; the backward (``_gru_backward``) projects each head
        again, bitwise the forward's projections, and maps the projections'
        gradients to q's, k's and W_u's.
        """
        h, C = self.hidden_dim, pin.shape[-1]
        if C != 3 * h:
            raise ValueError(f"pair projection has {C} channels, expected {3 * h}")
        H = self.heads
        if pin.shape[1] != H:
            raise ValueError(f"pair batch {pin.shape} has no head axis of {H}")
        B = pin.shape[0]
        P = pin.size // (H * C)
        pairs_shape = (H, B) + pin.shape[2:-1]
        dt_nominal = 1.0 / n_steps
        gates = None
        if trajectory:
            # head-major [2N, H, slots]; a valid f_tau = softplus + eps >= eps
            gates = np.zeros((2 * n_steps, H, P))
            gates[:n_steps] = _EPSILON

        params = self.parameters()
        inputs = pin.sources + tuple(params.values())
        w = {n: p.data for n, p in params.items()}
        logits = np.zeros((H, P))       # an invalid slot's logit stays 0

        def run(dt, gates):
            # returns the clamped dt of the pass; pin.slots stays inline, so
            # that no slot array outlives its statement
            maxima = []
            for (hd, sel), (block, top) in _gru_forward(pin, w, n_steps):
                logits[hd, pin.slots(hd, sel)] = integrate_logits(block, dt)[0]
                if gates is not None:
                    gates[:, hd, pin.slots(hd, sel)] = block
                maxima.append(top)
            return clamp_dt(dt_nominal, np.array(maxima))

        dt = run(dt_nominal, gates)
        if dt < dt_nominal:
            run(dt, None)
        final = np.moveaxis(logits.reshape(pairs_shape), 1, 0)
        traj = None if gates is None else LogitTrajectory.of(
            np.moveaxis(gates.reshape((2 * n_steps,) + pairs_shape), 2, 1),
            dt, dt_nominal)
        q, k = pin.sources

        def rule(g):
            d_qp, d_kp, *d_gates = _gru_backward(g, pin, w, n_steps, dt)
            D = q.shape[-1]
            # the products' gradients, as the tape's matmul gives them; the
            # two halves of W_u are disjoint
            dq, dW_q = T._matmul_grads(d_qp, q, Tensor(w["W_u"][:, :D]))
            dk, dW_k = T._matmul_grads(d_kp, k, Tensor(w["W_u"][:, D:]))
            return (dq, dk, np.concatenate([dW_q, dW_k], axis=1), *d_gates)

        return T._node(final, inputs, rule), traj


def _cell(xn: np.ndarray, hpn: np.ndarray | None, tw: np.ndarray,
          d: np.ndarray, cn: np.ndarray):
    """Reset, update and candidate gates of one step of one head and block.

    xn: -(x + b_x) [3h,P], the negated block input; hpn: -W_h^T h_prev
    [3h,P], or None at step 0, where t_0 = 0 and h_prev = 0 (the
    single-bias GRU needs no hidden projection then, and r is unused); tw:
    t_n w_t [3h,1]. cn [h,P] gets -c; r and z stay as their denominators
    1 + exp(-s) = 1/sigmoid(s) in d [2h,P], z's alone in its last h rows
    at step 0. exp over- or underflows only where a gate saturates, to an
    exact d = inf or 1. d and cn may be hpn's rows :2h and 2h:, as in the
    forward: each element of hpn is read before its own slot is written,
    so the cell then runs in place with the same ops and the same results.
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


def _gru_steps(x, w, hd, gates, steps, scratch):
    """Head ``hd``'s GRU over one block of pairs, into its gates [2N,P]:
    f_tau = softplus(. + b_tau) + eps in rows :N and f_phi = tanh(. +
    b_phi) in rows N:. x [3h,P] becomes -(x + b_x), the cell's input.

    steps holds the N steps' buffers (hpn, d, cn, h_n) for ``_cell`` and
    ``_state``: hpn [3h,P] takes -W_h^T h_prev (unused at step 0), d [2h,P]
    the denominators, cn [h,P] -c and h_n [h,P] the new state, which the
    next step reads as h_prev; the buffers may repeat from step to step.
    The loop writes W_o h_n into gate rows n and N + n, and the heads'
    bias and nonlinearities follow over all steps at once, with scratch
    [N,P] for the softplus. The forward and the backward's replay differ
    only in ``steps``.
    """
    h, N = len(x) // 3, len(gates) // 2
    np.subtract(np.negative(w["b_x"][hd])[:, None], x, out=x)
    tw = ((np.arange(N) * (1.0 / N))[:, None] * w["w_t"][hd])[..., None]
    W_hnT = np.negative(w["W_h"][hd].T)
    W_o = w["W_o"][hd][::-1].copy()      # f_tau's row above f_phi's, as in gates
    prev = None
    for n, (hpn, d, cn, h_n) in enumerate(steps):
        if n:
            np.matmul(W_hnT, prev, out=hpn)
        _cell(x, hpn if n else None, tw[n], d, cn)
        _state(prev, cn, d[h:], h_n)
        np.matmul(W_o, h_n, out=gates[n::N])  # rows n and N + n
        prev = h_n
    b_phi, b_tau = w["b_o"][hd]
    f_tau, f_phi = gates[:N], gates[N:]
    f_tau += b_tau
    T._softplus_(f_tau, scratch)
    f_tau += _EPSILON
    f_phi += b_phi
    np.tanh(f_phi, out=f_phi)


# --------------------------------------------------------------------------
# work items of the gate kernel: (head, pair block) on a thread pool
# --------------------------------------------------------------------------

# the most scalars of block input [C, pairs] one work item takes: 4096
# pairs at h = 8 and 2048 at h = 16. A forward item's input, scratch and
# state then hold 1.8 MB at any head width; larger blocks make fewer numpy
# calls per pair, each a GIL handoff between the workers, but hold more
_BLOCK_SCALARS = 3 * 8 * 4096


def _blocks(P: int, C: int) -> list[tuple[int, int]]:
    """[start, stop) of contiguous, balanced blocks of P pairs of C
    channels, at most _BLOCK_SCALARS // C pairs each, none for no pairs.
    The cut depends on P and C alone."""
    return _cut(P, -(-P // max(1, _BLOCK_SCALARS // C)))


def _cut(P: int, n: int) -> list[tuple[int, int]]:
    """[start, stop) of n contiguous, balanced blocks of P pairs, the
    empty ones left out."""
    blocks = ((P * i // n, P * (i + 1) // n) for i in range(n))
    return [(a, b) for a, b in blocks if a < b]


def _items(counts: list[int], C: int, live: list | None = None) -> list[tuple]:
    """(head, selector) of every work item, head by head, over balanced
    blocks of each head's packed pairs of C channels: slices of its
    ``counts[hd]`` pairs (``_blocks``), or with ``live`` as many blocks of
    its ascending live indices ``live[hd]`` as its packed pairs take, none
    empty, slices again where every pair is live. So no backward item
    holds more pairs than the head's largest forward block."""
    items = []
    for hd, P in enumerate(counts):
        sel = None if live is None or live[hd].size == P else live[hd]
        n = len(_blocks(P, C))
        items += [(hd, slice(a, b) if sel is None else sel[a:b])
                  for a, b in _cut(P if sel is None else sel.size, n)]
    return items


def _gru_forward(pin, w, n_steps):
    """Run every head's GRU on the packed pairs of ``pin``, one work item
    per block: yields ((head, selector), (gates [2N, block], max f_tau)) of
    each item in item order, f_tau in the block's rows :N and f_phi in rows
    N:. ``pin`` first counts each head's items (``PairInput.plan``)."""
    def item(hd, sel):
        x = pin.block(hd, sel)
        out = np.empty((2 * n_steps, x.shape[1]))
        _forward_block(x, w, hd, out)
        return out, np.max(out[:n_steps])

    items = _items(pin.counts, pin.shape[-1])
    pin.plan(items)
    return zip(items, pool._run_items(item, items))


def _forward_block(x, w, hd, gates):
    """``_gru_steps`` over one block, x [3h,P] (overwritten), into gates
    [2N,P]. Besides x, the item allocates one scratch [max(3h,N),P] and one
    state [h,P]: every step's cell overwrites the hidden projection hpn
    with its denominators d and -c in place, and the state holds each h_n
    in turn."""
    C, P = x.shape
    h, N = C // 3, len(gates) // 2
    scratch = np.empty((max(C, N), P))   # hpn, then the softplus scratch
    hpn, hidden = scratch[:C], np.empty((h, P))
    _gru_steps(x, w, hd, gates, [(hpn, hpn[:2 * h], hpn[2 * h:], hidden)] * N,
               scratch[:N])


def _gru_backward(g, pin, w, n_steps, dt):
    """The backward of ``unroll`` from the final logits' gradient g
    [B,H,T_q,K_eff]: returns d qp [B,H,T_q,3h], d kp [B,H,T_k,3h], then
    the gradient of every weight of ``w`` but W_u in ``w``'s order (dw_t,
    db_x, dW_h, dW_o, db_o), each in its weight's shape.

    Only the live packed pairs run, those whose g is not 0. A pair's
    gradients are g times its own derivatives, so a pair with g = 0, such
    as every pair of a padded query row, which the loss never reads, adds
    exactly 0 to each and is skipped. The live pairs of each head are cut
    into balanced blocks by their count; an item selects its pairs by a
    slice where every pair of the head is live, else by its part of the
    live indices, int32. Each item reads its pairs' entries of g by
    (batch, slot), with no copy of g, forms its pair inputs again and runs
    ``_backward_block``; one loop sums the partials, the weights' and the
    pair input's (``PairInput.block_grads``), in item order."""
    B, H, T_q, K, C = pin.shape
    g = g.reshape(B, H, T_q * K)

    def at(hd, sel):
        # g of head hd's packed pairs sel: slot s is (batch, row slot) divmod
        b, s = np.divmod(pin.slots(hd, sel), T_q * K)
        return g[b, hd, s]

    live = [np.flatnonzero(at(hd, slice(0, P))).astype(np.int32)
            for hd, P in enumerate(pin.counts)]
    items = _items(pin.counts, C, live)
    pin.plan(items)

    def item(hd, sel):
        dx, parts = _backward_block(at(hd, sel), pin.block(hd, sel), w, hd,
                                    n_steps, dt)
        return parts, pin.block_grads(hd, sel, dx)

    results = list(pool._run_items(item, items))
    T_k = pin.sources[1].shape[2]
    dq, dk = np.zeros((H, C, B * T_q)), np.zeros((H, C, B * T_k))
    totals = tuple(np.zeros_like(v) for n, v in w.items() if n != "W_u")
    for (hd, _), (parts, (rows, dq_rows, dk_keys)) in zip(items, results):
        dq[hd][:, rows] += dq_rows
        dk[hd] += dk_keys
        for total, part in zip(totals, parts):
            total[hd] += part
    return tuple(d.reshape(H, C, B, n).transpose(2, 0, 3, 1)
                 for d, n in ((dq, T_q), (dk, T_k))) + totals


def _head_grads(g, gates, a, dt):
    """The gradients [N,2,P] of the heads' pre-activations o, f_phi's above
    f_tau's at each step, of one block from g [P], the gradient of its
    final logits (overwritten), and the replay's gates [2N,P]; a [N,P] is
    scratch. The Euler states a_0 .. a_{N-1} are run again in a with dt
    and the integrator's ops; the Euler adjoint writes the gates'
    gradients into the result's rows, and o's are (1 - f_phi^2) and
    sigmoid(o) times them, with sigmoid(o) = -expm1(eps - f_tau) read from
    f_tau = softplus(o) + eps, off by about eps * 2^-53 at most; both
    factors are formed over the spent gates."""
    N, P = len(a), g.shape[0]
    a[0] = 0.0
    f_tau, f_phi = gates[:N], gates[N:]
    _euler_states(a, f_tau, f_phi, dt)
    d = np.empty((N, 2, P))
    d_phi, d_tau = d[:, 0], d[:, 1]
    _euler_adjoint(g, f_tau, a, dt, d_tau, d_phi)
    np.multiply(f_phi, f_phi, out=f_phi)
    np.subtract(1.0, f_phi, out=f_phi)
    d_phi *= f_phi
    np.subtract(_EPSILON, f_tau, out=f_tau)
    np.expm1(f_tau, out=f_tau)
    d_tau *= f_tau
    np.negative(d_tau, out=d_tau)
    return d


def _backward_block(g, x, w, hd, n_steps, dt):
    """Backward of head ``hd`` over one block, from g [P], the gradient of
    its final logits: x [3h,P], whose buffer becomes d x. Returns d x and
    this block's partials in the order of the core's weights after W_u
    (dw_t [3h], db_x [3h], dW_h [h,3h], dW_o [2,h], db_o [2]).

    The tape keeps no hidden state, so the item recomputes within its own
    block (Chen et al., "Training Deep Nets with Sublinear Memory Cost";
    Gruslys et al., "Memory-Efficient Backpropagation Through Time"): it
    first replays its block's GRU over all N steps by ``_gru_steps``, the
    forward's code, into buffers that it keeps: its gates [2N,P], every
    state h_0 .. h_{N-1} in ``states`` [N,h,P] and every cell output,
    step 0's [-c; d_z] in ``rec0`` [2h,P] and each later step n's
    [d_r; d_z; hpn_c; -c] in its record ``recs[n - 1]`` [4h,P]. The cell
    so runs N times, as in the forward, the reverse loop runs none, and
    the replay's memory scales with the block, not with the pass. Up to
    h = 8 every replayed value is bitwise the forward's; at wider heads
    BLAS's bits for W_h^T h depend on a pair's column in its block, so
    where the backward's blocks of live pairs differ from the forward's, a
    replayed state can differ from the forward's in its last bit.

    The gradients read z and r off the cell's denominators
    (z dh = dh / d_z) and fold in its signs, cn = -c and hpn = -hp. A
    step's candidate gradient forms in its -c rows, which the update
    gate's gradient has read for good, so besides its records the item
    holds two rows of scratch, dh and z dh. A record's rows 2h:3h
    keep hpn's candidate rows, which the reset gate's gradient reads, and
    then take dn, so that its first 3h rows are the gradient [dr; dz; dn]
    of W_h^T h_prev."""
    C, P = x.shape
    h, N = C // 3, n_steps
    W_h, W_o = w["W_h"][hd], w["W_o"][hd]
    gates, a = np.empty((2 * N, P)), np.empty((N, P))
    rec0, recs = np.empty((2 * h, P)), np.empty((N - 1, 4 * h, P))
    states = np.empty((N, h, P))
    steps = [(None, rec0, rec0[:h], states[0])]
    steps += [(r[:C], r[:2 * h], r[C:], s) for r, s in zip(recs, states[1:])]
    _gru_steps(x, w, hd, gates, steps, a)
    dx = x                  # the replay has read the input for good
    dx[...] = 0.0
    d_heads = _head_grads(g, gates, a, dt)
    del gates, a            # spent: the reverse loop holds its scratch instead
    dW_h, dx_sums, dW_o = np.zeros((h, C)), np.zeros(C), np.zeros((2, h))
    dh, zdh = np.zeros((h, P)), np.empty((h, P))
    for n in reversed(range(N)):
        new = states[n]
        if n:
            prev, rec = states[n - 1], recs[n - 1]
            d, hp_c, c_n = rec[:2 * h], rec[2 * h:C], rec[C:]
            d_z = d[h:]
        else:
            prev, d_z, c_n = None, rec0[h:], rec0[:h]

        # projection heads
        d_o = d_heads[n]
        dW_o += d_o @ new.T
        np.matmul(W_o.T, d_o, out=zdh)
        dh += zdh
        # dh splits into z dh, a part of the previous state's, and (1 - z) dh
        np.divide(dh, d_z, out=zdh)
        dh -= zdh
        # update pre-activation: (1 - z) dh * z (prev - c), and
        # z (prev - c) = new - c, in d_z's rows
        np.add(new, c_n, out=d_z)
        d_z *= dh
        # candidate pre-activation: (1 - z) dh * (1 - c^2), in -c's rows,
        # which z's gradient has read for good
        dcp = np.multiply(c_n, c_n, out=c_n)
        np.subtract(1.0, dcp, out=dcp)
        dcp *= dh
        dx[2 * h:] += dcp
        if prev is not None:
            # reset pre-activation: dn = dcp * r in dcp, then dr = (1 - r)
            # dn hp_c = (r dn - dn) hpn_c in d_r's rows; dn replaces hpn_c
            d_r = d[:h]
            dcp /= d_r
            np.divide(dcp, d_r, out=d_r)
            d_r -= dcp
            d_r *= hp_c
            hp_c[...] = dcp
            dW_h += prev @ rec[:C].T
            np.matmul(W_h, rec[:C], out=c_n)
            np.add(zdh, c_n, out=dh)
        dg = d_z if prev is None else d     # [dr;] dz
        dx[2 * h - len(dg):2 * h] += dg
        if n:
            # dx now sums steps n .. N-1; over n >= 1 these sums add up
            # each step's row sums n times, so dw_t = dt_nominal * dx_sums
            dx_sums += dx.sum(axis=1)
    return dx, ((1.0 / N) * dx_sums, dx.sum(axis=1), dW_h, dW_o,
                d_heads.sum(axis=(0, 2)))


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


def integrate_logits(gates: np.ndarray, dt_nominal: float):
    """Run the Euler recursion from 0 with one clamped dt.

    gates: [2N, *pairs], f_tau in rows :N and f_phi in rows N:, each row
    in the pair batch's shape. The states alternate between two row
    buffers (``_euler_states`` over them), so a_N ends in a buffer of its
    own and no other state is kept. It is no tape op: the gate core's op
    runs the adjoint itself (``_euler_adjoint``, in ``_head_grads``).
    Returns (final states [*pairs], LogitTrajectory), whose gate arrays are
    views of the gates and whose states are rebuilt when read.
    """
    n_steps = len(gates) // 2
    f_tau, f_phi = gates[:n_steps], gates[n_steps:]
    dt = clamp_dt(dt_nominal, f_tau)
    # a_n in pair[n % 2]: two separate buffers, so that no other row
    # outlives the call with a_N
    pair = [np.empty(gates.shape[1:]), np.empty(gates.shape[1:])]
    pair[0][...] = 0.0
    _euler_states([pair[n % 2] for n in range(n_steps + 1)], f_tau, f_phi, dt)
    return pair[n_steps % 2], LogitTrajectory.of(gates, dt, dt_nominal)


def _euler_states(a, f_tau: np.ndarray, f_phi: np.ndarray, dt: float):
    """a_{n+1} = a_n + dt * (f_phi_n - f_tau_n * a_n) into every row after
    the first of a, [M+1, ...] or a list of M+1 rows, from a[0] and gate
    rows n < M; in the float order of that formula, with no temporaries.
    Listed rows may repeat buffers as long as a[n] and a[n + 1] differ."""
    for n in range(len(a) - 1):
        # a + (f_phi - f_tau * a) * dt, built in a[n + 1]
        step = np.multiply(f_tau[n], a[n], out=a[n + 1])
        np.subtract(f_phi[n], step, out=step)
        step *= dt
        step += a[n]


def euler_rows(a0, f_tau: np.ndarray, f_phi: np.ndarray,
               dt: float) -> np.ndarray:
    """The states a_0 .. a_N [N+1, ...] from a0, a number or one row
    [...], and the N gate rows of f_tau, f_phi, by ``_euler_states`` with
    no clamp."""
    a = np.empty((len(f_tau) + 1,) + f_tau.shape[1:])
    a[:1] = a0
    _euler_states(a, f_tau, f_phi, dt)
    return a


def _euler_adjoint(g: np.ndarray, f_tau: np.ndarray, a: np.ndarray,
                   dt: float, d_tau: np.ndarray, d_phi: np.ndarray):
    """The adjoint of ``_euler_states`` over the N steps of f_tau [N, ...]:
    from g, the gradient of a_N, writes the gates' gradients into d_tau and
    d_phi [N, ...], reading a_0 .. a_{N-1}, and leaves the gradient of a_0
    in g."""
    for n in reversed(range(len(f_tau))):
        gs = np.multiply(g, dt, out=d_phi[n])
        # g -= gs * f_tau, with d_tau[n] as scratch before it takes its value
        g -= np.multiply(gs, f_tau[n], out=d_tau[n])
        np.multiply(gs, a[n], out=d_tau[n])
        np.negative(d_tau[n], out=d_tau[n])


# --------------------------------------------------------------------------
# attention assembly
# --------------------------------------------------------------------------

def attend(q: Tensor, k: Tensor, v, core, cfg: LanConfig,
           key_mask: np.ndarray | None = None, trajectory: bool = False):
    """The per-head pipeline on [B,H,T,D] inputs: pair curation, gates,
    Euler integration, masked softmax, and the weighted sum of the selected
    values (``T.gather_weighted``, which never gathers them whole). Returns
    (heads out [B,H,T_q,D_v], weights [B,H,T_q,K_eff], pairs, trajectory),
    the trajectory None unless ``trajectory`` asks for it.

    v is the values, or a callable of no arguments that makes them, which
    ``attend`` calls after the softmax, so that the gates run without the
    values. The pair input holds q and k while the gates run, which
    project them head by head. Nothing but the tape reads q, k or the
    pair input once the gates have run, or the logits once the softmax
    has: under ``no_grad`` each is dropped then, unless the caller holds
    it.
    """
    if cfg.top_k is None:
        pb = pairs_mod.full_pairwise_concat(q, k, causal=cfg.causal,
                                            key_mask=key_mask)
    else:
        pb = pairs_mod.topk_concat(q, k, cfg.top_k, causal=cfg.causal,
                                   key_mask=key_mask)
    pin = core.project_pairs(q, k, pb)
    del q, k
    a_final, traj = core.unroll(pin, cfg.euler_steps, trajectory)
    del pin
    alpha = T.masked_softmax(a_final, pb.valid_mask)
    del a_final
    out = T.gather_weighted(alpha, v() if callable(v) else v,
                            pb.selected_indices)
    return out, alpha, pb, traj


def sink_gate(x: Tensor, multihead_out: Tensor, W_g: Tensor, b_g: Tensor,
              W_s: Tensor, b_s: Tensor) -> Tensor:
    """O = sigmoid(x W_s + b_s) * (multihead_out W_g + b_g), elementwise."""
    gate = T.sigmoid(T.affine(x, W_s, b_s))
    projected = T.affine(multihead_out, W_g, b_g)
    return T.mul(gate, projected)


class MultiHeadLan(T.Module):
    """H liquid-attention heads processed along one batched axis.

    Per-head projections are stacked into [H,1,d,D] weights; the gate
    core ``gate`` (parameters ``gate.W_u`` ...) carries the head axis too,
    so the whole block runs without a python-level head loop; its gates
    are the learned GRU gating over cfg.euler_steps steps. Keys and values
    come from one input: the block's own for self-attention, the encoder's
    for cross-attention.
    """

    def __init__(self, cfg: LanConfig, rng: np.random.Generator):
        self.cfg = cfg
        d, D, H = cfg.d_model, cfg.head_dim, cfg.heads
        self.W_q = uniform_init(rng, (H, 1, d, D), d)
        self.b_q = uniform_init(rng, (H, 1, 1, D), d)
        self.W_k = uniform_init(rng, (H, 1, d, D), d)
        self.b_k = uniform_init(rng, (H, 1, 1, D), d)
        self.W_v = uniform_init(rng, (H, 1, d, D), d)
        self.b_v = uniform_init(rng, (H, 1, 1, D), d)
        self.gate = RecurrentGateCore(D, rng, heads=H)
        self.W_g = uniform_init(rng, (d, d), d)
        self.b_g = uniform_init(rng, (d,), d)
        if cfg.sink_gate_enabled:
            # zero init: the gate opens at 0.5 and is neutral at start
            self.W_s = zeros_param((d, d))
            self.b_s = zeros_param((d,))

    def _project(self, x: Tensor, W: Tensor, b: Tensor) -> Tensor:
        # [B,T,d] -> [B,H,T,D]
        x4 = T.reshape(x, (1,) + x.shape)
        return T.swapaxes(T.affine(x4, W, b), 0, 1)

    def forward(self, x_q: Tensor, x_kv: Tensor,
                key_mask: np.ndarray | None = None,
                collect: dict | None = None) -> Tensor:
        cfg = self.cfg
        B, T_q, d = x_q.shape
        # q and k go straight into attend, which drops them once it has
        # projected the pairs; v is projected only after the softmax, so
        # the gates run without it
        out_heads, _, _, traj = attend(
            self._project(x_q, self.W_q, self.b_q),
            self._project(x_kv, self.W_k, self.b_k),
            lambda: self._project(x_kv, self.W_v, self.b_v), self.gate, cfg,
            key_mask, trajectory=collect is not None)
        merged = T.reshape(T.swapaxes(out_heads, 1, 2),
                           (B, T_q, cfg.heads * cfg.head_dim))

        if collect is not None:
            collect.setdefault("trajectories", []).append(traj)

        if cfg.sink_gate_enabled:
            return sink_gate(x_q, merged, self.W_g, self.b_g,
                             self.W_s, self.b_s)
        return T.affine(merged, self.W_g, self.b_g)

