"""Liquid hyper-connections: n-stream replacements for residual paths.

The hidden state is expanded into n streams mixed by a structured
(n+1)x(n+1) matrix: B broadcasts the sublayer output into the streams,
A_m aggregates streams into the sublayer input, A_r mixes streams
residually. ``HcParams`` holds B, A_m and A_r with the tanh projections
and small learnable scales that make all three input-dependent.
``hc_block`` is the one composition: aggregate, run the sublayer,
combine. ``hc_aggregate`` and ``hc_combine`` are one tape op each, whose
rules form the stream products again rather than keep them on the tape,
where no rule would read them. Two reductions hold bitwise: at zero
scale the block is the static one of Zhu et al. ("Hyper-Connections"),
fixed B, A_m and A_r, which the verifier builds from the two ops; and at
n = 1 with unit parameters that static block is x + L(x), so its
``hc_network_finalize`` is layer_norm(x + L(x)).
"""

from __future__ import annotations

import numpy as np

from fluid import tensor as T
from fluid.tensor import Tensor, uniform_init


class HcParams(T.Module):
    """Stream-mixing parameters for one sublayer connection: B, A_m and
    A_r, the projections W_b [d, 1], W_m [d, 1] and W_r [d, n] of width-d
    streams, and the scalar scales s_b and s_a, which start small so the
    static part dominates early training."""

    def __init__(self, n: int, d: int, rng: np.random.Generator):
        if n < 1:
            raise ValueError("expansion rate n must be >= 1")
        # untrained block behaves as a stream-averaged residual connection
        self.n = n
        self.B = Tensor(np.ones(n), requires_grad=True)
        self.A_m = Tensor(np.full(n, 1.0 / n), requires_grad=True)
        self.A_r = Tensor(np.eye(n), requires_grad=True)
        self.W_b = uniform_init(rng, (d, 1), d)
        self.W_m = uniform_init(rng, (d, 1), d)
        self.W_r = uniform_init(rng, (d, n), d)
        self.s_b = Tensor(np.array(1e-2), requires_grad=True)
        self.s_a = Tensor(np.array(1e-2), requires_grad=True)


def expand_streams(x: Tensor, n: int) -> Tensor:
    """Replicate [..., d] input into the [..., n, d] hyper-hidden state."""
    shape = x.shape[:-1] + (n, x.shape[-1])
    return T.broadcast_to(T.reshape(x, x.shape[:-1] + (1, x.shape[-1])), shape)


def hc_aggregate(A_m: Tensor, H: Tensor) -> Tensor:
    """x0 = A_m^T H: collapse streams into the sublayer input [..., d].

    One tape op with parents (A_m, H): a broadcast multiply, then a sum
    over the stream axis, so static ([n]) and liquid ([..., n]) weight
    shapes take the identical floating-point path. The tape keeps no
    [..., n, d] product: the rule forms it again, as the composed
    ``mul``/``tsum`` rules would.
    """
    w = A_m.data.reshape(A_m.shape + (1,))
    out = (w * H.data).sum(axis=-2)

    def rule(g):
        gp = np.broadcast_to(np.expand_dims(g, -2), np.broadcast_shapes(
            w.shape, H.shape))
        return (T._unbroadcast(gp * H.data, w.shape).reshape(A_m.shape),
                T._unbroadcast(gp * w, H.shape))

    return T._node(out, (A_m, H), rule)


def hc_combine(B: Tensor, A_r: Tensor, H: Tensor, layer_out: Tensor) -> Tensor:
    """H_hat = B^T layer_out + A_r^T H: broadcast the sublayer output back
    into the streams and add the residual mixing.

    One tape op with parents (B, A_r, H, layer_out). The residual sums the
    [..., n, n, d] product A_r[..., s, r] * H[..., s, :] over s; the tape
    keeps neither it nor the broadcast [..., n, d] output product, and the
    rule forms each again, as the composed ``mul``/``tsum`` rules would.
    """
    n, d = H.shape[-2:]
    col = B.data.reshape(B.shape + (1,))
    row = layer_out.data.reshape(layer_out.shape[:-1] + (1, d))
    Ar_e = A_r.data.reshape(A_r.shape + (1,))
    H_e = H.data.reshape(H.shape[:-2] + (n, 1, d))
    out = col * row + (Ar_e * H_e).sum(axis=-3)

    def rule(g):
        gp = np.broadcast_to(np.expand_dims(g, -3), np.broadcast_shapes(
            Ar_e.shape, H_e.shape))
        return (T._unbroadcast(g * row, col.shape).reshape(B.shape),
                T._unbroadcast(gp * H_e, Ar_e.shape).reshape(A_r.shape),
                T._unbroadcast(gp * Ar_e, H_e.shape).reshape(H.shape),
                T._unbroadcast(g * col, row.shape).reshape(layer_out.shape))

    return T._node(out, (B, A_r, H, layer_out), rule)


def hc_liquid_params(params: HcParams, X: Tensor):
    """Effective (B', A_m', A_r'), per token.

    X is the hyper-hidden state [..., n, d]; each stream row is normalized
    and projected independently, so B' and A_m' gain one delta per stream
    and A_r' one delta row per stream.
    """
    n = params.n
    Xn = T.layer_norm(X)
    db = T.mul(params.s_b, T.tanh(T.matmul(Xn, params.W_b)))   # [..., n, 1]
    dm = T.mul(params.s_a, T.tanh(T.matmul(Xn, params.W_m)))
    dr = T.mul(params.s_a, T.tanh(T.matmul(Xn, params.W_r)))   # [..., n, n]
    B_eff = T.add(params.B, T.reshape(db, db.shape[:-2] + (n,)))
    Am_eff = T.add(params.A_m, T.reshape(dm, dm.shape[:-2] + (n,)))
    Ar_eff = T.add(params.A_r, dr)
    return B_eff, Am_eff, Ar_eff


def hc_block(params: HcParams, H: Tensor, sublayer) -> Tensor:
    """Aggregate, run the sublayer, combine, with the effective parameters
    of ``hc_liquid_params``."""
    B_eff, Am_eff, Ar_eff = hc_liquid_params(params, H)
    x0 = hc_aggregate(Am_eff, H)
    out = sublayer(x0)
    return hc_combine(B_eff, Ar_eff, H, out)


def hc_network_finalize(H: Tensor) -> Tensor:
    """Sum the streams and layer-normalize (stack output reduction)."""
    summed = T.tsum(H, axis=-2)
    return T.layer_norm(summed)
