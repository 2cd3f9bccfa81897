"""Hyper-connections: n-stream replacements for residual paths.

The hidden state is expanded into n streams mixed by a structured
(n+1)x(n+1) matrix: B broadcasts the sublayer output into the streams,
A_m aggregates streams into the sublayer input, A_r mixes streams
residually. The liquid variant makes all three input-dependent through
tanh projections scaled by small learnable factors; at zero scale it
reduces bitwise to the static form, and at n = 1 with unit parameters
the whole block is exactly x + L(x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fluid import tensor as T
from fluid.tensor import Tensor, uniform_init


@dataclass
class HcLiquid:
    """Input-dependent deltas; s_b and s_a start small so the static part
    dominates early training."""

    W_b: Tensor   # [d, 1]
    W_m: Tensor   # [d, 1]
    W_r: Tensor   # [d, n]
    s_b: Tensor   # scalar
    s_a: Tensor   # scalar


class HcParams:
    """Stream-mixing parameters for one sublayer connection."""

    def __init__(self, n: int, d: int | None = None, liquid: bool = False,
                 rng: np.random.Generator | None = None):
        if n < 1:
            raise ValueError("expansion rate n must be >= 1")
        # untrained block behaves as a stream-averaged residual connection
        self.n = n
        self.B = Tensor(np.ones(n), requires_grad=True)
        self.A_m = Tensor(np.full(n, 1.0 / n), requires_grad=True)
        self.A_r = Tensor(np.eye(n), requires_grad=True)
        self.liquid = None
        if liquid:
            if d is None or rng is None:
                raise ValueError("liquid parameters need d and rng")
            self.liquid = HcLiquid(
                W_b=uniform_init(rng, (d, 1), d),
                W_m=uniform_init(rng, (d, 1), d),
                W_r=uniform_init(rng, (d, n), d),
                s_b=Tensor(np.array(1e-2), requires_grad=True),
                s_a=Tensor(np.array(1e-2), requires_grad=True),
            )

    def parameters(self) -> dict:
        out = {"B": self.B, "A_m": self.A_m, "A_r": self.A_r}
        if self.liquid is not None:
            out.update({"W_b": self.liquid.W_b, "W_m": self.liquid.W_m,
                        "W_r": self.liquid.W_r, "s_b": self.liquid.s_b,
                        "s_a": self.liquid.s_a})
        return out


def expand_streams(x: Tensor, n: int) -> Tensor:
    """Replicate [..., d] input into the [..., n, d] hyper-hidden state."""
    shape = x.shape[:-1] + (n, x.shape[-1])
    return T.broadcast_to(T.reshape(x, x.shape[:-1] + (1, x.shape[-1])), shape)


def hc_aggregate(A_m: Tensor, H: Tensor) -> Tensor:
    """x0 = A_m^T H: collapse streams into the sublayer input [..., d].

    Implemented as broadcast-multiply plus axis reduction so the static
    ([n]) and liquid ([..., n]) weight shapes take the identical
    floating-point path.
    """
    w = T.reshape(A_m, A_m.shape + (1,))
    return T.tsum(T.mul(w, H), axis=-2)


def hc_combine(B: Tensor, A_r: Tensor, H: Tensor, layer_out: Tensor) -> Tensor:
    """H_hat = B^T layer_out + A_r^T H: broadcast the sublayer output back
    into the streams and add the residual mixing."""
    n = H.shape[-2]
    col = T.reshape(B, B.shape + (1,))
    row = T.reshape(layer_out, layer_out.shape[:-1] + (1, layer_out.shape[-1]))
    broadcasted = T.mul(col, row)
    # residual[..., r, :] = sum_s A_r[..., s, r] * H[..., s, :]
    Ar_e = T.reshape(A_r, A_r.shape + (1,))
    H_e = T.reshape(H, H.shape[:-2] + (n, 1, H.shape[-1]))
    residual = T.tsum(T.mul(Ar_e, H_e), axis=-3)
    return T.add(broadcasted, residual)


def hc_liquid_params(params: HcParams, X: Tensor):
    """Effective (B', A_m', A_r') for the liquid variant, per token.

    X is the hyper-hidden state [..., n, d]; each stream row is normalized
    and projected independently, so B' and A_m' gain one delta per stream
    and A_r' one delta row per stream.
    """
    if params.liquid is None:
        raise ValueError("liquid parameters are absent")
    liq = params.liquid
    n = params.n
    Xn = T.layer_norm(X)
    db = T.mul(liq.s_b, T.tanh(T.matmul(Xn, liq.W_b)))   # [..., n, 1]
    dm = T.mul(liq.s_a, T.tanh(T.matmul(Xn, liq.W_m)))
    dr = T.mul(liq.s_a, T.tanh(T.matmul(Xn, liq.W_r)))   # [..., n, n]
    B_eff = T.add(params.B, T.reshape(db, db.shape[:-2] + (n,)))
    Am_eff = T.add(params.A_m, T.reshape(dm, dm.shape[:-2] + (n,)))
    Ar_eff = T.add(params.A_r, dr)
    return B_eff, Am_eff, Ar_eff


def hc_block(params: HcParams, H: Tensor, sublayer) -> Tensor:
    """Aggregate, run the sublayer, combine; liquid parameters when present."""
    if params.liquid is not None:
        B_eff, Am_eff, Ar_eff = hc_liquid_params(params, H)
    else:
        B_eff, Am_eff, Ar_eff = params.B, params.A_m, params.A_r
    x0 = hc_aggregate(Am_eff, H)
    out = sublayer(x0)
    return hc_combine(B_eff, Ar_eff, H, out)


def hc_network_finalize(H: Tensor) -> Tensor:
    """Sum the streams and layer-normalize (stack output reduction)."""
    summed = T.tsum(H, axis=-2)
    return T.layer_norm(summed)
