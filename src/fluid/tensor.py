"""Dense float64 tensors with a reverse-mode gradient tape.

The tape is rebuilt on every forward pass and released by ``backward``.
Tensors are immutable values after construction (optimizers mutate the
underlying buffer of leaf parameters between passes, never mid-graph).
All arithmetic is 64-bit; broadcasting follows numpy rules and any
incompatible pair of shapes raises :class:`ShapeError` naming both.
``masked_softmax``, ``gather_weighted`` and ``layer_norm`` are each one
tape op for a whole formula, with a hand-written backward rule.
"""

from __future__ import annotations

import struct
import threading
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes cannot be combined."""


class GradientError(RuntimeError):
    """Raised on invalid gradient requests (e.g. non-scalar backward root)."""


# --------------------------------------------------------------------------
# grad mode
# --------------------------------------------------------------------------

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager disabling tape construction (inference mode)."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


# --------------------------------------------------------------------------
# Tensor
# --------------------------------------------------------------------------

class Tensor:
    """A dense float64 array plus an optional backward rule on the tape.

    Leaf tensors created with ``requires_grad=True`` are parameters; after
    ``backward`` on a scalar root their ``.grad`` holds d(root)/d(param).
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward: Callable | None = None
        self._parents: tuple = ()

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self):
        backward(self)


def _node(data: np.ndarray, parents: Sequence[Tensor],
          backward_rule: Callable) -> Tensor:
    out = Tensor(data)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_rule
    return out


def _check_broadcast(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are incompatible")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


# --------------------------------------------------------------------------
# elementwise ops
# --------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = a.data + b.data

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), rule)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out = a.data - b.data

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(out, (a, b), rule)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out = a.data * b.data

    def rule(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), rule)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar kept off the tape (e.g. the clamped dt)."""
    c = float(c)
    return _node(a.data * c, (a,), lambda g: (g * c,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return _node(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_neg_(np.negative(a.data, out=np.empty_like(a.data)))
    return _node(out, (a,), lambda g: (g * out * (1.0 - out),))


def _sigmoid_neg_(x: np.ndarray) -> np.ndarray:
    """In place x <- sigmoid(-x) = 1 / (1 + exp(x)). exp overflows at very
    large x and underflows at very negative x, and the result saturates to
    0 or 1 exactly, the right limits."""
    with np.errstate(over="ignore", under="ignore"):
        np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)
    return x


def _softplus_(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """In place x <- log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}), with t
    scratch of x's shape. e^{-|x|} never overflows."""
    np.abs(x, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    np.maximum(x, 0.0, out=x)
    x += t
    return x


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def rule(g):
        return (g * (a.data > 0.0),)

    return _node(out, (a,), rule)


def absolute(a: Tensor) -> Tensor:
    # subgradient 0 at the kink
    out = np.abs(a.data)

    def rule(g):
        return (g * np.sign(a.data),)

    return _node(out, (a,), rule)


# --------------------------------------------------------------------------
# shape ops
# --------------------------------------------------------------------------

def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)
    orig = a.shape
    return _node(out, (a,), lambda g: (g.reshape(orig),))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    out = np.swapaxes(a.data, ax1, ax2)
    return _node(out, (a,), lambda g: (np.swapaxes(g, ax1, ax2),))


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}")
    orig = a.shape
    return _node(np.ascontiguousarray(out), (a,),
                 lambda g: (_unbroadcast(g, orig),))


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def rule(g):
        return tuple(np.split(g, splits, axis=axis))

    return _node(out, tensors, rule)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries from ``start`` along ``axis`` (view, no copy)."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def rule(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        return (full,)

    return _node(a.data[idx], (a,), rule)


# --------------------------------------------------------------------------
# reductions and matmul
# --------------------------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _node(out, (a,), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; batch axes broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must have rank >= 2, "
                         f"got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes "
                         f"{a.shape} and {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: batch dimensions of {a.shape} and "
                         f"{b.shape} do not broadcast")

    def rule(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(out, (a, b), rule)


def masked_softmax(a: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over entries where ``mask`` is true; masked entries get exactly 0.

    ``mask`` is a constant (never differentiated). Rows with no valid entry
    are rejected: the caller's masking contract must leave at least one.
    """
    mask = np.asarray(mask, dtype=bool)
    valid = np.broadcast_to(mask, a.shape)
    if not valid.any(axis=axis).all():
        raise ValueError("masked_softmax: some rows have no valid entries")
    neg_inf_free = np.where(valid, a.data, -np.inf)
    shift = neg_inf_free.max(axis=axis, keepdims=True)
    e = np.where(valid, np.exp(a.data - shift), 0.0)
    denom = e.sum(axis=axis, keepdims=True)
    out = e / denom

    def rule(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - dot) * out,)

    return _node(out, (a,), rule)


def gather_keys(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather per-query key vectors: x [B,H,T_k,D], idx [B,H,T_q,K] -> [B,H,T_q,K,D].

    Indices are constants (hard selection). Both directions use one flat
    (b, h, key) index: the forward takes those rows of x with ``np.take``,
    and the gradient scatter-adds into them, one ``np.bincount`` per
    channel. Its callers are ``SdpaFrozenGates`` and the test oracles;
    attention aggregates values with ``gather_weighted``, which never
    builds this whole array.
    """
    B, H, T_k, D = x.shape
    flat = np.arange(B * H).reshape(B, H, 1, 1) * T_k + np.asarray(idx)
    out = np.take(x.data.reshape(B * H * T_k, D), flat, axis=0)
    lin = flat.reshape(-1)

    def rule(g):
        g_cm = g.reshape(-1, D).T                            # [D, pairs]
        gx = np.empty((D, B * H * T_k))
        for c in range(D):
            gx[c] = np.bincount(lin, weights=g_cm[c], minlength=B * H * T_k)
        return (gx.T.reshape(B, H, T_k, D),)

    return _node(out, (x,), rule)


def gather_weighted(alpha: Tensor, x: Tensor, idx: np.ndarray) -> Tensor:
    """Weighted sum of gathered key vectors: alpha and idx [B,H,T_q,K],
    x [B,H,T_k,D] -> [B,H,T_q,D], out[b,h,q] = sum_k alpha[b,h,q,k] *
    x[b,h,idx[b,h,q,k]].

    The value of ``tsum(mul(alpha[..., None], gather_keys(x, idx)), 3)``
    without the gathered [B,H,T_q,K,D] array: whole query rows go a chunk
    of at most ``_VALUE_CHUNK`` gathered scalars at a time, each chunk
    taking its rows of x with ``np.take`` and contracting them with alpha
    in one batched ``np.matmul``. Rows never share a product, so the
    result is the same for any chunk size. The tape keeps alpha, x and
    idx; the backward re-gathers each chunk for d alpha and scatter-adds
    alpha * g into d x, one ``np.bincount`` per channel in pair order.
    """
    idx = np.asarray(idx)
    B, H, T_k, D = x.shape
    if alpha.shape != idx.shape or alpha.shape[:2] != (B, H):
        raise ShapeError(f"gather_weighted: alpha {alpha.shape}, idx "
                         f"{idx.shape} and x {x.shape} do not fit")
    T_q, K = alpha.shape[2:]
    rows = B * H * T_q
    step = max(1, _VALUE_CHUNK // max(1, K * D))
    idx2 = idx.reshape(rows, K)
    cuts = [slice(s, min(s + step, rows)) for s in range(0, rows, step)]

    def take(xf, sl):
        """The rows [chunk, K, D] of xf [B*H*T_k, D] that the query rows
        ``sl`` select."""
        base = np.arange(sl.start, sl.stop) // T_q * T_k   # row -> (b, h)
        return np.take(xf, idx2[sl] + base[:, None], axis=0)

    out = np.empty((rows, 1, D))
    a3 = alpha.data.reshape(rows, 1, K)
    xf = x.data.reshape(B * H * T_k, D)
    for sl in cuts:
        np.matmul(a3[sl], take(xf, sl), out=out[sl])

    def rule(g):
        g2 = g.reshape(rows, D)
        ga = np.empty((rows, K, 1))
        g3 = g2.reshape(rows, D, 1)
        xf = x.data.reshape(B * H * T_k, D)
        for sl in cuts:
            np.matmul(take(xf, sl), g3[sl], out=ga[sl])
        lin = (np.arange(B * H).reshape(B, H, 1, 1) * T_k + idx).ravel()
        a2 = alpha.data.reshape(rows, K)
        w = np.empty((rows, K))
        gx = np.empty((D, B * H * T_k))
        for c in range(D):
            np.multiply(a2, g2[:, c, None], out=w)
            gx[c] = np.bincount(lin, weights=w.reshape(-1),
                                minlength=B * H * T_k)
        return ga.reshape(alpha.shape), gx.T.reshape(x.shape)

    return _node(out.reshape(B, H, T_q, D), (alpha, x), rule)


# gathered scalars per chunk of ``gather_weighted`` (8 MB, one top-k score
# chunk of ``pairs``)
_VALUE_CHUNK = 1 << 20
# added to the variance in ``layer_norm`` before the inverse square root
_LN_EPS = 1e-5


def layer_norm(x: Tensor, gain: Tensor | None = None,
               bias: Tensor | None = None) -> Tensor:
    """x_hat = (x - mean) * inv over the last axis, inv = (var + eps) ** -0.5,
    then the optional learnable affine x_hat * gain + bias. The tape keeps
    x_hat and inv: with g_hat = g * gain, d x = inv * (g_hat - mean(g_hat)
    - x_hat * mean(g_hat * x_hat)) over the last axis."""
    n = x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = (var + _LN_EPS) ** -0.5
    out = x_hat = centered * inv
    if gain is not None:
        out = out * gain.data
    if bias is not None:
        out = out + bias.data
    parents = tuple(p for p in (x, gain, bias) if p is not None)

    def rule(g):
        g_hat = g if gain is None else g * gain.data
        dx = inv * (g_hat - g_hat.mean(axis=-1, keepdims=True)
                    - x_hat * (g_hat * x_hat).mean(axis=-1, keepdims=True))
        grads = [dx]
        if gain is not None:
            grads.append(_unbroadcast(g * x_hat, gain.shape))
        if bias is not None:
            grads.append(_unbroadcast(g, bias.shape))
        return tuple(grads)

    return _node(out, parents, rule)


# --------------------------------------------------------------------------
# backward
# --------------------------------------------------------------------------

def backward(root: Tensor):
    """Reverse-mode pass from a scalar root.

    Populates ``.grad`` on every reachable leaf with ``requires_grad``;
    each node's rule runs exactly once. The walk releases each node once
    its rule has run, so an intermediate is freed during the walk unless
    the caller still holds it.
    """
    if root.data.size != 1:
        raise GradientError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        return

    # iterative topological order (graphs can be thousands of nodes deep)
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    while topo:
        node = topo.pop()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            key = id(p)
            grads[key] = grads[key] + pg if key in grads else pg
        node._backward = None
        node._parents = ()


# --------------------------------------------------------------------------
# serialization: rank u32, dims u32 each, little-endian f64 payload
# --------------------------------------------------------------------------

def serialize_tensor(t: Tensor) -> bytes:
    dims = t.shape
    header = struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    payload = np.ascontiguousarray(t.data, dtype="<f8").tobytes()
    return header + payload


def deserialize_tensor(buf: bytes, offset: int = 0) -> tuple[Tensor, int]:
    """Read one tensor starting at ``offset``; returns (tensor, next offset).

    Raises ValueError when ``buf`` ends before the tensor does.
    """
    try:
        (rank,) = struct.unpack_from("<I", buf, offset)
        dims = struct.unpack_from(f"<{rank}I", buf, offset + 4)
    except struct.error as err:
        raise ValueError(f"truncated tensor header at byte {offset}") from err
    offset += 4 + 4 * rank
    count = int(np.prod(dims)) if rank else 1
    # frombuffer raises ValueError when the payload is short
    data = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    offset += 8 * count
    return Tensor(data.astype(np.float64).reshape(dims)), offset


# --------------------------------------------------------------------------
# parameter initialization
# --------------------------------------------------------------------------

def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)
