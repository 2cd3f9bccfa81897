"""Tensor algebra and reverse-mode gradient checks."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine as composed_affine
from conftest import (central_difference, concat, matmul_triple_loop,
                      max_rel_error, narrow, peak_bytes, scale, softplus,
                      weighted_run)
from fluid import tensor as T
from fluid import training as TR
from fluid.tensor import Tensor


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_projector():
    p = Tensor([[1.0, 0.0], [0.0, 0.0]])
    m = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = T.matmul(p, m)
    assert np.array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    out = T.matmul(Tensor(a), Tensor(b))
    assert np.allclose(out.data, matmul_triple_loop(a, b), atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(T.ShapeError) as e:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b, c = (Tensor(rng.standard_normal((4, 4))) for _ in range(3))
        left = T.matmul(T.matmul(a, b), c).data
        right = T.matmul(a, T.matmul(b, c)).data
        assert np.max(np.abs(left - right)) < 1e-9


def test_elementwise_closed_forms():
    assert math.isclose(softplus(Tensor(0.0)).item(), math.log(2.0), rel_tol=1e-12)
    assert T.tanh(Tensor(0.0)).item() == 0.0
    assert T.sigmoid(Tensor(0.0)).item() == 0.5


@pytest.mark.parametrize("x", [-3.0, 0.0, 3.0])
def test_softplus_difference_identity(x):
    # softplus(x) - softplus(-x) = x
    lhs = softplus(Tensor(x)).item() - softplus(Tensor(-x)).item()
    assert math.isclose(lhs, x, abs_tol=1e-12)


def test_elementwise_shape_mismatch():
    with pytest.raises(T.ShapeError):
        T.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))


def test_softmax_uniform():
    out = T.masked_softmax(Tensor([0.0, 0.0, 0.0]), True)
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_shift_invariance():
    a = np.array([0.3, -1.2])
    base = T.masked_softmax(Tensor(a), True).data
    shifted = T.masked_softmax(Tensor(a + 100.0), True).data
    assert np.allclose(base, shifted, atol=1e-12)


def test_softmax_frozen_values():
    # direct e^a / sum e^a evaluation of [1, 2, 3]
    out = T.masked_softmax(Tensor([1.0, 2.0, 3.0]), True)
    assert np.allclose(out.data, [0.09003, 0.24473, 0.66524], atol=1e-5)


@settings(max_examples=50)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_softmax_sums_to_one(values):
    out = T.masked_softmax(Tensor(values), True)
    assert abs(out.data.sum() - 1.0) <= 1e-12
    assert (out.data >= 0).all()


def test_masked_softmax_zeroes_invalid_and_sums_to_one():
    x = Tensor(np.array([[1.0, 5.0, -2.0, 3.0]]))
    mask = np.array([[True, False, True, True]])
    out = T.masked_softmax(x, mask)
    assert out.data[0, 1] == 0.0
    assert abs(out.data.sum() - 1.0) <= 1e-12


def test_masked_softmax_rejects_empty_rows():
    with pytest.raises(ValueError):
        T.masked_softmax(Tensor(np.zeros((1, 2))), np.array([[False, False]]))


def test_backward_quadratic():
    p = Tensor([3.0], requires_grad=True)
    root = T.tsum(T.mul(p, p))
    root.backward()
    assert np.allclose(p.grad, [6.0])


def test_backward_constant_root_leaves_no_grads():
    p = Tensor([3.0], requires_grad=True)
    c = T.tsum(Tensor([1.0]))
    c.backward()
    assert p.grad is None


def test_backward_rejects_nonscalar_root():
    p = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(T.GradientError):
        T.backward(T.mul(p, p))


def test_backward_accumulates_shared_node_once():
    # p used twice: d/dp (p*p + 3p) = 2p + 3
    p = Tensor([2.0], requires_grad=True)
    root = T.tsum(T.add(T.mul(p, p), scale(p, 3.0)))
    root.backward()
    assert np.allclose(p.grad, [7.0])


def test_backward_frees_each_node_once_its_rule_has_run():
    # x -> first -> mid -> tanh -> root: mid's rule runs before first's,
    # and nothing but the tape holds mid
    x = Tensor(np.ones(3), requires_grad=True)
    alive = []

    def rule(g):
        alive.append(mid_data() is not None)
        return (g,)

    mid = scale(T._node(x.data * 2.0, (x,), rule), 3.0)
    mid_data = weakref.ref(mid.data)
    root = T.tsum(T.tanh(mid))
    del mid
    root.backward()
    assert alive == [False]
    assert np.allclose(x.grad, 3.0 * (1.0 - np.tanh(6.0) ** 2))


def _composite_scalar(params):
    """A graph exercising most ops: matmul, softmax, nonlinearities, norm."""
    w, b, v = params
    h = T.tanh(T.add(T.matmul(v, w), b))
    g = T.sigmoid(narrow(h, 1, 0, 2))
    s = T.masked_softmax(concat([h, g], axis=1), True)
    ln = T.layer_norm(softplus(h))
    return T.tsum(T.add(T.mul(s, s), T.reshape(T.tsum(ln, axis=1), (-1, 1))))


def test_composite_gradients_match_central_difference():
    rng = np.random.default_rng(7)
    shapes = [(3, 3), (1, 3), (2, 3)]
    arrays = [rng.uniform(-2, 2, s) for s in shapes]

    params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    root = _composite_scalar(params)
    root.backward()

    for i, arr in enumerate(arrays):
        def f(x, i=i):
            vals = [a.copy() for a in arrays]
            vals[i] = x
            ps = [Tensor(v) for v in vals]
            return _composite_scalar(ps).item()

        numeric = central_difference(f, arr.copy(), h=1e-5)
        assert max_rel_error(params[i].grad, numeric) < 1e-4


@pytest.mark.parametrize("op", ["tanh", "sigmoid", "softplus", "relu"])
def test_unary_gradients_match_central_difference(op):
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, (4,))
    # keep relu away from its kink
    if op == "relu":
        x = x + np.sign(x) * 0.05

    fn = softplus if op == "softplus" else getattr(T, op)

    def f(arr):
        return T.tsum(fn(Tensor(arr))).item()

    p = Tensor(x.copy(), requires_grad=True)
    T.tsum(fn(p)).backward()
    numeric = central_difference(f, x.copy())
    assert max_rel_error(p.grad, numeric) < 1e-4


@pytest.mark.parametrize("op", ["add", "mul"])
def test_binary_gradients_match_central_difference(op):
    rng = np.random.default_rng(13)
    a = rng.uniform(-2, 2, (3, 2))
    b = rng.uniform(0.5, 2, (3, 2))

    fn = getattr(T, op)
    pa = Tensor(a.copy(), requires_grad=True)
    pb = Tensor(b.copy(), requires_grad=True)
    T.tsum(fn(pa, pb)).backward()

    for arr, grad, side in [(a, pa.grad, 0), (b, pb.grad, 1)]:
        def f(x, side=side):
            args = [a.copy(), b.copy()]
            args[side] = x
            return T.tsum(fn(Tensor(args[0]), Tensor(args[1]))).item()

        numeric = central_difference(f, arr.copy())
        assert max_rel_error(grad, numeric) < 1e-4


def test_matmul_gradient_with_batch_broadcast():
    rng = np.random.default_rng(17)
    a = rng.uniform(-2, 2, (2, 3, 4))
    b = rng.uniform(-2, 2, (4, 2))

    pa = Tensor(a.copy(), requires_grad=True)
    pb = Tensor(b.copy(), requires_grad=True)
    T.tsum(T.matmul(pa, pb)).backward()

    def fa(x):
        return T.tsum(T.matmul(Tensor(x), Tensor(b))).item()

    def fb(x):
        return T.tsum(T.matmul(Tensor(a), Tensor(x))).item()

    assert max_rel_error(pa.grad, central_difference(fa, a.copy())) < 1e-4
    assert max_rel_error(pb.grad, central_difference(fb, b.copy())) < 1e-4


def _affine_case():
    """``_project``'s shapes: x [1,B,T,d] against per-head weights
    [H,1,d,D] and biases [H,1,1,D], so every operand broadcasts."""
    rng = np.random.default_rng(40)
    arrays = {"x": rng.standard_normal((1, 3, 5, 4)),
              "W": rng.standard_normal((2, 1, 4, 3)),
              "b": rng.standard_normal((2, 1, 1, 3))}
    return arrays, rng.standard_normal((2, 3, 5, 3))


def test_affine_passes_grad_check():
    arrays, coef = _affine_case()
    params = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
    report = TR.grad_check(
        lambda: T.tsum(T.mul(T.affine(*params.values()), Tensor(coef))), params)
    assert report["max_rel_error"] < 1e-4      # verify's op tolerance


def test_affine_is_the_composed_bias_add_on_one_tape_node():
    arrays, coef = _affine_case()
    fused, fused_grads = weighted_run(T.affine, arrays.values(), coef)
    composed, composed_grads = weighted_run(composed_affine, arrays.values(),
                                            coef)
    assert np.array_equal(fused, composed)
    for g, want in zip(fused_grads, composed_grads):
        assert max_rel_error(g, want) <= 1e-15
    x, W, b = (Tensor(a, requires_grad=True) for a in arrays.values())
    node = T.affine(x, W, b)
    assert len(node._parents) == 3
    assert all(p is q for p, q in zip(node._parents, (x, W, b)))


def test_affine_shape_errors_name_the_shapes():
    x, W = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 4\)"):
        T.affine(x, Tensor(np.ones((4, 4))), Tensor(np.ones(4)))
    with pytest.raises(T.ShapeError, match=r"\(5, 2, 4\).*\(2, 4\)"):
        T.affine(x, W, Tensor(np.ones((5, 2, 4))))


def test_gather_keys_forward_and_grad():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((1, 2, 4, 3))
    idx = np.array([[[[0, 2], [3, 3]], [[1, 0], [2, 1]]]])  # [1,2,2,2]

    px = Tensor(x.copy(), requires_grad=True)
    out = T.gather_keys(px, idx)
    for h in range(2):
        for q in range(2):
            for k in range(2):
                assert np.array_equal(out.data[0, h, q, k], x[0, h, idx[0, h, q, k]])

    weights = rng.standard_normal(out.shape)
    T.tsum(T.mul(out, Tensor(weights))).backward()

    def f(arr):
        return T.tsum(T.mul(T.gather_keys(Tensor(arr), idx), Tensor(weights))).item()

    assert max_rel_error(px.grad, central_difference(f, x.copy())) < 1e-4


def test_gather_keys_is_bitwise_take_along_axis_on_strided_input():
    rng = np.random.default_rng(20)
    B, H, T_k, T_q, K, D = 2, 3, 7, 5, 4, 6
    x = np.swapaxes(rng.standard_normal((B, T_k, H, D)), 1, 2)
    assert not x.flags.c_contiguous
    idx = rng.integers(0, T_k, (B, H, T_q, K))
    px = Tensor(x, requires_grad=True)
    out = T.gather_keys(px, idx)
    want = np.take_along_axis(x[:, :, None], idx[..., None], axis=3)
    assert out.shape == want.shape and np.array_equal(out.data, want)
    g = rng.standard_normal(out.shape)
    T.tsum(T.mul(out, Tensor(g))).backward()
    # scatter-add in pair order, the adjoint of the gather
    want_grad = np.zeros_like(x)
    np.add.at(want_grad, (np.arange(B)[:, None, None, None],
                          np.arange(H)[None, :, None, None], idx), g)
    assert np.array_equal(px.grad, want_grad)


def test_sigmoid_is_bitwise_the_plain_formula():
    rng = np.random.default_rng(21)
    x = np.concatenate([rng.uniform(-40, 40, 1000),
                        [800.0, -800.0, np.inf, -np.inf, 0.0, -0.0]])
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-x))
    p = Tensor(x.copy(), requires_grad=True)
    assert np.array_equal(T.sigmoid(p).data, want)
    assert np.array_equal(p.data, x)                 # the input is left alone
    T.tsum(softplus(p)).backward()
    assert np.array_equal(p.grad, want)


def test_sigmoid_saturates_exactly_under_raising_errstate():
    # exp underflows at +800 and overflows at -800; neither may raise
    p = Tensor(np.array([800.0, -800.0]), requires_grad=True)
    with np.errstate(all="raise"):
        out = T.sigmoid(p)
        T.tsum(out).backward()
    assert out.data.tolist() == [1.0, 0.0]
    assert p.grad.tolist() == [0.0, 0.0]


def test_softplus_is_bitwise_the_plain_formula():
    rng = np.random.default_rng(22)
    x = np.concatenate([30.0 * rng.standard_normal(10 ** 6),
                        [800.0, -800.0, np.inf, -np.inf, 0.0, -0.0]])
    want = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    got = softplus(Tensor(x.copy())).data
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_softmax_gradient_matches_central_difference():
    rng = np.random.default_rng(23)
    x = rng.uniform(-2, 2, (2, 3))
    coef = rng.standard_normal((2, 3))

    p = Tensor(x.copy(), requires_grad=True)
    T.tsum(T.mul(T.masked_softmax(p, True), Tensor(coef))).backward()

    def f(arr):
        return T.tsum(T.mul(T.masked_softmax(Tensor(arr), True),
                            Tensor(coef))).item()

    assert max_rel_error(p.grad, central_difference(f, x.copy())) < 1e-4


def _layer_norm_case(shape, seed=37):
    """x of ``shape`` and a gain and bias over its last axis."""
    rng = np.random.default_rng(seed)
    d = shape[-1]
    return (rng.standard_normal(shape), rng.uniform(0.5, 2.0, d),
            rng.standard_normal(d))


def _layer_norm_plain(x, gain=None, bias=None):
    """(output, x_hat): the layer-norm formula in numpy, in the op's order."""
    n = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    x_hat = centered * (var + 1e-5) ** -0.5
    out = x_hat if gain is None else x_hat * gain
    return (out if bias is None else out + bias), x_hat


def test_layer_norm_is_one_tape_node_over_x_gain_and_bias():
    x, gain, bias = (Tensor(a, requires_grad=True)
                     for a in _layer_norm_case((2, 3, 4)))
    out = T.layer_norm(x, gain, bias)
    assert len(out._parents) == 3
    assert all(p is q for p, q in zip(out._parents, (x, gain, bias)))
    plain = T.layer_norm(x)
    assert len(plain._parents) == 1 and plain._parents[0] is x


@pytest.mark.parametrize("affine", [True, False], ids=["affine", "plain"])
def test_layer_norm_forward_is_bitwise_the_plain_formula(affine):
    x, gain, bias = _layer_norm_case((3, 5, 6))
    want, _ = _layer_norm_plain(x, *((gain, bias) if affine else ()))
    args = (Tensor(gain), Tensor(bias)) if affine else ()
    assert np.array_equal(T.layer_norm(Tensor(x), *args).data, want)


def test_layer_norm_affine_gradients_are_bitwise_the_sums():
    x, gain, bias = _layer_norm_case((3, 5, 6))
    g = np.random.default_rng(38).standard_normal(x.shape)
    out = T.layer_norm(*(Tensor(a, requires_grad=True) for a in (x, gain, bias)))
    _, g_gain, g_bias = out._backward(g)
    _, x_hat = _layer_norm_plain(x)
    assert np.array_equal(g_gain, T._unbroadcast(g * x_hat, gain.shape))
    assert np.array_equal(g_bias, T._unbroadcast(g, bias.shape))


@pytest.mark.parametrize("shape, affine", [((2, 3, 5), True),
                                           ((2, 3, 2, 5), False)],
                         ids=["affine-BTd", "plain-BTnd"])
def test_layer_norm_passes_grad_check(shape, affine):
    x, gain, bias = _layer_norm_case(shape)
    coef = Tensor(np.random.default_rng(39).standard_normal(shape))
    params = {"x": Tensor(x, requires_grad=True)}
    if affine:
        params |= {"gain": Tensor(gain, requires_grad=True),
                   "bias": Tensor(bias, requires_grad=True)}
    report = TR.grad_check(
        lambda: T.tsum(T.mul(T.layer_norm(*params.values()), coef)), params)
    assert report["max_rel_error"] < 1e-4      # verify's op tolerance


def test_serialization_round_trip():
    rng = np.random.default_rng(29)
    t = Tensor(rng.standard_normal((2, 3, 4)))
    buf = T.serialize_tensor(t)
    # header: rank then dims, little-endian u32
    assert buf[:4] == (3).to_bytes(4, "little")
    back, offset = T.deserialize_tensor(buf)
    assert offset == len(buf)
    assert back.shape == t.shape
    assert np.array_equal(back.data, t.data)


def test_no_grad_suppresses_tape():
    p = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        out = T.mul(p, p)
    assert out._backward is None and not out.requires_grad


def test_allocation_tracking_peak():
    # tensor buffers are plain numpy allocations, which tracemalloc sees
    assert peak_bytes(lambda: Tensor(np.zeros(1000))) >= 8000
    assert not tracemalloc.is_tracing()


def _gather_weighted_case(seed=31, B=2, H=3, T_q=7, T_k=5, K=4, D=5):
    """alpha, x, an index with repeated keys in every row, and output
    weights for a scalar loss."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0, 1, (B, H, T_q, K))
    x = rng.standard_normal((B, H, T_k, D))
    idx = rng.integers(0, T_k, (B, H, T_q, K))
    idx[..., 1] = idx[..., 0]
    return alpha, x, idx, rng.standard_normal((B, H, T_q, D))


def _gather_weighted_run(alpha, x, idx, coef):
    """(output, d alpha, d x) of the loss."""
    pa = Tensor(alpha.copy(), requires_grad=True)
    px = Tensor(x.copy(), requires_grad=True)
    out = T.gather_weighted(pa, px, idx)
    T.tsum(T.mul(out, Tensor(coef))).backward()
    return out.data, pa.grad, px.grad


def test_gather_weighted_matches_gather_and_sum_and_its_gradients():
    alpha, x, idx, coef = _gather_weighted_case()
    out, ga, gx = _gather_weighted_run(alpha, x, idx, coef)
    oracle = (alpha[..., None] * np.take_along_axis(
        x[:, :, None], idx[..., None], axis=3)).sum(axis=3)
    assert out.shape == oracle.shape
    assert np.abs(out - oracle).max() < 1e-12

    def f(a, v):
        return T.tsum(T.mul(T.gather_weighted(Tensor(a), Tensor(v), idx),
                            Tensor(coef))).item()

    assert max_rel_error(ga, central_difference(lambda a: f(a, x), alpha.copy())) < 1e-4
    assert max_rel_error(gx, central_difference(lambda v: f(alpha, v), x.copy())) < 1e-4


def test_gather_weighted_shape_error_names_the_shapes():
    alpha, x, idx, _ = _gather_weighted_case()
    with pytest.raises(T.ShapeError, match=r"\(2, 3, 7, 4\).*\(1, 3, 5, 5\)"):
        T.gather_weighted(Tensor(alpha), Tensor(x[:1]), idx)


@pytest.mark.parametrize("rows", [1, 4, 10 ** 6],
                         ids=["one_row", "ragged", "whole"])
def test_gather_weighted_is_bitwise_the_same_for_any_chunk(monkeypatch, rows):
    case = _gather_weighted_case()      # 42 query rows, K * D = 20
    want = _gather_weighted_run(*case)
    monkeypatch.setattr(T, "_VALUE_CHUNK", rows * 20)
    got = _gather_weighted_run(*case)
    for w, g in zip(want, got):
        assert np.array_equal(w, g)


def test_gather_weighted_tape_and_no_grad_are_bitwise_equal():
    alpha, x, idx, _ = _gather_weighted_case()
    taped = T.gather_weighted(Tensor(alpha, requires_grad=True),
                              Tensor(x, requires_grad=True), idx)
    with T.no_grad():
        plain = T.gather_weighted(Tensor(alpha), Tensor(x), idx)
    assert taped.requires_grad and not plain.requires_grad
    assert np.array_equal(taped.data, plain.data)


def test_gather_weighted_never_holds_the_gathered_values():
    # the attention tail of a T=1024, top-k 32 layer: 4 heads of width 16
    B, H, T_q, K, D = 1, 4, 1024, 32, 16
    rng = np.random.default_rng(34)
    alpha = Tensor(rng.uniform(0, 1, (B, H, T_q, K)), requires_grad=True)
    x = Tensor(rng.standard_normal((B, H, T_q, D)), requires_grad=True)
    idx = rng.integers(0, T_q, (B, H, T_q, K))
    v_sel_bytes = B * H * T_q * K * D * 8
    assert v_sel_bytes >= 16 * 2 ** 20
    with T.no_grad():
        peak = peak_bytes(lambda: T.gather_weighted(alpha, x, idx))
    assert peak < v_sel_bytes
    out = T.gather_weighted(alpha, x, idx)
    g = rng.standard_normal(out.shape)
    assert peak_bytes(lambda: out._backward(g)) < v_sel_bytes
