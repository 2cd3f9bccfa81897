"""Hyper-connection stream mixing and its reduction properties."""

import numpy as np
import pytest

import conftest
from conftest import max_rel_error, weighted_run
from fluid import hyper as HC
from fluid import tensor as T
from fluid import training as TR
from fluid.tensor import Tensor


def _norm_rows(x, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) * (var + eps) ** -0.5


def _params(n, d=3):
    return HC.HcParams(n, d, np.random.default_rng(0))


def test_aggregate_single_stream_is_identity():
    H = Tensor(np.random.default_rng(0).standard_normal((2, 1, 3)))
    params = _params(1)
    out = HC.hc_aggregate(params.A_m, H)
    assert np.array_equal(out.data, H.data[:, 0, :])


def test_aggregate_equal_streams_average():
    row = np.random.default_rng(1).standard_normal(4)
    H = Tensor(np.stack([row, row])[None])
    params = _params(2)  # A_m defaults to [1/2, 1/2]
    out = HC.hc_aggregate(params.A_m, H)
    assert np.allclose(out.data[0], row, atol=1e-15)


def test_aggregate_matches_hand_matrix_product():
    rng = np.random.default_rng(2)
    H = rng.standard_normal((2, 3))
    A_m = rng.standard_normal(2)
    params = _params(2)
    params.A_m.data[...] = A_m
    out = HC.hc_aggregate(params.A_m, Tensor(H))
    assert np.allclose(out.data, A_m @ H, atol=1e-14)


def test_combine_unit_params_is_standard_residual():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 5, 3))
    params = _params(1)
    H = HC.expand_streams(Tensor(x), 1)

    layer_out = Tensor(np.tanh(x))
    combined = HC.hc_combine(params.B, params.A_r, H, layer_out)
    assert np.array_equal(combined.data[..., 0, :], x + np.tanh(x))


def test_combine_zero_b_ignores_layer():
    rng = np.random.default_rng(4)
    H = rng.standard_normal((1, 2, 3))
    params = _params(2)
    params.B.data[...] = 0.0
    A_r = rng.standard_normal((2, 2))
    params.A_r.data[...] = A_r
    out = HC.hc_combine(params.B, params.A_r, Tensor(H),
                        Tensor(rng.standard_normal((1, 3))))
    assert np.allclose(out.data, np.swapaxes(A_r, 0, 1) @ H, atol=1e-14)


def test_combine_matches_hand_computation():
    B = np.array([0.5, -1.0])
    A_r = np.array([[0.2, 0.3], [-0.1, 0.4]])
    H = np.array([[[1.0, 2.0], [3.0, -1.0]]])
    layer_out = np.array([[0.5, 0.25]])
    params = _params(2)
    params.B.data[...] = B
    params.A_r.data[...] = A_r
    out = HC.hc_combine(params.B, params.A_r, Tensor(H), Tensor(layer_out))
    expected = B[:, None] * layer_out[0] + A_r.T @ H[0]
    assert np.allclose(out.data[0], expected, atol=1e-14)


def test_liquid_zero_scale_reduces_to_static_bitwise():
    rng = np.random.default_rng(5)
    params = HC.HcParams(n=2, d=3, rng=rng)
    params.s_b.data[...] = 0.0
    params.s_a.data[...] = 0.0
    X = Tensor(rng.standard_normal((2, 4, 2, 3)))
    B_eff, Am_eff, Ar_eff = HC.hc_liquid_params(params, X)
    assert np.array_equal(np.broadcast_to(params.B.data, B_eff.shape), B_eff.data)
    assert np.array_equal(np.broadcast_to(params.A_m.data, Am_eff.shape), Am_eff.data)
    assert np.array_equal(np.broadcast_to(params.A_r.data, Ar_eff.shape), Ar_eff.data)


def test_liquid_zero_projection_weights_reduce_to_static():
    rng = np.random.default_rng(6)
    params = HC.HcParams(n=2, d=3, rng=rng)
    for w in (params.W_b, params.W_m, params.W_r):
        w.data[...] = 0.0
    X = Tensor(rng.standard_normal((1, 2, 3)))
    B_eff, Am_eff, Ar_eff = HC.hc_liquid_params(params, X)
    assert np.array_equal(np.broadcast_to(params.B.data, B_eff.shape), B_eff.data)
    assert np.array_equal(np.broadcast_to(params.A_r.data, Ar_eff.shape), Ar_eff.data)


def test_liquid_params_match_scripted_oracle():
    rng = np.random.default_rng(7)
    params = HC.HcParams(n=2, d=2, rng=rng)
    X = rng.standard_normal((2, 2))  # [n, d]
    B_eff, Am_eff, Ar_eff = HC.hc_liquid_params(params, Tensor(X))

    Xn = _norm_rows(X)
    b = params.B.data + params.s_b.data * np.tanh(Xn @ params.W_b.data)[:, 0]
    am = params.A_m.data + params.s_a.data * np.tanh(Xn @ params.W_m.data)[:, 0]
    ar = params.A_r.data + params.s_a.data * np.tanh(Xn @ params.W_r.data)
    assert np.allclose(B_eff.data, b, atol=1e-12)
    assert np.allclose(Am_eff.data, am, atol=1e-12)
    assert np.allclose(Ar_eff.data, ar, atol=1e-12)


def test_finalize_single_stream_is_layer_norm():
    rng = np.random.default_rng(8)
    H = rng.standard_normal((2, 1, 4))
    out = HC.hc_network_finalize(Tensor(H))
    expected = T.layer_norm(Tensor(H[:, 0, :]))
    assert np.array_equal(out.data, expected.data)


def test_finalize_scale_invariance_of_identical_streams():
    rng = np.random.default_rng(9)
    row = rng.standard_normal((3, 4))
    one = HC.hc_network_finalize(Tensor(row[:, None, :]))
    two = HC.hc_network_finalize(Tensor(np.stack([row, row], axis=1)))
    # exact up to the layer-norm epsilon, which breaks perfect scale invariance
    assert np.allclose(one.data, two.data, rtol=1e-4, atol=1e-7)


def test_finalize_matches_oracle():
    rng = np.random.default_rng(10)
    H = rng.standard_normal((2, 3, 4))
    out = HC.hc_network_finalize(Tensor(H))
    assert np.allclose(out.data, _norm_rows(H.sum(axis=1)), atol=1e-12)


def test_block_n1_unit_params_bitwise_equals_residual():
    rng = np.random.default_rng(11)
    x = Tensor(rng.standard_normal((2, 5, 3)))
    params = _params(1)

    def sublayer(t):
        return T.tanh(t)

    H = HC.expand_streams(x, 1)
    block = HC.hc_combine(params.B, params.A_r, H,
                          sublayer(HC.hc_aggregate(params.A_m, H)))
    hc_out = HC.hc_network_finalize(block)
    residual = T.layer_norm(T.add(x, sublayer(x)))
    assert np.array_equal(hc_out.data, residual.data)


def test_liquid_block_zero_scale_bitwise_equals_static_block():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((2, 4, 3)))

    # the static block's fixed weights, copied into a zero-scale liquid one
    B, A_m, A_r = (Tensor(rng.standard_normal(shape)) for shape in (2, 2, (2, 2)))
    liquid = HC.HcParams(n=2, d=3, rng=np.random.default_rng(13))
    liquid.s_b.data[...] = 0.0
    liquid.s_a.data[...] = 0.0
    for name, static in (("B", B), ("A_m", A_m), ("A_r", A_r)):
        getattr(liquid, name).data[...] = static.data

    def sublayer(t):
        return T.sigmoid(t)

    H = HC.expand_streams(x, 2)
    out_static = HC.hc_combine(B, A_r, H, sublayer(HC.hc_aggregate(A_m, H)))
    out_liquid = HC.hc_block(liquid, H, sublayer)
    assert np.array_equal(out_static.data, out_liquid.data)


def test_width_depth_decomposition_equals_monolithic_matrix():
    # monolithic: [x0; H_hat] stacked = HC_matrix^T [z; H] with z = L(x0)
    rng = np.random.default_rng(14)
    n, d = 3, 4
    params = _params(n)
    params.B.data[...] = rng.standard_normal(n)
    params.A_m.data[...] = rng.standard_normal(n)
    params.A_r.data[...] = rng.standard_normal((n, n))
    H = rng.standard_normal((n, d))

    x0 = HC.hc_aggregate(params.A_m, Tensor(H)).data
    z = np.tanh(x0)
    combined = HC.hc_combine(params.B, params.A_r, Tensor(H), Tensor(z)).data

    mono = np.zeros((n + 1, n + 1))
    mono[0, 1:] = params.B.data
    mono[1:, 0] = params.A_m.data
    mono[1:, 1:] = params.A_r.data
    stacked = np.concatenate([z[None, :], H], axis=0)
    result = mono.T @ stacked
    assert np.allclose(result[0], x0, atol=1e-12)
    assert np.allclose(result[1:], combined, atol=1e-12)

    # the WC / DC summaries expose the same pieces
    wc = np.concatenate([params.A_m.data[:, None], params.A_r.data], axis=1)
    width = wc.T @ H
    assert np.allclose(width[0], x0, atol=1e-12)
    assert np.allclose(params.B.data[:, None] * z[None, :] + width[1:],
                       combined, atol=1e-12)


def _mixing_case(op: str, liquid: bool):
    """Operands of ``hc_aggregate`` or ``hc_combine`` over H [2,5,3,4]:
    static weights [n] and [n,n], or liquid ones [2,5,n] and [2,5,n,n];
    and a weighting of the output for a scalar loss."""
    rng = np.random.default_rng(41)
    lead, n, d = (2, 5), 3, 4
    w = lead if liquid else ()
    shapes = {"aggregate": {"A_m": w + (n,), "H": lead + (n, d)},
              "combine": {"B": w + (n,), "A_r": w + (n, n),
                          "H": lead + (n, d), "layer_out": lead + (d,)}}[op]
    out_shape = lead + ((d,) if op == "aggregate" else (n, d))
    return ({k: rng.standard_normal(s) for k, s in shapes.items()},
            rng.standard_normal(out_shape))


MIXING = [(op, liquid) for op in ("aggregate", "combine")
          for liquid in (False, True)]
MIXING_IDS = [f"{op}-{'liquid' if liquid else 'static'}" for op, liquid in MIXING]


@pytest.mark.parametrize("op, liquid", MIXING, ids=MIXING_IDS)
def test_stream_mixing_passes_grad_check(op, liquid):
    arrays, coef = _mixing_case(op, liquid)
    params = {k: Tensor(a, requires_grad=True) for k, a in arrays.items()}
    fn = getattr(HC, "hc_" + op)
    report = TR.grad_check(
        lambda: T.tsum(T.mul(fn(*params.values()), Tensor(coef))), params)
    assert report["max_rel_error"] < 1e-4      # verify's op tolerance


@pytest.mark.parametrize("op, liquid", MIXING, ids=MIXING_IDS)
def test_stream_mixing_is_the_composition_on_one_tape_node(op, liquid):
    arrays, coef = _mixing_case(op, liquid)
    fused, fused_grads = weighted_run(getattr(HC, "hc_" + op),
                                      arrays.values(), coef)
    composed, composed_grads = weighted_run(getattr(conftest, "hc_" + op),
                                            arrays.values(), coef)
    assert np.array_equal(fused, composed)
    for g, want in zip(fused_grads, composed_grads):
        assert max_rel_error(g, want) <= 1e-15
    params = [Tensor(a, requires_grad=True) for a in arrays.values()]
    node = getattr(HC, "hc_" + op)(*params)
    assert all(p is q for p, q in zip(node._parents, params, strict=True))


def test_expansion_rate_must_be_positive():
    with pytest.raises(ValueError):
        _params(0)
