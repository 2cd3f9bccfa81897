"""Encoder-decoder assembly: positional encoding, causality, reductions,
checkpoints, and the plain-attention reproduction property."""

import json
import os

import numpy as np
import pytest
from conftest import narrow

from fluid import attention as A
from fluid import data as D
from fluid import model as M
from fluid import reference as R
from fluid import tensor as T
from fluid import training as TR
from fluid.tensor import Tensor


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _cfg(**kw):
    lan_kw = dict(d_model=8, heads=2, euler_steps=2, top_k=None,
                  sink_gate_enabled=False, causal=False)
    for key in list(kw):
        if key in lan_kw:
            lan_kw[key] = kw.pop(key)
    base = dict(lan=A.LanConfig(**lan_kw), n_layers=1, ffn_dim=16,
                hc_mode="residual", hc_streams=1, in_features=2, out_dim=2,
                max_len=64, seed=0)
    base.update(kw)
    return M.ModelConfig(**base)


# --------------------------------------------------------------------------
# positional encoding
# --------------------------------------------------------------------------

def test_positional_encoding_row_zero():
    pe = M.positional_encoding(4, 6).data
    assert np.array_equal(pe[0, 0::2], np.zeros(3))
    assert np.array_equal(pe[0, 1::2], np.ones(3))


def test_positional_encoding_first_column_is_sin_pos():
    pe = M.positional_encoding(5, 8).data
    assert np.allclose(pe[:, 0], np.sin(np.arange(5)), atol=1e-15)


def test_positional_encoding_spot_values():
    pe = M.positional_encoding(8, 8).data
    for i in range(4):
        angle = 7 / 10000 ** (2 * i / 8)
        assert np.isclose(pe[7, 2 * i], np.sin(angle), atol=1e-15)
        assert np.isclose(pe[7, 2 * i + 1], np.cos(angle), atol=1e-15)


def test_positional_encoding_rejects_odd_width():
    with pytest.raises(ValueError):
        M.positional_encoding(4, 5)


# --------------------------------------------------------------------------
# encoder / decoder
# --------------------------------------------------------------------------

def test_encoder_zero_layers_is_identity():
    model = M.FluidModel(_cfg(n_layers=0))
    x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 8)))
    out = model.encoder_forward(x)
    assert out is x


def test_decoder_t1_masking_is_vacuous():
    model = M.FluidModel(_cfg(seed=4))
    layer = model.decoder_layers[0]
    rng = np.random.default_rng(5)
    y = Tensor(rng.standard_normal((1, 1, 8)))
    z = Tensor(rng.standard_normal((1, 3, 8)))
    masked = layer.forward(y, z).data.copy()

    causal_cfg = layer.self_attn.cfg
    layer.self_attn.cfg = A.LanConfig(**{**causal_cfg.__dict__, "causal": False})
    unmasked = layer.forward(y, z).data
    assert np.array_equal(masked, unmasked)


def test_decoder_causality_under_perturbation():
    # clamp inactive at init scale, so future tokens cannot leak backwards
    model = M.FluidModel(_cfg(seed=6))
    rng = np.random.default_rng(7)
    y = rng.standard_normal((1, 4, 8))
    z = Tensor(rng.standard_normal((1, 4, 8)))
    base = model.decoder_forward(Tensor(y), z).data.copy()
    y_pert = y.copy()
    y_pert[0, 3] += 0.5
    pert = model.decoder_forward(Tensor(y_pert), z).data
    assert np.array_equal(base[0, :3], pert[0, :3])
    assert not np.allclose(base[0, 3], pert[0, 3])


def test_decoder_causality_via_gradients():
    model = M.FluidModel(_cfg(seed=8))
    rng = np.random.default_rng(9)
    y = Tensor(rng.standard_normal((1, 4, 8)), requires_grad=True)
    z = Tensor(rng.standard_normal((1, 4, 8)))
    out = model.decoder_forward(y, z)
    # scalar built from position 1 only, weighted to avoid the degenerate
    # zero-sum of a normalized row
    coef = Tensor(rng.standard_normal((1, 1, 8)))
    T.tsum(T.mul(narrow(out, 1, 1, 1), coef)).backward()
    assert np.abs(y.grad[0, 2]).max() == 0.0
    assert np.abs(y.grad[0, 3]).max() == 0.0
    assert np.abs(y.grad[0, :2]).max() > 0.0


# --------------------------------------------------------------------------
# model forward
# --------------------------------------------------------------------------

def test_model_output_shape_contract():
    model = M.FluidModel(_cfg(seed=10))
    rng = np.random.default_rng(11)
    out = model.forward(values=rng.standard_normal((3, 5, 2)),
                        times=np.sort(rng.uniform(0, 1, (3, 5)), axis=1),
                        query_times=np.sort(rng.uniform(1, 2, (3, 4)), axis=1))
    assert out.shape == (3, 4, 2)


def test_model_forward_records_every_attention_block(monkeypatch):
    model = M.FluidModel(_cfg(seed=10, n_layers=2))
    rng = np.random.default_rng(11)
    mask = np.ones((3, 5), dtype=bool)
    mask[1, -2:] = False
    weights, attend = [], A.attend

    def spy(*args, **kwargs):
        result = attend(*args, **kwargs)
        weights.append(result[1].shape)
        return result

    monkeypatch.setattr(A, "attend", spy)
    collect = {}
    model.forward(values=rng.standard_normal((3, 5, 2)),
                  times=np.sort(rng.uniform(0, 1, (3, 5)), axis=1),
                  query_times=np.sort(rng.uniform(1, 2, (3, 4)), axis=1),
                  mask=mask, collect=collect)
    # encoder self-attention at the top level, the decoder's two blocks
    # under their names; pairs [B, H, T_q, T_k]
    for trajs, pairs_shape in ((collect["trajectories"], (3, 2, 5, 5)),
                               (collect["self"]["trajectories"], (3, 2, 4, 4)),
                               (collect["cross"]["trajectories"], (3, 2, 4, 5))):
        assert len(trajs) == 2
        assert all(t.f_tau.shape == pairs_shape + (2,) for t in trajs)
    assert set(collect) == {"trajectories", "self", "cross"}
    # the encoder's blocks run first, then each decoder layer's two
    assert weights == [(3, 2, 5, 5)] * 2 + [(3, 2, 4, 4), (3, 2, 4, 5)] * 2


def test_model_zero_weights_predict_output_bias():
    model = M.FluidModel(_cfg(seed=12))
    for name, p in model.parameters().items():
        p.data[...] = 0.0
    bias = np.array([0.7, -1.3])
    model.b_o.data[...] = bias
    rng = np.random.default_rng(13)
    out = model.forward(values=rng.standard_normal((2, 3, 2)),
                        times=np.tile(np.arange(3.0), (2, 1)),
                        query_times=np.tile(np.arange(2.0), (2, 1)))
    assert np.allclose(out.data, bias, atol=1e-12)


def test_model_rejects_overlong_sequences():
    model = M.FluidModel(_cfg(max_len=4))
    with pytest.raises(ValueError):
        model.forward(values=np.zeros((1, 5, 2)), times=np.zeros((1, 5)),
                      query_times=np.zeros((1, 2)))


def test_model_names_a_feature_count_mismatch():
    model = M.FluidModel(_cfg())
    with pytest.raises(ValueError) as err:
        model.forward(values=np.zeros((1, 5, 3)),
                      times=np.arange(5.0)[None], query_times=np.ones((1, 2)))
    assert str(err.value) == "values have 3 features; the model takes 2"


@pytest.mark.parametrize("kw", [
    {}, {"top_k": 3}, {"hc_mode": "liquid", "hc_streams": 2},
    {"hc_mode": "liquid", "hc_streams": 2, "n_layers": 2, "top_k": 3},
], ids=["full", "top-k", "liquid", "liquid-two-layers-top-k"])
def test_no_grad_forward_and_evaluate_match_the_tape(kw):
    data = D.spiral_arrays(D.generate_spirals(
        D.SpiralSpec(n_spirals=5, n_points=30, n_subsample=12, seed=4)))
    assert not data["mask"].all() and not data["target_mask"].all()
    model = M.FluidModel(_cfg(seed=6, **kw))
    batch = [data[key] for key in ("values", "times", "query_times", "mask")]
    taped = model.forward(*batch)
    assert taped._backward is not None
    with T.no_grad():
        free = model.forward(*batch)
    assert free._backward is None
    np.testing.assert_array_equal(free.data, taped.data)
    for metric in ("mae", "mse"):
        assert TR.evaluate(model, data, metric) == TR.loss(
            metric, taped, data["targets"], data["target_mask"]).item()


@pytest.mark.parametrize("field, value, problem", [
    ("in_features", 0, "in_features must be >= 1"),
    ("out_dim", 0, "out_dim must be >= 1"),
    ("max_len", 0, "max_len must be >= 1"),
    ("euler_steps", 0, "euler_steps must be >= 1"),
    ("seed", -1, "seed must be >= 0"),
    ("sink_gate_enabled", "no", "sink_gate_enabled must be true or false"),
    ("causal", 1, "causal must be true or false"),
])
def test_config_rejects_a_bad_field_at_construction(field, value, problem):
    with pytest.raises(ValueError, match=problem):
        _cfg(**{field: value})


@pytest.mark.parametrize("make, message", [
    (lambda: A.LanConfig(d_model=8, heads=0), "heads must be >= 1"),
    (lambda: A.LanConfig(d_model=0, heads=0, top_k=0),
     "d_model, heads, top_k must be >= 1"),
    (lambda: _cfg(n_layers=-1, ffn_dim=0, hc_mode="liquid", hc_streams=0),
     "ffn_dim, hc_streams must be >= 1"),
    (lambda: TR.TrainConfig(epochs=-1, batch_size=0), "batch_size must be >= 1"),
    (lambda: TR.TrainConfig(epochs=-1, seed=-2), "epochs, seed must be >= 0"),
    # AdamW would grow every weight by lr a step
    (lambda: TR.TrainConfig(weight_decay=-1.0), "weight_decay must be >= 0"),
    # a negative bound would turn clipping off, as 0 does
    (lambda: TR.TrainConfig(grad_clip=-1.0), "grad_clip must be >= 0"),
], ids=["lan-heads", "lan-three", "model", "train-ones", "train-zeros",
        "train-weight-decay", "train-grad-clip"])
def test_bound_errors_name_exactly_the_fields_out_of_bounds(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


_REAL_FIELDS = {
    "lr": lambda v: TR.TrainConfig(lr=v),
    "weight_decay": lambda v: TR.TrainConfig(weight_decay=v),
    "grad_clip": lambda v: TR.TrainConfig(grad_clip=-v),
    "noise_std": lambda v: D.SpiralSpec(noise_std=v),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", list(_REAL_FIELDS))
def test_real_config_fields_must_be_finite(field, value):
    # NaN passes every bound check by comparison, and inf saturates what
    # it scales
    with pytest.raises(ValueError) as err:
        _REAL_FIELDS[field](value)
    assert str(err.value).startswith(f"{field} must be a finite number, not ")
    assert TR.TrainConfig(grad_clip=0).grad_clip == 0   # clipping off


def test_embedding_shared_between_encoder_and_decoder():
    model = M.FluidModel(_cfg(seed=14))
    params = model.parameters()
    names = [n for n in params if n.startswith("embed.")]
    assert sorted(names) == ["embed.W", "embed.b"]
    # every named tensor is a distinct object: nothing is double-counted
    ids = [id(p) for p in params.values()]
    assert len(ids) == len(set(ids))

    rng = np.random.default_rng(15)
    values = rng.standard_normal((1, 3, 2))
    times = np.tile(np.arange(3.0), (1, 1))
    qt = np.tile(np.arange(2.0), (1, 1))
    base_z = model.encoder_forward(model.embed(values, times)).data.copy()
    base_y = model.embed(np.zeros((1, 2, 2)), qt).data.copy()
    model.W_e.data[...] += 0.1
    assert not np.allclose(model.encoder_forward(model.embed(values, times)).data,
                           base_z)
    assert not np.allclose(model.embed(np.zeros((1, 2, 2)), qt).data, base_y)


# --------------------------------------------------------------------------
# hyper-connection wiring inside the model
# --------------------------------------------------------------------------

def test_static_hc_n1_unit_params_matches_residual_model():
    res = M.FluidModel(_cfg(seed=16, hc_mode="residual"))
    # the static block is the liquid one at zero scale; n = 1 starts with
    # unit B, A_m and A_r
    hc = M.FluidModel(_cfg(seed=16, hc_mode="liquid", hc_streams=1))
    # same init draw order except the hc params; align shared tensors
    res_params = res.parameters()
    for name, p in hc.parameters().items():
        if name.endswith(("hc.s_b", "hc.s_a")):
            p.data[...] = 0.0
        elif name in res_params:
            p.data[...] = res_params[name].data
    rng = np.random.default_rng(17)
    values = rng.standard_normal((2, 4, 2))
    times = np.tile(np.arange(4.0), (2, 1))
    qt = np.tile(np.arange(2.0), (2, 1))
    out_res = res.forward(values, times, qt).data
    out_hc = hc.forward(values, times, qt).data
    # hc stack also applies the final sum+norm; compare pre-head states via
    # the encoder only, which differs exactly by that finalize step
    z_res = res.encoder_forward(res.embed(values, times))
    z_hc = hc.encoder_forward(hc.embed(values, times))
    from fluid import hyper as HC
    finalized = HC.hc_network_finalize(T.reshape(
        z_res, z_res.shape[:-1] + (1, z_res.shape[-1])))
    assert np.array_equal(z_hc.data, finalized.data)
    assert out_res.shape == out_hc.shape


def test_liquid_hc_zero_scale_matches_static_hc():
    # the static block, B, A_m and A_r fixed, is also the liquid one with
    # zero projections: tanh(0) = 0 adds nothing at any scale
    static = M.FluidModel(_cfg(seed=18, hc_mode="liquid", hc_streams=2))
    liquid = M.FluidModel(_cfg(seed=18, hc_mode="liquid", hc_streams=2))
    for name, p in static.parameters().items():
        if name.endswith(("hc.W_b", "hc.W_m", "hc.W_r")):
            p.data[...] = 0.0
    for name, p in liquid.parameters().items():
        if name.endswith(("hc.s_b", "hc.s_a")):
            p.data[...] = 0.0
    rng = np.random.default_rng(19)
    values = rng.standard_normal((1, 3, 2))
    times = np.tile(np.arange(3.0), (1, 1))
    qt = np.tile(np.arange(2.0), (1, 1))
    assert np.array_equal(static.forward(values, times, qt).data,
                          liquid.forward(values, times, qt).data)


# --------------------------------------------------------------------------
# plain-attention reproduction (frozen gates, residual mode, sink off)
# --------------------------------------------------------------------------

def sdpa_transformer_forward(model: M.FluidModel, values, times, query_times):
    """Straight-line numpy re-implementation of the whole model with
    standard scaled dot-product logits."""
    cfg = model.cfg
    d = cfg.lan.d_model

    def layer_norm(x, gain, bias):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) * (var + 1e-5) ** -0.5 * gain + bias

    def mha(block, x_q, x_k, x_v, causal=False):
        parts = []
        for h in range(block.cfg.heads):
            q = x_q @ block.W_q.data[h, 0] + block.b_q.data[h, 0, 0]
            k = x_k @ block.W_k.data[h, 0] + block.b_k.data[h, 0, 0]
            v = x_v @ block.W_v.data[h, 0] + block.b_v.data[h, 0, 0]
            D = q.shape[-1]
            logits = np.einsum("bqd,bkd->bqk", q, k) / np.sqrt(D)
            if causal:
                T_q, T_k = logits.shape[1], logits.shape[2]
                inv = np.arange(T_k)[None, :] > np.arange(T_q)[:, None]
                logits = np.where(inv[None], -np.inf, logits)
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            alpha = e / e.sum(axis=-1, keepdims=True)
            parts.append(np.einsum("bqk,bkd->bqd", alpha, v))
        cat = np.concatenate(parts, axis=-1)
        return cat @ block.W_g.data + block.b_g.data

    def ffn(f, x):
        return np.maximum(x @ f.W1.data + f.b1.data, 0) @ f.W2.data + f.b2.data

    feats = np.concatenate([values, times[..., None]], axis=-1)
    x = feats @ model.W_e.data + model.b_e.data + model.pos.data[:values.shape[1]]
    for layer in model.encoder_layers:
        h = layer_norm(x + mha(layer.attn, x, x, x),
                       layer.sub_attn.norm.gain.data, layer.sub_attn.norm.bias.data)
        x = layer_norm(h + ffn(layer.ffn, h),
                       layer.sub_ffn.norm.gain.data, layer.sub_ffn.norm.bias.data)
    z = x

    zeros = np.zeros(query_times.shape + (model.cfg.in_features,))
    yfeat = np.concatenate([zeros, query_times[..., None]], axis=-1)
    y = yfeat @ model.W_e.data + model.b_e.data + model.pos.data[:query_times.shape[1]]
    for layer in model.decoder_layers:
        h1 = layer_norm(y + mha(layer.self_attn, y, y, y, causal=True),
                        layer.sub_self.norm.gain.data, layer.sub_self.norm.bias.data)
        h2 = layer_norm(h1 + mha(layer.cross_attn, h1, z, z),
                        layer.sub_cross.norm.gain.data, layer.sub_cross.norm.bias.data)
        y = layer_norm(h2 + ffn(layer.ffn, h2),
                       layer.sub_ffn.norm.gain.data, layer.sub_ffn.norm.bias.data)
    return y @ model.W_o.data + model.b_o.data


def _frozen(model):
    """``model`` with every attention block on the attention limit's gates."""
    for layer in model.encoder_layers:
        layer.attn.core = R.FrozenGates()
    for layer in model.decoder_layers:
        layer.self_attn.core = layer.cross_attn.core = R.FrozenGates()
    return model


def test_frozen_gate_model_reproduces_sdpa_transformer():
    model = _frozen(M.FluidModel(_cfg(seed=20, euler_steps=5)))
    rng = np.random.default_rng(21)
    values = rng.standard_normal((2, 4, 2))
    times = np.tile(np.arange(4.0), (2, 1))
    qt = np.tile(np.arange(3.0), (2, 1))
    collect = {}
    ours = model.forward(values, times, qt, collect=collect).data
    reference = sdpa_transformer_forward(model, values, times, qt)
    assert np.abs(ours - reference).max() < 1e-5
    # every block takes the limit's one step at dt = 1, whatever the
    # configured step count
    trajs = [t for block in (collect, collect["self"], collect["cross"])
             for t in block["trajectories"]]
    assert len(trajs) == 3
    assert all(t.a.shape[-1] == 2 and t.dt_effective == t.dt_nominal == 1.0
               for t in trajs)


def test_frozen_gate_encoder_layer_matches_sdpa_layer_closely():
    model = _frozen(M.FluidModel(_cfg(seed=22)))
    rng = np.random.default_rng(23)
    values = rng.standard_normal((1, 4, 2))
    times = np.tile(np.arange(4.0), (1, 1))
    x = model.embed(values, times)
    z = model.encoder_forward(x).data

    ref = sdpa_transformer_forward.__wrapped__ if hasattr(
        sdpa_transformer_forward, "__wrapped__") else None
    # reuse the straight-line helper pieces by calling the full function on a
    # decoder-free path: compare against its encoder section via a 0-query run
    full = sdpa_transformer_forward(model, values, times, np.zeros((1, 1)))
    assert full.shape == (1, 1, 2)
    # direct check: encoder output itself
    feats = np.concatenate([values, times[..., None]], axis=-1)
    xe = feats @ model.W_e.data + model.b_e.data + model.pos.data[:4]
    layer = model.encoder_layers[0]
    def layer_norm(a, gain, bias):
        mu = a.mean(axis=-1, keepdims=True)
        var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
        return (a - mu) * (var + 1e-5) ** -0.5 * gain + bias
    parts = []
    for h in range(layer.attn.cfg.heads):
        q = xe @ layer.attn.W_q.data[h, 0] + layer.attn.b_q.data[h, 0, 0]
        k = xe @ layer.attn.W_k.data[h, 0] + layer.attn.b_k.data[h, 0, 0]
        v = xe @ layer.attn.W_v.data[h, 0] + layer.attn.b_v.data[h, 0, 0]
        D = q.shape[-1]
        logits = np.einsum("bqd,bkd->bqk", q, k) / np.sqrt(D)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        alpha = e / e.sum(axis=-1, keepdims=True)
        parts.append(np.einsum("bqk,bkd->bqd", alpha, v))
    mh = np.concatenate(parts, axis=-1) @ layer.attn.W_g.data + layer.attn.b_g.data
    h = layer_norm(xe + mh, layer.sub_attn.norm.gain.data,
                   layer.sub_attn.norm.bias.data)
    f = np.maximum(h @ layer.ffn.W1.data + layer.ffn.b1.data, 0)
    f = f @ layer.ffn.W2.data + layer.ffn.b2.data
    expected = layer_norm(h + f, layer.sub_ffn.norm.gain.data,
                          layer.sub_ffn.norm.bias.data)
    assert np.abs(z - expected).max() < 1e-6


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    model = M.FluidModel(_cfg(seed=24, hc_mode="liquid", hc_streams=2,
                              sink_gate_enabled=True))
    path = str(tmp_path / "ckpt")
    M.save_checkpoint(model, path)
    restored = M.load_checkpoint(path)
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, restored.parameters()[name].data), name
    rng = np.random.default_rng(25)
    values = rng.standard_normal((1, 3, 2))
    times = np.tile(np.arange(3.0), (1, 1))
    qt = np.tile(np.arange(2.0), (1, 1))
    assert np.array_equal(model.forward(values, times, qt).data,
                          restored.forward(values, times, qt).data)
    # manifests written while the config had a task field still load, and
    # those with gate_mode at the one gating the model builds
    manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
    manifest["config"]["gate_mode"] = "recurrent"
    for task in ("regression", "classification"):
        manifest["config"]["task"] = task
        (tmp_path / "ckpt" / "manifest.json").write_text(json.dumps(manifest))
        restored = M.load_checkpoint(path)
        assert restored.cfg == model.cfg
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, restored.parameters()[name].data), name


@pytest.mark.parametrize("edit, problem", [
    (lambda c: c.update(dropout=0.1), "unexpected keyword argument 'dropout'"),
    (lambda c: c["lan"].update(width=4), "unexpected keyword argument 'width'"),
    (lambda c: c["lan"].pop("d_model"), "missing 1 required .* 'd_model'"),
    (lambda c: c.pop("lan"), "missing 1 required .* 'd_model'"),
], ids=["unknown", "unknown-lan", "missing-lan-key", "no-lan"])
def test_checkpoint_names_config_keys_that_do_not_fit(tmp_path, edit, problem):
    path = tmp_path / "ckpt"
    M.save_checkpoint(M.FluidModel(_cfg(seed=31)), str(path))
    manifest = json.loads((path / "manifest.json").read_text())
    edit(manifest["config"])
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=problem):
        M.load_checkpoint(str(path))


@pytest.mark.parametrize("key", ["config", "params"])
def test_checkpoint_names_a_missing_manifest_key(tmp_path, key):
    path = tmp_path / "ckpt"
    M.save_checkpoint(M.FluidModel(_cfg(seed=32)), str(path))
    manifest = json.loads((path / "manifest.json").read_text())
    del manifest[key]
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError) as err:
        M.load_checkpoint(str(path))
    assert str(err.value) == f"{path}: manifest has no '{key}'"


def test_checkpoint_reads_its_own_tensor_file(tmp_path):
    # a manifest cannot point the load at a file outside the checkpoint
    model = M.FluidModel(_cfg(seed=29))
    path = tmp_path / "ckpt"
    M.save_checkpoint(model, str(path))
    M.save_checkpoint(M.FluidModel(_cfg(seed=30)), str(tmp_path / "other"))
    (tmp_path / "other.bin").write_bytes((tmp_path / "other" / "tensors.bin")
                                         .read_bytes())
    manifest = json.loads((path / "manifest.json").read_text())
    assert "tensor_file" not in manifest
    manifest["tensor_file"] = "../other.bin"
    (path / "manifest.json").write_text(json.dumps(manifest))
    restored = M.load_checkpoint(str(path))
    for name, p in model.parameters().items():
        assert np.array_equal(p.data, restored.parameters()[name].data), name


def _saved_tensor_file(tmp_path):
    """(checkpoint path, its tensors.bin, that file's bytes, last tensor's size)."""
    model = M.FluidModel(_cfg(seed=26))
    path = str(tmp_path / "ckpt")
    M.save_checkpoint(model, path)
    params = model.parameters()
    last = len(T.serialize_tensor(params[sorted(params)[-1]]))
    blob = tmp_path / "ckpt" / "tensors.bin"
    return path, blob, blob.read_bytes(), last


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path, blob, buf, _ = _saved_tensor_file(tmp_path)
    blob.write_bytes(buf + bytes(8))
    with pytest.raises(ValueError, match="trailing"):
        M.load_checkpoint(path)


@pytest.mark.parametrize("where", ["payload", "header"])
def test_checkpoint_rejects_truncated_file(tmp_path, where):
    path, blob, buf, last = _saved_tensor_file(tmp_path)
    # end 8 bytes short, inside the last payload, or 2 bytes into the last
    # tensor's rank field
    end = len(buf) - 8 if where == "payload" else len(buf) - last + 2
    blob.write_bytes(buf[:end])
    with pytest.raises(ValueError):
        M.load_checkpoint(path)


# fail on the third tensor, or once tensors.bin's bytes are written
@pytest.mark.parametrize("module, name, nth", [(T, "serialize_tensor", 3),
                                               (os, "fsync", 1)],
                         ids=["serialize", "fsync"])
def test_interrupted_checkpoint_write_keeps_old_checkpoint(tmp_path, monkeypatch,
                                                           module, name, nth):
    path = str(tmp_path / "ckpt")
    M.save_checkpoint(M.FluidModel(_cfg(seed=27)), path)
    before = {f: (tmp_path / "ckpt" / f).read_bytes()
              for f in ("manifest.json", "tensors.bin")}
    real, calls = getattr(module, name), []

    def failing(arg):
        calls.append(arg)
        if len(calls) == nth:
            raise OSError("disk full")
        return real(arg)

    # a different model, so a partial write would show in either file
    monkeypatch.setattr(module, name, failing)
    with pytest.raises(OSError, match="disk full"):
        M.save_checkpoint(M.FluidModel(_cfg(seed=28, n_layers=2)), path)
    monkeypatch.undo()
    assert sorted(os.listdir(path)) == sorted(before)
    for f, data in before.items():
        assert (tmp_path / "ckpt" / f).read_bytes() == data, f
    restored = M.load_checkpoint(path)
    for key, p in M.FluidModel(_cfg(seed=27)).parameters().items():
        assert np.array_equal(p.data, restored.parameters()[key].data), key


def test_seeded_model_golden_fixture():
    # regression fixture from the first verified run of this configuration
    model = M.FluidModel(_cfg(seed=42, n_layers=2))
    values = np.linspace(-1, 1, 8).reshape(1, 4, 2)
    times = np.arange(4.0)[None]
    qt = np.arange(2.0)[None]
    out = model.forward(values, times, qt).data
    golden = GOLDEN_FORWARD
    assert np.allclose(out, golden, atol=1e-10)


GOLDEN_FORWARD = np.array([[[-1.7205725268586658, -0.033968190832323865],
                            [-1.6570263807423871, 0.048205388215666681]]])
