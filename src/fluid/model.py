"""Encoder-decoder model around the liquid attention blocks.

Shared input embedding (one parameter object serving both sides), index
sinusoidal positional encoding plus a raw-timestamp feature channel so
irregular intervals reach the gates, per-layer attention + feed-forward
sublayers wired through plain residuals or liquid hyper-connections,
and a linear output head. Checkpoints are a JSON manifest plus binary
tensor blobs. Each layer and each of its parts is a ``tensor.Module``:
a layer names its parameters by attribute path (``attn.gate.W_u``). The
model puts ``embed.`` first, each layer under ``enc{i}.`` or ``dec{i}.``,
then ``head.``: the order in which the gradient clip sums the squares.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from fluid import attention as A
from fluid import hyper as HC
from fluid import tensor as T
from fluid.tensor import Tensor, uniform_init


def positional_encoding(length: int, d: int) -> Tensor:
    """Sinusoidal table: PE[p, 2i] = sin(p / 10000^(2i/d)), odd cols cos."""
    if d % 2 != 0:
        raise ValueError(f"positional encoding needs even width, got {d}")
    pos = np.arange(length)[:, None]
    i = np.arange(d // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / d)
    table = np.zeros((length, d))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle)
    return Tensor(table)


@dataclass
class ModelConfig:
    """Architecture settings; `lan` nests the attention config."""

    lan: A.LanConfig
    n_layers: int = 1
    ffn_dim: int = 32
    hc_mode: str = "residual"        # residual | liquid
    hc_streams: int = 1
    in_features: int = 2
    out_dim: int = 2
    max_len: int = 512
    seed: int = 0

    def __post_init__(self):
        A.check_types(self, numbers.Integral, "an integer", "n_layers ffn_dim "
                      "hc_streams in_features out_dim max_len seed")
        if self.hc_mode not in ("residual", "liquid"):
            raise ValueError(f"unknown hc_mode {self.hc_mode!r}")
        A.check_at_least(self, 1, "ffn_dim in_features out_dim max_len"
                         + " hc_streams" * (self.hc_mode != "residual"))
        A.check_at_least(self, 0, "n_layers seed")


class _Ffn(T.Module):
    """Position-wise affine -> ReLU -> affine."""

    def __init__(self, d: int, inner: int, rng):
        self.W1 = uniform_init(rng, (d, inner), d)
        self.b1 = uniform_init(rng, (inner,), d)
        self.W2 = uniform_init(rng, (inner, d), inner)
        self.b2 = uniform_init(rng, (d,), inner)

    def __call__(self, x: Tensor) -> Tensor:
        h = T.relu(T.affine(x, self.W1, self.b1))
        return T.affine(h, self.W2, self.b2)


class _LayerNormParams(T.Module):
    def __init__(self, d: int):
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias)


class _Sublayer(T.Module):
    """One sublayer with its connection: a residual one where ``hc`` is
    None, else liquid hyper-connected."""

    def __init__(self, cfg: ModelConfig, rng):
        self.norm = _LayerNormParams(cfg.lan.d_model)
        self.hc = None
        if cfg.hc_mode != "residual":
            self.hc = HC.HcParams(cfg.hc_streams, cfg.lan.d_model, rng)

    def apply(self, state: Tensor, fn) -> Tensor:
        if self.hc is None:
            return self.norm(T.add(state, fn(state)))
        return self.norm(HC.hc_block(self.hc, state, fn))


class EncoderLayer(T.Module):
    def __init__(self, cfg: ModelConfig, rng):
        lan_cfg = replace(cfg.lan, causal=False)
        self.attn = A.MultiHeadLan(lan_cfg, rng)
        self.ffn = _Ffn(cfg.lan.d_model, cfg.ffn_dim, rng)
        self.sub_attn = _Sublayer(cfg, rng)
        self.sub_ffn = _Sublayer(cfg, rng)

    def forward(self, state: Tensor, key_mask=None, collect=None) -> Tensor:
        state = self.sub_attn.apply(
            state, lambda x0: self.attn.forward(x0, x0, key_mask=key_mask,
                                                collect=collect))
        return self.sub_ffn.apply(state, self.ffn)


class DecoderLayer(T.Module):
    def __init__(self, cfg: ModelConfig, rng):
        self.self_attn = A.MultiHeadLan(replace(cfg.lan, causal=True), rng)
        self.cross_attn = A.MultiHeadLan(replace(cfg.lan, causal=False), rng)
        self.ffn = _Ffn(cfg.lan.d_model, cfg.ffn_dim, rng)
        self.sub_self = _Sublayer(cfg, rng)
        self.sub_cross = _Sublayer(cfg, rng)
        self.sub_ffn = _Sublayer(cfg, rng)

    def forward(self, state: Tensor, z: Tensor, enc_mask=None,
                collect=None) -> Tensor:
        own, cross = ((None, None) if collect is None else
                      (collect.setdefault("self", {}),
                       collect.setdefault("cross", {})))
        state = self.sub_self.apply(
            state, lambda x0: self.self_attn.forward(x0, x0, collect=own))
        state = self.sub_cross.apply(
            state, lambda x0: self.cross_attn.forward(x0, z, key_mask=enc_mask,
                                                      collect=cross))
        return self.sub_ffn.apply(state, self.ffn)


class FluidModel:
    """Shared-embedding encoder-decoder over irregular sequences; ``cfg``
    is kept and checkpointed as given."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        d = cfg.lan.d_model
        emb_in = cfg.in_features + 1  # raw timestamp rides along
        self.W_e = uniform_init(rng, (emb_in, d), emb_in)
        self.b_e = uniform_init(rng, (d,), emb_in)
        self.pos = positional_encoding(cfg.max_len, d)
        self.encoder_layers = [EncoderLayer(cfg, rng) for _ in range(cfg.n_layers)]
        self.decoder_layers = [DecoderLayer(cfg, rng) for _ in range(cfg.n_layers)]
        self.W_o = uniform_init(rng, (d, cfg.out_dim), d)
        self.b_o = uniform_init(rng, (cfg.out_dim,), d)

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> dict:
        out = {"embed.W": self.W_e, "embed.b": self.b_e}
        for side, layers in (("enc", self.encoder_layers),
                             ("dec", self.decoder_layers)):
            for i, layer in enumerate(layers):
                out.update({f"{side}{i}.{k}": v
                            for k, v in layer.parameters().items()})
        out["head.W"] = self.W_o
        out["head.b"] = self.b_o
        return out

    # -- forward ------------------------------------------------------------

    def embed(self, values: np.ndarray, times: np.ndarray) -> Tensor:
        """Append the timestamp channel, affine-embed, add the index table."""
        values = np.asarray(values, dtype=float)
        times = np.asarray(times, dtype=float)
        B, L = values.shape[:2]
        if L > self.cfg.max_len:
            raise ValueError(f"sequence length {L} exceeds configured "
                             f"max_len {self.cfg.max_len}")
        if values.shape[-1] != self.cfg.in_features:
            raise ValueError(f"values have {values.shape[-1]} features; the "
                             f"model takes {self.cfg.in_features}")
        feats = Tensor(np.concatenate([values, times[..., None]], axis=-1))
        emb = T.affine(feats, self.W_e, self.b_e)
        pe = Tensor(self.pos.data[:L])
        return T.add(emb, pe)

    def _stack(self, layers, state, run_layer):
        liquid = bool(layers) and self.cfg.hc_mode != "residual"
        if liquid:
            state = HC.expand_streams(state, self.cfg.hc_streams)
        for layer in layers:
            state = run_layer(layer, state)
        return HC.hc_network_finalize(state) if liquid else state

    def encoder_forward(self, x: Tensor, key_mask=None, collect=None) -> Tensor:
        return self._stack(self.encoder_layers, x,
                           lambda l, s: l.forward(s, key_mask=key_mask,
                                                  collect=collect))

    def decoder_forward(self, y: Tensor, z: Tensor, enc_mask=None,
                        collect=None) -> Tensor:
        return self._stack(self.decoder_layers, y,
                           lambda l, s: l.forward(s, z, enc_mask=enc_mask,
                                                  collect=collect))

    def forward(self, values: np.ndarray, times: np.ndarray,
                query_times: np.ndarray, mask: np.ndarray | None = None,
                collect: dict | None = None) -> Tensor:
        """history (values, times, mask) -> predictions at query_times."""
        x = self.embed(values, times)
        z = self.encoder_forward(x, key_mask=mask, collect=collect)
        zero_values = np.zeros(query_times.shape + (self.cfg.in_features,))
        y = self.embed(zero_values, query_times)
        h = self.decoder_forward(y, z, enc_mask=mask, collect=collect)
        return T.affine(h, self.W_o, self.b_o)


# --------------------------------------------------------------------------
# checkpoints: JSON manifest + binary tensor blobs
# --------------------------------------------------------------------------

# fields of older manifests: each is dropped at the one value the model
# is built with (None: at any value), and any other value is refused
_RETIRED = {"task": None, "gate_mode": "recurrent", "lan.epsilon": A._EPSILON}


def _config_from_dict(d: dict, source: str) -> ModelConfig:
    """The config a manifest records; ValueError when it does not fit."""
    if not isinstance(d, dict):
        raise ValueError(f"{source}: manifest config is not a JSON object")
    lan = d.pop("lan", {})
    for field, built in _RETIRED.items():
        holder, key = (lan, field[4:]) if field.startswith("lan.") else (d, field)
        if isinstance(holder, dict) and key in holder:
            value = holder.pop(key)
            if built is not None and value != built:
                raise ValueError(f"{source}: manifest config has {field} "
                                 f"{value!r}; only {built!r} is built")
    try:
        return ModelConfig(lan=A.LanConfig(**lan), **d)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{source}: manifest config does not fit the model: "
                         f"{err}") from None


def _replace_file(path: str, data: bytes):
    """Write ``data`` to a temp file in the same directory, then rename it
    over ``path``: a failed write leaves the old file as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_checkpoint(model: FluidModel, path: str):
    """Write ``tensors.bin``, then ``manifest.json``, each atomically."""
    os.makedirs(path, exist_ok=True)
    params = model.parameters()
    names = sorted(params)
    manifest = {"config": asdict(model.cfg), "params": names}
    tensors = b"".join(T.serialize_tensor(params[name]) for name in names)
    _replace_file(os.path.join(path, "tensors.bin"), tensors)
    _replace_file(os.path.join(path, "manifest.json"),
                  json.dumps(manifest, indent=2).encode())


def load_checkpoint(path: str) -> FluidModel:
    with open(os.path.join(path, "manifest.json")) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest is not a JSON object")
    for key in ("config", "params"):
        if key not in manifest:
            raise ValueError(f"{path}: manifest has no {key!r}")
    model = FluidModel(_config_from_dict(manifest["config"], path))
    params = model.parameters()
    if sorted(params) != manifest["params"]:
        raise ValueError(f"{path}: checkpoint parameter names do not match "
                         f"the reconstructed architecture")
    with open(os.path.join(path, "tensors.bin"), "rb") as fh:
        buf = fh.read()
    offset = 0
    for name in manifest["params"]:
        loaded, offset = T.deserialize_tensor(buf, offset)
        if loaded.shape != params[name].shape:
            raise ValueError(f"{path}: shape mismatch for {name}: "
                             f"{loaded.shape} vs {params[name].shape}")
        params[name].data[...] = loaded.data
    if offset != len(buf):
        raise ValueError(f"{path}: {len(buf) - offset} trailing bytes after "
                         f"the last tensor")
    return model
