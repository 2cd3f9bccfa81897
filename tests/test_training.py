"""Losses, AdamW steps, the training loop, and gradient checking."""

import json
from pathlib import Path

import numpy as np
import pytest

from fluid import attention as A
from fluid import model as M
from fluid import pairs
from fluid import tensor as T
from fluid import training as TR
from fluid.tensor import Tensor


def micro_model(seed=0, **kw):
    lan_kw = dict(d_model=8, heads=2, euler_steps=2, top_k=None,
                  sink_gate_enabled=False, causal=False)
    for key in list(kw):
        if key in lan_kw:
            lan_kw[key] = kw.pop(key)
    kw.setdefault("n_layers", 1)
    cfg = M.ModelConfig(lan=A.LanConfig(**lan_kw), ffn_dim=8,
                        in_features=1, out_dim=1, max_len=32, seed=seed, **kw)
    return M.FluidModel(cfg)


def tiny_dataset(n=6, T_in=4, T_out=2, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n, T_in, 1))
    times = np.tile(np.arange(T_in, dtype=float), (n, 1))
    return {"values": values, "times": times,
            "mask": np.ones((n, T_in), dtype=bool),
            "query_times": np.tile(np.arange(T_out, dtype=float), (n, 1)),
            "targets": rng.standard_normal((n, T_out, 1)),
            "target_mask": np.ones((n, T_out), dtype=bool)}


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------

def test_loss_zero_when_prediction_matches():
    pred = Tensor(np.array([[1.0, -2.0]]))
    target = np.array([[1.0, -2.0]])
    assert TR.loss("mse", pred, target).item() == 0.0
    assert TR.loss("mae", pred, target).item() == 0.0


def test_loss_single_element_values():
    pred = Tensor(np.array([0.0]))
    target = np.array([2.0])
    assert TR.loss("mse", pred, target).item() == 4.0
    assert TR.loss("mae", pred, target).item() == 2.0


def test_mae_gradient_matches_central_difference_and_is_0_at_the_kink():
    rng = np.random.default_rng(5)
    target = rng.standard_normal((2, 3, 1))
    # every prediction at least 0.1 from its target: no difference step
    # crosses the kink
    offset = rng.uniform(0.1, 1.0, target.shape) * rng.choice([-1, 1], target.shape)
    mask = np.array([[True, True, False], [True, False, False]])
    pred = Tensor(target + offset, requires_grad=True)
    report = TR.grad_check(lambda: TR.loss("mae", pred, target, mask),
                           {"pred": pred})
    assert report["max_rel_error"] < 1e-6
    assert np.array_equal(pred.grad[..., 0],
                          np.where(mask, np.sign(offset[..., 0]) / 3, 0.0))
    # the subgradient at the kink is 0
    at_kink = Tensor(target.copy(), requires_grad=True)
    TR.loss("mae", at_kink, target, mask).backward()
    assert np.array_equal(at_kink.grad, np.zeros_like(target))


def test_loss_empty_mask_rejected():
    pred = Tensor(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        TR.loss("mse", pred, np.zeros((2, 2)), mask=np.zeros((2, 2), dtype=bool))


def test_masked_loss_ignores_masked_positions():
    pred = Tensor(np.array([[1.0], [100.0]]))
    target = np.array([[0.0], [0.0]])
    mask = np.array([True, False])
    assert TR.loss("mse", pred, target, mask).item() == 1.0


@pytest.mark.parametrize("kind", TR.LOSSES)
def test_loss_does_not_depend_on_the_padding_width(kind):
    # zero slots padded onto the query axis and masked out, as a wider batch
    # packs a sequence, change neither the loss's bits nor its gradient
    B, T_q, F = 4, 9, 2
    for seed in range(6):
        rng = np.random.default_rng(seed)
        pred, target = rng.standard_normal((2, B, T_q, F))
        mask = np.arange(T_q) < rng.integers(1, T_q + 1, (B, 1))
        runs = []
        for width in range(12):
            pad = ((0, 0), (0, width), (0, 0))
            p = Tensor(np.pad(pred, pad), requires_grad=True)
            value = TR.loss(kind, p, np.pad(target, pad), np.pad(mask, pad[:2]))
            value.backward()
            assert not p.grad[:, T_q:].any()
            runs.append((value.item(), p.grad[:, :T_q]))
        for value, grad in runs[1:]:
            assert value == runs[0][0], (seed, kind)
            assert np.array_equal(grad, runs[0][1])


# --------------------------------------------------------------------------
# AdamW
# --------------------------------------------------------------------------

def test_adamw_zero_lr_leaves_params_unchanged():
    cfg = TR.TrainConfig(lr=1.0)
    cfg.lr = 0.0  # the config invariant enforces lr > 0 for real runs
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.array([0.5, 0.5])
    params = {"p": p}
    TR.adamw_step(params, TR.init_opt_state(params), cfg)
    assert np.array_equal(p.data, [1.0, -2.0])


def test_adamw_single_step_hand_values():
    cfg = TR.TrainConfig(lr=0.1, betas=(0.9, 0.999), weight_decay=0.0)
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([1.0])
    params = {"p": p}
    TR.adamw_step(params, TR.init_opt_state(params), cfg)
    assert abs(p.data[0] - 0.9) < 1e-3


def test_adamw_constant_grad_step_approaches_lr_sign():
    cfg = TR.TrainConfig(lr=0.05, weight_decay=0.0)
    p = Tensor(np.array([0.0]), requires_grad=True)
    params = {"p": p}
    state = TR.init_opt_state(params)
    prev = p.data.copy()
    for _ in range(200):
        p.grad = np.array([3.0])
        prev = p.data.copy()
        TR.adamw_step(params, state, cfg)
    assert abs(abs(p.data[0] - prev[0]) - cfg.lr) < 1e-4


def test_train_config_invariants():
    with pytest.raises(ValueError):
        TR.TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TR.TrainConfig(betas=(1.0, 0.999))
    with pytest.raises(ValueError):
        TR.TrainConfig(loss="huber")
    with pytest.raises(ValueError, match="metric"):
        TR.TrainConfig(metric="rmse")


def test_gradient_clipping_scales_to_max_norm():
    p = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    p.grad = np.array([3.0, 4.0])
    params = {"p": p}
    norm = TR.clip_global_norm(params, 1.0)
    assert np.isclose(norm, 5.0)
    assert np.isclose(np.sqrt((p.grad ** 2).sum()), 1.0)


# --------------------------------------------------------------------------
# training loop
# --------------------------------------------------------------------------

def test_train_zero_epochs_changes_nothing(tmp_path):
    model = micro_model(seed=1)
    data = tiny_dataset()
    before = {k: p.data.copy() for k, p in model.parameters().items()}
    history = TR.train(model, data, data,
                       TR.TrainConfig(epochs=0, batch_size=4), str(tmp_path))
    assert history == []
    for k, p in model.parameters().items():
        assert np.array_equal(p.data, before[k])
    assert (tmp_path / "history.csv").read_text().splitlines() == \
        ["epoch,train_loss,val_metric"]
    assert (tmp_path / "final" / "manifest.json").exists()
    assert not (tmp_path / "best").exists()


def test_train_adamw_descends_on_a_constant_target(tmp_path):
    def setup():
        data = tiny_dataset(seed=2)
        data["targets"] = np.full_like(data["targets"], 0.25)
        return micro_model(seed=2), data

    # one step over the whole set lowers its mse
    model, data = setup()
    before = TR.evaluate(model, data, "mse")
    TR.train(model, data, data, TR.TrainConfig(lr=1e-4, epochs=1,
                                               batch_size=16, seed=2),
             str(tmp_path / "one"))
    assert TR.evaluate(model, data, "mse") < before
    # and ten end below the first
    model, data = setup()
    history = TR.train(model, data, data,
                       TR.TrainConfig(lr=1e-3, epochs=10, batch_size=16,
                                      seed=2),
                       str(tmp_path / "ten"))
    assert history[-1]["train_loss"] < history[0]["train_loss"]


def test_train_determinism_is_bitwise(tmp_path):
    def run(out_dir):
        model = micro_model(seed=3)
        data = tiny_dataset(seed=3)
        cfg = TR.TrainConfig(lr=1e-3, epochs=3, batch_size=2, seed=3)
        history = TR.train(model, data, data, cfg, str(out_dir))
        return history, {k: p.data.copy() for k, p in model.parameters().items()}

    h1, p1 = run(tmp_path / "a")
    h2, p2 = run(tmp_path / "b")
    assert h1 == h2
    for k in p1:
        assert np.array_equal(p1[k], p2[k])
    for name in ("history.csv", "best/tensors.bin", "final/tensors.bin"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_train_saves_best_checkpoint_and_history(tmp_path):
    model = micro_model(seed=4)
    data = tiny_dataset(seed=4)
    cfg = TR.TrainConfig(lr=1e-3, epochs=2, batch_size=4, seed=4)
    history = TR.train(model, data, data, cfg, str(tmp_path))
    for name in ("best", "final"):
        assert (tmp_path / name / "manifest.json").exists()
    lines = (tmp_path / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_metric"
    assert lines[1:] == [f"{row['epoch']},{row['train_loss']!r},"
                         f"{row['val_metric']!r}" for row in history]


def test_train_aborts_on_nan_with_gate_trace_dump(tmp_path):
    model = micro_model(seed=5)
    data = tiny_dataset(seed=5)
    data["targets"][...] = np.nan
    cfg = TR.TrainConfig(lr=1e-3, epochs=1, batch_size=8, seed=5)
    with pytest.raises(TR.TrainingDiverged) as err:
        TR.train(model, data, data, cfg, str(tmp_path))
    assert err.value.dump_path == str(tmp_path / "diverged_gate_traces")
    assert (tmp_path / "diverged_gate_traces" / "enc.attn.csv").exists()


def test_divergence_dumps_every_attention_block(tmp_path):
    model = micro_model(seed=5, n_layers=2)
    data = tiny_dataset(seed=5)
    data["targets"][...] = np.inf
    cfg = TR.TrainConfig(lr=1e-3, epochs=1, batch_size=8, seed=5)
    with pytest.raises(TR.TrainingDiverged) as err:
        TR.train(model, data, data, cfg, str(tmp_path))
    dump = tmp_path / "diverged_gate_traces"
    assert err.value.dump_path == str(dump)
    names = [f"{block}{layer}.csv" for block in ("enc.attn", "dec.self", "dec.cross")
             for layer in ("", ".1")]
    assert sorted(p.name for p in dump.iterdir()) == sorted(names)
    for name in names:
        lines = (dump / name).read_text().splitlines()
        assert lines[0] == "step,pair_id,a,f_tau,f_phi"
        assert len(lines) > 1


def test_every_gate_parameter_receives_gradient():
    model = micro_model(seed=6)
    data = tiny_dataset(seed=6)
    pred = model.forward(data["values"], data["times"], data["query_times"],
                         mask=data["mask"])
    TR.loss("mse", pred, data["targets"], data["target_mask"]).backward()
    gate_params = {k: p for k, p in model.parameters().items() if ".gate." in k}
    assert gate_params
    for name, p in gate_params.items():
        assert p.grad is not None and np.abs(p.grad).max() > 0.0, name


# one training step of a micro model with masks, causal rows and top-k
# tails, recorded from the gate kernel that kept every hidden state on the
# tape and ran the GRU on every slot
GOLDEN = json.loads((Path(__file__).parent / "golden_step.json").read_text())


def _golden_loss(case):
    """The micro model and its loss on one golden batch, before backward."""
    kw = dict(euler_steps=3, hc_mode="liquid", hc_streams=2,
              sink_gate_enabled=True)
    if case == "topk":
        kw["top_k"] = 3
    model = micro_model(seed=11, **kw)
    rng = np.random.default_rng(12)
    B, T_in, T_out = 3, 6, 4
    mask = np.ones((B, T_in), dtype=bool)
    mask[1, -2:] = False
    mask[2, -4:] = False
    pred = model.forward(
        values=rng.standard_normal((B, T_in, 1)),
        times=np.cumsum(rng.uniform(0.5, 1.5, (B, T_in)), axis=1),
        query_times=np.cumsum(rng.uniform(0.5, 1.5, (B, T_out)), axis=1),
        mask=mask)
    return model, TR.loss("mse", pred, rng.standard_normal((B, T_out, 1)))


def _golden_step(case):
    model, loss = _golden_loss(case)
    loss.backward()
    params = model.parameters()
    # one fixed random direction per parameter, the same draws for each
    proj = {n: float((p.grad * np.random.default_rng(13).standard_normal(
        p.shape)).sum()) for n, p in params.items()}
    return loss.item(), TR.clip_global_norm(params, 0.0), proj


def test_training_tape_keeps_no_array_that_no_rule_reads(monkeypatch):
    # liquid hyper-connections with n = 2 streams over d_model = 8
    batches, curate = [], pairs.full_pairwise_concat

    def full_pairwise(*args, **kw):
        batches.append(curate(*args, **kw))
        return batches[-1]

    monkeypatch.setattr(pairs, "full_pairwise_concat", full_pairwise)
    _, loss = _golden_loss("full")
    nodes, children, stack = {id(loss): loss}, {}, [loss]
    while stack:
        for p in stack.pop()._parents:
            children[id(p)] = children.get(id(p), 0) + 1
            if id(p) not in nodes:
                nodes[id(p)] = p
                stack.append(p)

    def op(node):
        rule = node._backward
        return rule.__qualname__.split(".")[0] if rule else None

    # the residual product A_r[..., s, r] * H[..., s, :] of hc_combine
    assert not [t.shape for t in nodes.values() if t.shape[-3:] == (2, 2, 8)]
    # a bias add reads no data, so a product under it is not kept bare
    assert not [t.shape for t in nodes.values() if op(t) == "add" and any(
        op(p) == "matmul" and children[id(p)] == 1 for p in t._parents)]
    # one row of key indices, seen by every query of every head
    assert len(batches) == 3
    for pb in batches:
        assert pb.selected_indices.strides[:3] == (0, 0, 0)


@pytest.mark.parametrize("case", ["full", "topk"])
def test_training_step_matches_the_golden_gradients(case):
    want = GOLDEN[case]
    loss, norm, proj = _golden_step(case)
    rel = 1e-12
    assert abs(loss - want["loss"]) <= rel * abs(want["loss"])
    assert abs(norm - want["grad_norm"]) <= rel * want["grad_norm"]
    assert proj.keys() == want["projections"].keys()
    for name, value in want["projections"].items():
        assert abs(proj[name] - value) <= rel * abs(value), (name, proj[name], value)


# --------------------------------------------------------------------------
# gradient checking
# --------------------------------------------------------------------------

def test_grad_check_quadratic():
    p = Tensor(np.array([3.0]), requires_grad=True)

    def f():
        return T.tsum(T.mul(p, p))

    report = TR.grad_check(f, {"p": p})
    assert report["max_rel_error"] < 1e-6
    p.zero_grad()
    f().backward()
    assert np.isclose(p.grad[0], 6.0)


def test_grad_check_linear_is_exact_scale():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    c = Tensor(np.array([2.0, 5.0]))

    def f():
        return T.tsum(T.mul(p, c))

    report = TR.grad_check(f, {"p": p})
    assert report["max_rel_error"] < 1e-9


def test_grad_check_micro_model():
    model = micro_model(seed=7, d_model=8, heads=2)
    data = tiny_dataset(n=2, T_in=4, T_out=2, seed=7)

    def f():
        pred = model.forward(data["values"], data["times"],
                             data["query_times"], mask=data["mask"])
        return TR.loss("mse", pred, data["targets"], data["target_mask"])

    report = TR.grad_check(f, model.parameters(),
                           max_entries_per_param=3, seed=7)
    assert report["max_rel_error"] < 1e-3
