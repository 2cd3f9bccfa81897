"""Smoke tests of the ``fluid`` command line at tiny dims."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fluid import attention as A
from fluid import bench as BN
from fluid import cli
from fluid import data as D
from fluid import model as M
from fluid import training as TR
from fluid import verify as V

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fluid(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "fluid.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_bench_reports_time_and_traced_peak():
    proc = run_fluid("bench", "--d-model", "8", "--heads", "2",
                     "--seq-len", "16", "--reps", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "run_time_s,throughput_seq_per_s,peak_memory_mb"
    report = json.loads("\n".join(lines[2:]))
    assert report["reps"] == 3
    assert report["run_time_s"] > 0
    assert report["peak_memory_mb"] > 0


def _bench(tmp_path, config, capsys):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    code = cli.main(["bench", "--config", str(path), "--reps", "3"])
    return code, capsys.readouterr()


BENCH_CONFIG = {"d_model": 8, "heads": 2, "seq_len": 6, "ffn_dim": 4}


def test_bench_config_sets_ffn_dim(tmp_path, capsys, monkeypatch):
    seen = {}
    factory = BN.default_model_factory

    def spy(dims):
        seen["ffn_dim"] = dims.ffn_dim
        return factory(dims)

    monkeypatch.setattr(BN, "default_model_factory", spy)
    code, out = _bench(tmp_path, BENCH_CONFIG, capsys)
    assert code == 0, out.err
    assert seen["ffn_dim"] == 4
    report = json.loads("\n".join(out.out.splitlines()[2:]))
    assert report["dims"]["ffn_dim"] == 4


def test_bench_config_rejects_unknown_keys(tmp_path, capsys):
    code, out = _bench(tmp_path, dict(BENCH_CONFIG, ffn=4, seqlen=6), capsys)
    assert code == 2
    assert "ffn, seqlen" in out.err
    assert out.out == ""


def test_bench_report_names_workers_cpus_and_numpy(tmp_path, capsys):
    code, out = _bench(tmp_path, BENCH_CONFIG, capsys)
    assert code == 0, out.err
    report = json.loads("\n".join(out.out.splitlines()[2:]))
    assert report["gate_workers"] == A.gate_workers() >= 1
    assert report["cpu_count"] == os.cpu_count()
    assert report["numpy_version"] == np.__version__


@pytest.mark.parametrize("flags, config", [
    (["--seq-len", "0"], {}),
    (["--top-k", "0"], {}),
    ([], {"batch": 0}),
    ([], {"euler_steps": 0}),
    ([], {"ffn_dim": -1}),
], ids=["seq_len", "top_k", "batch", "euler_steps", "ffn_dim"])
def test_bench_rejects_dims_below_one(tmp_path, capsys, flags, config):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(config))
    code = cli.main(["bench", "--d-model", "8", "--heads", "2", "--reps", "3",
                     "--config", str(path)] + flags)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err.startswith("fluid bench: ") and out.err.count("\n") == 1
    name = flags[0][2:].replace("-", "_") if flags else next(iter(config))
    assert name in out.err


TINY_CONFIG = {"model": {"d_model": 8, "heads": 2, "euler_steps": 2,
                         "ffn_dim": 8},
               "train": {"batch_size": 4}}


def _tiny_run(tmp_path, n=10):
    """A spiral dataset CSV with ``n`` sequences and a tiny-dims config."""
    data = tmp_path / "spirals.csv"
    proc = run_fluid("generate", "spiral", "--n", str(n), "--points", "30",
                     "--subsample", "12", "--out", str(data))
    assert proc.returncode == 0, proc.stderr
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    return data, config


def test_train_single_split_holds_out_validation(tmp_path, monkeypatch):
    n = 10
    data, config = _tiny_run(tmp_path, n)
    seen = {}

    def fake_train(model, train_data, val_data, cfg, out_dir=None):
        seen["train"], seen["val"] = train_data, val_data
        return []

    monkeypatch.setattr(TR, "train", fake_train)
    assert cli.main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run"), "--config", str(config)]) == 0
    train_rows = {r.tobytes() for r in seen["train"]["values"]}
    val_rows = {r.tobytes() for r in seen["val"]["values"]}
    assert len(train_rows) == n - n // 5
    assert len(val_rows) == n // 5
    assert not train_rows & val_rows


def _train_with_config(tmp_path, monkeypatch, config):
    """``fluid train`` on a tiny dataset with ``config`` and a stand-in
    for ``TR.train``: (exit code, the models it was handed)."""
    data, path = _tiny_run(tmp_path)
    path.write_text(json.dumps(config))
    models = []

    def fake_train(model, train_data, val_data, cfg, out_dir=None):
        models.append((model, cfg))
        return []

    monkeypatch.setattr(TR, "train", fake_train)
    code = cli.main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run"), "--config", str(path)])
    return code, models


@pytest.mark.parametrize("config, named", [
    (dict(TINY_CONFIG, trian={"epochs": 3}), "trian"),
    ({"model": dict(TINY_CONFIG["model"], layers=2)}, "model.layers"),
    (dict(TINY_CONFIG, data={"ratio": [0.5, 0.3, 0.2]}), "data.ratio"),
    ({"model": dict(TINY_CONFIG["model"], task="classification")}, "model.task"),
    # the data decide the model's input and output widths
    ({"model": dict(TINY_CONFIG["model"], in_features=2)}, "model.in_features"),
    ({"model": dict(TINY_CONFIG["model"], out_dim=2)}, "model.out_dim"),
], ids=["section", "model-key", "data-key", "model-task", "model-in-features",
        "model-out-dim"])
def test_train_config_rejects_unknown_keys(tmp_path, monkeypatch, capsys,
                                           config, named):
    code, models = _train_with_config(tmp_path, monkeypatch, config)
    assert code == 2 and not models
    assert f"unknown key(s) in {tmp_path / 'config.json'}: {named}" in \
        capsys.readouterr().err


def test_train_config_rejects_unknown_metric_before_training(tmp_path,
                                                             monkeypatch,
                                                             capsys):
    for key, value in (("metric", "rmse"), ("metric", "accuracy"),
                       ("loss", "cross_entropy")):
        config = dict(TINY_CONFIG, train={key: value})
        code, models = _train_with_config(tmp_path, monkeypatch, config)
        assert code == 2 and not models
        assert f"unknown {key} '{value}'" in capsys.readouterr().err


def test_train_config_accepts_every_known_key(tmp_path, monkeypatch):
    config = {"model": {"d_model": 8, "heads": 2, "euler_steps": 3,
                        "top_k": 4, "epsilon": 1e-2, "sink_gate": False,
                        "n_layers": 2, "ffn_dim": 8, "hc_mode": "static",
                        "hc_streams": 2, "max_len": 128,
                        "gate_mode": "recurrent", "seed": 3},
              "train": {"optimizer": "sgd", "lr": 0.01, "betas": [0.8, 0.9],
                        "weight_decay": 0.1, "epochs": 2, "batch_size": 4,
                        "loss": "mae", "metric": "mse", "seed": 5,
                        "grad_clip": 2.0},
              "data": {"ratios": [0.5, 0.25, 0.25]}}
    code, [(model, tcfg)] = _train_with_config(tmp_path, monkeypatch, config)
    assert code == 0
    lan = model.cfg.lan
    assert (lan.d_model, lan.heads, lan.euler_steps, lan.top_k, lan.epsilon,
            lan.sink_gate_enabled, lan.causal) == (8, 2, 3, 4, 1e-2, False, False)
    for key in ("n_layers", "hc_mode", "hc_streams", "max_len", "seed"):
        assert getattr(model.cfg, key) == config["model"][key], key
    assert tcfg.betas == (0.8, 0.9)
    for key in ("optimizer", "lr", "metric", "seed", "grad_clip"):
        assert getattr(tcfg, key) == config["train"][key], key


def test_train_rejects_more_folds_than_sequences(tmp_path, monkeypatch,
                                                 capsys):
    data, config = _tiny_run(tmp_path, n=6)
    trained = []
    monkeypatch.setattr(TR, "train", lambda *args, **kw: trained.append(1))
    assert cli.main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run"), "--config", str(config),
                     "--folds", "10"]) == 2
    out = capsys.readouterr()
    assert not trained and out.out == ""
    assert out.err.startswith("fluid train: ") and out.err.count("\n") == 1
    assert "--folds 10" in out.err and "6 sequences" in out.err


def test_generate_train_eval_pipeline(tmp_path):
    data, config = _tiny_run(tmp_path)
    run = tmp_path / "run"
    proc = run_fluid("train", "--data", str(data), "--out", str(run),
                     "--folds", "1", "--epochs", "1", "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    for name in ("best", "final"):
        assert (run / name / "manifest.json").is_file()
        assert (run / name / "tensors.bin").is_file()
    assert (run / "history.csv").is_file()
    proc = run_fluid("eval", "--checkpoint", str(run / "best"),
                     "--data", str(data))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["metric"] == "mae" and report["sequences"] == 10
    # the metrics are regression metrics only
    with pytest.raises(SystemExit) as exit_:
        cli.main(["eval", "--checkpoint", str(run / "best"), "--data",
                  str(data), "--metric", "accuracy"])
    assert exit_.value.code == 2


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_train_without_metric_prints_valid_json(tmp_path, capsys):
    data, config = _tiny_run(tmp_path)
    assert cli.main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run"), "--epochs", "0",
                     "--config", str(config)]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    # plain json.loads accepts NaN; this parse does not
    summary = json.loads(last, parse_constant=_reject_constant)
    assert summary["mean"] is None and summary["std"] is None


@pytest.mark.parametrize("case", ["bench-reps", "generate-subsample",
                                  "eval-missing-checkpoint",
                                  "bench-missing-config", "bench-malformed-config",
                                  "train-missing-data", "bench-heads",
                                  "train-heads", "train-empty-data",
                                  "train-negative-batch", "train-zero-folds",
                                  "train-negative-folds",
                                  "train-negative-layers", "train-zero-ffn",
                                  "bench-list-config", "bench-key-list-config",
                                  "train-list-config", "generate-empty-pixels",
                                  "generate-zero-subsample",
                                  "train-one-point-sequence",
                                  "train-header-only", "eval-header-only",
                                  "train-null-section", "train-list-section",
                                  "train-one-ratio", "eval-negative-ratios",
                                  "train-number-betas", "train-string-lr",
                                  "train-string-heads",
                                  "train-fractional-steps",
                                  "train-string-ratios", "train-string-layers",
                                  "train-string-streams",
                                  "train-fractional-ffn",
                                  "bench-string-seq-len",
                                  "train-string-sink-gate",
                                  "eval-string-causal", "train-unknown-gate-mode",
                                  "eval-zero-in-features", "eval-zero-out-dim",
                                  "train-zero-max-len", "train-negative-seed",
                                  "train-negative-train-seed",
                                  "generate-negative-seed",
                                  "bench-negative-seed",
                                  "verify-negative-seed"])
def test_usage_errors_exit_2_with_one_line(tmp_path, capsys, recwarn, case):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{\"d_model\": ")
    missing = str(tmp_path / "missing")
    data, empty = tmp_path / "spirals.csv", tmp_path / "empty.csv"
    D.write_dataset_csv(str(data), D.generate_spirals(
        D.SpiralSpec(n_spirals=10, n_points=30, n_subsample=12)))
    empty.write_text("")
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("seq_id,t,feature_0,feature_1,mask\n")
    checkpoint = str(tmp_path / "ckpt")
    if case.startswith("eval-") and case != "eval-missing-checkpoint":
        M.save_checkpoint(M.FluidModel(cli._model_config(TINY_CONFIG)),
                          checkpoint)
    # a checkpoint whose manifest config holds a bad value: (keys, value)
    edits = {"eval-string-causal": (("lan", "causal"), "yes"),
             "eval-zero-in-features": (("in_features",), 0),
             "eval-zero-out-dim": (("out_dim",), 0)}
    if case in edits:
        manifest = Path(checkpoint, "manifest.json")
        saved = json.loads(manifest.read_text())
        (*keys, last), value = edits[case]
        node = saved["config"]
        for key in keys:
            node = node[key]
        node[last] = value
        manifest.write_text(json.dumps(saved))
    one_point = tmp_path / "one_point.csv"
    D.write_dataset_csv(str(one_point), D.read_dataset_csv(str(data)) + [
        D.EventSequence(values=[[0.1, 0.2]], times=[1.0], mask=[True])])
    configs = {"train-heads": {"model": {"heads": 0}},
               "train-negative-batch": dict(TINY_CONFIG, train={"batch_size": -1}),
               "train-negative-layers": {"model": {"n_layers": -2}},
               "train-zero-ffn": {"model": {"ffn_dim": 0}},
               "bench-list-config": [1], "bench-key-list-config": ["d_model"],
               "train-list-config": [1],
               "train-null-section": {"model": None},
               "train-list-section": dict(TINY_CONFIG, train=[1]),
               "train-one-ratio": dict(TINY_CONFIG, data={"ratios": [1.0]}),
               "train-number-betas": dict(TINY_CONFIG, train={"betas": 3}),
               "train-string-lr": dict(TINY_CONFIG, train={"lr": "x"}),
               "train-string-heads": {"model": {"heads": "x"}},
               "train-fractional-steps": {"model": {"euler_steps": 2.5}},
               "train-string-ratios": dict(TINY_CONFIG,
                                           data={"ratios": ["a", "b", "c"]}),
               "train-string-layers": {"model": {"n_layers": "x"}},
               "train-string-streams": {"model": {"hc_mode": "static",
                                                  "hc_streams": "x"}},
               "train-fractional-ffn": {"model": {"ffn_dim": 2.5}},
               "bench-string-seq-len": {"seq_len": "x"},
               "train-string-sink-gate": {"model": {"sink_gate": "no"}},
               "train-unknown-gate-mode": {"model": {"gate_mode": "x"}},
               "train-zero-max-len": {"model": {"max_len": 0}},
               "train-negative-seed": {"model": {"seed": -1}},
               "train-negative-train-seed": dict(TINY_CONFIG, train={"seed": -1}),
               "bench-negative-seed": {"seed": -1}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(configs.get(case, TINY_CONFIG)))
    train = ["train", "--out", str(tmp_path / "run"), "--config", str(config),
             "--data"]
    argv = {
        "bench-reps": ["bench", "--reps", "2"],
        "generate-subsample": ["generate", "spiral", "--points", "10",
                               "--subsample", "20",
                               "--out", str(tmp_path / "s.csv")],
        "eval-missing-checkpoint": ["eval", "--checkpoint", missing,
                                    "--data", missing],
        "bench-missing-config": ["bench", "--config", missing],
        "bench-malformed-config": ["bench", "--config", str(malformed)],
        "train-missing-data": train + [missing],
        "bench-heads": ["bench", "--heads", "0"],
        "train-heads": train + [str(data)],
        "train-empty-data": train + [str(empty)],
        "train-negative-batch": train + [str(data)],
        "train-zero-folds": train + [str(data), "--folds", "0"],
        "train-negative-folds": train + [str(data), "--folds", "-3"],
        "train-negative-layers": train + [str(data)],
        "train-zero-ffn": train + [str(data)],
        "bench-list-config": ["bench", "--config", str(config)],
        "bench-key-list-config": ["bench", "--config", str(config)],
        "train-list-config": train + [str(data)],
        "generate-empty-pixels": ["generate", "events", "--pixels", str(empty),
                                  "--out", str(tmp_path / "e.csv")],
        "generate-zero-subsample": ["generate", "spiral", "--subsample", "0",
                                    "--out", str(tmp_path / "s.csv")],
        "train-one-point-sequence": train + [str(one_point)],
        "train-header-only": train + [str(header_only)],
        "eval-header-only": ["eval", "--checkpoint", checkpoint,
                             "--data", str(header_only)],
        "train-null-section": train + [str(data)],
        "train-list-section": train + [str(data)],
        "train-one-ratio": train + [str(data)],
        "eval-negative-ratios": ["eval", "--checkpoint", checkpoint, "--data",
                                 str(data), "--ratios", "1.2", "-0.1", "-0.1"],
        "train-number-betas": train + [str(data)],
        "train-string-lr": train + [str(data)],
        "train-string-heads": train + [str(data)],
        "train-fractional-steps": train + [str(data)],
        "train-string-ratios": train + [str(data)],
        "train-string-layers": train + [str(data)],
        "train-string-streams": train + [str(data)],
        "train-fractional-ffn": train + [str(data)],
        "bench-string-seq-len": ["bench", "--config", str(config)],
        "train-string-sink-gate": train + [str(data)],
        "eval-string-causal": ["eval", "--checkpoint", checkpoint,
                               "--data", str(data)],
        "train-unknown-gate-mode": train + [str(data)],
        "eval-zero-in-features": ["eval", "--checkpoint", checkpoint,
                                  "--data", str(data)],
        "eval-zero-out-dim": ["eval", "--checkpoint", checkpoint,
                              "--data", str(data)],
        "train-zero-max-len": train + [str(data)],
        "train-negative-seed": train + [str(data)],
        "train-negative-train-seed": train + [str(data)],
        "generate-negative-seed": ["generate", "spiral", "--seed", "-1",
                                   "--out", str(tmp_path / "s.csv")],
        "bench-negative-seed": ["bench", "--config", str(config)],
        "verify-negative-seed": ["verify", "--seed", "-1"],
    }[case]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fluid {argv[0]}: ") and err.count("\n") == 1, err
    named = {"bench-malformed-config": malformed, "train-empty-data": empty,
             "bench-list-config": config, "bench-key-list-config": config,
             "train-list-config": config, "train-header-only": header_only,
             "eval-header-only": header_only, "train-null-section": config,
             "train-list-section": config}
    if case in named:
        assert str(named[case]) in err, err
    said = {"generate-empty-pixels": "no sequences to write",
            "generate-zero-subsample": "subsample of two",
            "train-one-point-sequence": "sequence 10 has no conditioning point",
            "train-header-only": "holds no sequences",
            "eval-header-only": "holds no sequences",
            "train-null-section": "section 'model'",
            "train-list-section": "section 'train'",
            "train-one-ratio": "split ratios [1.0] are not three",
            "eval-negative-ratios": "split ratios [1.2, -0.1, -0.1]",
            "train-number-betas": "betas must be two numbers, not 3",
            "train-string-lr": "lr must be a number, not 'x'",
            "train-string-heads": "heads must be an integer, not 'x'",
            "train-fractional-steps": "euler_steps must be an integer, not 2.5",
            "train-string-ratios": "split ratios ['a', 'b', 'c'] are not three",
            "train-string-layers": "n_layers must be an integer, not 'x'",
            "train-string-streams": "hc_streams must be an integer, not 'x'",
            "train-fractional-ffn": "ffn_dim must be an integer, not 2.5",
            "bench-string-seq-len": "seq_len must be an integer, not 'x'",
            "train-string-sink-gate":
                "sink_gate_enabled must be true or false, not 'no'",
            "eval-string-causal": "causal must be true or false, not 'yes'",
            "train-unknown-gate-mode": "unknown gate_mode 'x'",
            "eval-zero-in-features": "in_features must be >= 1",
            "eval-zero-out-dim": "out_dim must be >= 1",
            "train-zero-max-len": "max_len must be >= 1",
            "train-negative-seed": "seed must be >= 0",
            "train-negative-train-seed": "seed must be >= 0",
            "generate-negative-seed": "seed must be >= 0",
            "bench-negative-seed": "seed must be >= 0",
            "verify-negative-seed": "seed -1 must be >= 0"}
    if case in said:
        assert said[case] in err, err
        assert not list(tmp_path.glob("[es].csv"))
    # an empty pixel file warns nothing besides the one line
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


def test_eval_rejects_a_manifest_config_that_does_not_fit(tmp_path, capsys):
    data, config = _tiny_run(tmp_path)
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--epochs", "0", "--config", str(config)]) == 0
    manifest = run / "final" / "manifest.json"
    saved = json.loads(manifest.read_text())
    saved["config"]["dropout"] = 0.1
    manifest.write_text(json.dumps(saved))
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(run / "final"),
                     "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fluid eval: ") and err.count("\n") == 1, err
    assert "'dropout'" in err and str(run / "final") in err


@pytest.mark.parametrize("key", ["config", "params"])
def test_eval_rejects_a_manifest_without_config_or_params(tmp_path, capsys, key):
    data, config = _tiny_run(tmp_path)
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--epochs", "0", "--config", str(config)]) == 0
    manifest = run / "final" / "manifest.json"
    saved = json.loads(manifest.read_text())
    del saved[key]
    manifest.write_text(json.dumps(saved))
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(run / "final"),
                     "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fluid eval: ") and err.count("\n") == 1, err
    assert f"'{key}'" in err and str(run / "final") in err


def test_verify_exit_codes():
    assert run_fluid("verify", "--suite", "limits").returncode == 0
    assert run_fluid("verify", "--suite", "nope").returncode == 2


@pytest.mark.parametrize("suite, report", [
    ("limits", {"pass": False}),
    ("all", {"limits": {"pass": True}, "gradients": {"pass": False}}),
], ids=["one-suite", "all"])
def test_verify_failing_report_exits_1(monkeypatch, capsys, suite, report):
    monkeypatch.setattr(V, "run_suite", lambda name, seed=0: report)
    assert cli.main(["verify", "--suite", suite]) == 1
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize("name", list(V.SUITES))
def test_run_suite_passes(name):
    assert V.run_suite(name)["pass"] is True


def test_run_suite_rejects_unknown_name():
    with pytest.raises(KeyError):
        V.run_suite("nope")
