"""Smoke tests of the ``fluid`` command line at tiny dims."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


TINY_CONFIG = {"model": {"d_model": 8, "heads": 2, "euler_steps": 2,
                         "ffn_dim": 8},
               "train": {"batch_size": 4}}


def _tiny_run(tmp_path, n=10, epochs=1):
    """A spiral dataset CSV with ``n`` sequences and a tiny-dims config
    that trains for ``epochs``."""
    data = tmp_path / "spirals.csv"
    proc = run_fluid("generate", "spiral", "--n", str(n), "--points", "30",
                     "--subsample", "12", "--out", str(data))
    assert proc.returncode == 0, proc.stderr
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        TINY_CONFIG, train=dict(TINY_CONFIG["train"], epochs=epochs))))
    return data, config


def test_train_single_split_holds_out_validation(tmp_path, monkeypatch):
    n = 10
    data, config = _tiny_run(tmp_path, n)
    seen = {}

    def fake_train(model, train_data, val_data, cfg, out_dir):
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

    def fake_train(model, train_data, val_data, cfg, out_dir):
        models.append((model, cfg))
        return []

    monkeypatch.setattr(TR, "train", fake_train)
    code = cli.main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run"), "--config", str(path)])
    return code, models


@pytest.mark.parametrize("config, named", [
    (dict(TINY_CONFIG, trian={"epochs": 3}), "trian"),
    ({"model": dict(TINY_CONFIG["model"], layers=2)}, "model.layers"),
    # a config has no data section: the split is fixed
    (dict(TINY_CONFIG, data={"ratio": [0.5, 0.3, 0.2]}), "data"),
    (dict(TINY_CONFIG, data={"ratios": [0.6, 0.2, 0.2]}), "data"),
    ({"model": dict(TINY_CONFIG["model"], task="classification")}, "model.task"),
    # the data decide the model's input and output widths
    ({"model": dict(TINY_CONFIG["model"], in_features=2)}, "model.in_features"),
    ({"model": dict(TINY_CONFIG["model"], out_dim=2)}, "model.out_dim"),
    # AdamW is the only optimizer
    (dict(TINY_CONFIG, train={"optimizer": "adamw"}), "train.optimizer"),
], ids=["section", "model-key", "data-key", "data-section", "model-task",
        "model-in-features", "model-out-dim", "train-optimizer"])
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
                        "top_k": 4, "sink_gate_enabled": False,
                        "n_layers": 2, "ffn_dim": 8, "hc_mode": "liquid",
                        "hc_streams": 2, "max_len": 128, "seed": 3},
              "train": {"lr": 0.01, "betas": [0.8, 0.9],
                        "weight_decay": 0.1, "epochs": 2, "batch_size": 4,
                        "loss": "mae", "metric": "mse", "seed": 5,
                        "grad_clip": 2.0}}
    code, [(model, tcfg)] = _train_with_config(tmp_path, monkeypatch, config)
    assert code == 0
    lan = model.cfg.lan
    assert (lan.d_model, lan.heads, lan.euler_steps, lan.top_k,
            lan.sink_gate_enabled, lan.causal) == (8, 2, 3, 4, False, False)
    for key in ("n_layers", "hc_mode", "hc_streams", "max_len", "seed"):
        assert getattr(model.cfg, key) == config["model"][key], key
    assert tcfg.betas == (0.8, 0.9)
    for key in ("lr", "epochs", "metric", "seed", "grad_clip"):
        assert getattr(tcfg, key) == config["train"][key], key


@pytest.mark.parametrize("flags", [["--folds", "0"], ["--folds", "-3"],
                                   ["--folds", "2"], ["--epochs", "1"]],
                         ids=["train-zero-folds", "train-negative-folds",
                              "train-two-folds", "train-epochs"])
def test_train_has_no_folds_or_epochs_flag(tmp_path, monkeypatch, capsys, flags):
    # the split is fixed, and epochs come only from the config's train.epochs
    trained = []
    monkeypatch.setattr(TR, "train", lambda *args: trained.append(1))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["train", "--data", str(tmp_path / "spirals.csv"), "--out",
                  str(tmp_path / "run"), *flags])
    assert exit_.value.code == 2 and not trained
    # the error names train and its usage, not the top-level parser
    err = capsys.readouterr().err
    assert err.startswith("usage: fluid train [-h] --data DATA --out OUT"), err
    assert err.endswith("fluid train: error: unrecognized arguments: "
                        f"{' '.join(flags)}\n"), err


def test_an_unknown_option_names_the_subcommand_that_ran(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["generate", "spiral", "--bogus", "--out", "s.csv"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fluid generate spiral [-h]"), err
    assert err.endswith("fluid generate spiral: error: unrecognized "
                        "arguments: --bogus\n"), err


def test_train_on_one_sequence_exits_2_without_training(tmp_path, capsys):
    # the single split holds out the only sequence for validation
    data = tmp_path / "one.csv"
    D.write_dataset_csv(str(data), D.generate_spirals(
        D.SpiralSpec(n_spirals=1, n_points=30, n_subsample=12)))
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        "fluid train: training data holds no sequence (1 held out for "
        "validation)\n")
    assert not run.exists()


def test_generate_train_eval_pipeline(tmp_path):
    data, config = _tiny_run(tmp_path)
    run = tmp_path / "run"
    proc = run_fluid("train", "--data", str(data), "--out", str(run),
                     "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    # one line, in the shape of eval's report
    summary = json.loads(proc.stdout)
    assert summary["metric"] == "mae" and summary["value"] > 0
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


def test_train_divergence_exits_1_naming_the_gate_traces(tmp_path, monkeypatch,
                                                         capsys):
    data, config = _tiny_run(tmp_path)
    dump = str(tmp_path / "run" / "diverged_gate_traces")

    def diverge(model, train_data, val_data, cfg, out_dir):
        raise TR.TrainingDiverged("non-finite loss nan at epoch 0", dump)

    monkeypatch.setattr(TR, "train", diverge)
    assert cli.main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run"), "--config", str(config)]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == (
        f"training diverged: non-finite loss nan at epoch 0; gate traces in "
        f"{dump}\n")


def test_train_without_metric_prints_valid_json(tmp_path, capsys):
    data, config = _tiny_run(tmp_path, epochs=0)
    assert cli.main(["train", "--data", str(data), "--out",
                     str(tmp_path / "run"), "--config", str(config)]) == 0
    # plain json.loads accepts NaN; this parse does not
    summary = json.loads(capsys.readouterr().out,
                         parse_constant=_reject_constant)
    assert summary == {"metric": "mae", "value": None}


@pytest.mark.parametrize("case", ["generate-subsample",
                                  "eval-missing-checkpoint",
                                  "train-missing-config", "train-malformed-config",
                                  "train-missing-data", "train-heads", "train-empty-data",
                                  "train-negative-batch",
                                  "train-negative-layers", "train-zero-ffn",
                                  "train-key-list-config", "train-list-config",
                                  "generate-zero-subsample",
                                  "train-one-point-sequence",
                                  "train-header-only", "eval-header-only",
                                  "train-null-section", "train-list-section",
                                  "train-number-betas", "train-false-betas",
                                  "train-true-betas", "train-string-lr",
                                  "train-string-heads",
                                  "train-fractional-steps",
                                  "train-string-layers",
                                  "train-string-streams",
                                  "train-fractional-ffn",
                                  "train-string-sink-gate-enabled",
                                  "train-old-sink-gate-key",
                                  "eval-string-causal", "train-unknown-gate-mode",
                                  "train-gate-mode", "eval-sdpa-frozen-manifest",
                                  "train-epsilon", "train-static-hc",
                                  "eval-zero-heads-manifest",
                                  "eval-bogus-hc-mode-manifest",
                                  "eval-static-hc-manifest",
                                  "eval-zero-in-features", "eval-zero-out-dim",
                                  "train-zero-max-len", "train-negative-seed",
                                  "train-negative-train-seed",
                                  "generate-negative-seed",
                                  "verify-negative-seed",
                                  "generate-negative-noise",
                                  "generate-nan-noise",
                                  "eval-three-feature-data",
                                  "train-blank-line-data",
                                  "train-short-row-data",
                                  "train-nan-feature-data",
                                  "eval-nan-feature-data",
                                  "train-text-seq-id-data",
                                  "train-text-time-data",
                                  "train-decreasing-times-data",
                                  "eval-mask-two-data",
                                  "train-no-feature-data",
                                  "eval-number-manifest",
                                  "eval-number-manifest-config"])
def test_usage_errors_exit_2_with_one_line(tmp_path, capsys, recwarn, case):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{\"d_model\": ")
    missing = str(tmp_path / "missing")
    data, empty = tmp_path / "spirals.csv", tmp_path / "empty.csv"
    spirals = D.generate_spirals(
        D.SpiralSpec(n_spirals=10, n_points=30, n_subsample=12))
    D.write_dataset_csv(str(data), spirals)
    empty.write_text("")
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("seq_id,t,feature_0,feature_1,mask\n")
    checkpoint = str(tmp_path / "ckpt")
    if case.startswith("eval-") and case != "eval-missing-checkpoint":
        M.save_checkpoint(M.FluidModel(cli._model_config(TINY_CONFIG)),
                          checkpoint)
    # a checkpoint whose manifest holds a bad value: (keys, value)
    edits = {"eval-string-causal": (("config", "lan", "causal"), "yes"),
             "eval-zero-in-features": (("config", "in_features"), 0),
             "eval-zero-out-dim": (("config", "out_dim"), 0),
             "eval-number-manifest-config": (("config",), 3),
             "eval-sdpa-frozen-manifest": (("config", "gate_mode"),
                                           "sdpa_frozen"),
             "eval-zero-heads-manifest": (("config", "lan", "heads"), 0),
             "eval-bogus-hc-mode-manifest": (("config", "hc_mode"), "bogus"),
             "eval-static-hc-manifest": (("config", "hc_mode"), "static")}
    if case in edits:
        manifest = Path(checkpoint, "manifest.json")
        saved = json.loads(manifest.read_text())
        (*keys, last), value = edits[case]
        node = saved
        for key in keys:
            node = node[key]
        node[last] = value
        manifest.write_text(json.dumps(saved))
    if case == "eval-number-manifest":
        Path(checkpoint, "manifest.json").write_text("3")
    # the spirals with their first feature again as a third one
    three = tmp_path / "three.csv"
    D.write_dataset_csv(str(three), [
        D.EventSequence(values=s.values[:, [0, 1, 0]], times=s.times,
                        mask=s.mask) for s in spirals])
    # a blank third line, and rows that lack the feature_1 column
    rows = data.read_text().splitlines(keepends=True)
    blank, short = tmp_path / "blank.csv", tmp_path / "short.csv"
    blank.write_text("".join(rows[:2] + ["\n"] + rows[2:]))
    short.write_text("".join(rows[:1] + [
        ",".join(r.split(",")[:3] + r.split(",")[4:]) for r in rows[1:]]))
    # a nan feature in the last sequence, which a split holds out
    nan_feature = tmp_path / "nan_feature.csv"
    last = rows[-1].split(",")
    nan_feature.write_text("".join(rows[:-1] + [",".join(last[:2] + ["nan"]
                                                         + last[3:])]))
    # the second row's seq_id, time or mask replaced by an unparsable value
    unparsable = {}
    for name, column, value in (("text_seq_id", 0, "x"), ("text_time", 1, "t"),
                                ("mask_two", -1, "2")):
        fields = rows[2].rstrip("\n").split(",")
        fields[column] = value
        unparsable[name] = tmp_path / f"{name}.csv"
        unparsable[name].write_text("".join(rows[:2] + [",".join(fields) + "\n"]
                                            + rows[3:]))
    # the first sequence's second and third times swapped
    decreasing = tmp_path / "decreasing.csv"
    decreasing.write_text("".join(rows[:2] + [rows[3], rows[2]] + rows[4:]))
    # the spirals without their feature columns
    no_feature = tmp_path / "no_feature.csv"
    no_feature.write_text("".join(
        ",".join(r.split(",")[:2] + r.split(",")[-1:]) for r in rows))
    one_point = tmp_path / "one_point.csv"
    D.write_dataset_csv(str(one_point), D.read_dataset_csv(str(data)) + [
        D.EventSequence(values=[[0.1, 0.2]], times=[1.0], mask=[True])])
    configs = {"train-heads": {"model": {"heads": 0}},
               "train-negative-batch": dict(TINY_CONFIG, train={"batch_size": -1}),
               "train-negative-layers": {"model": {"n_layers": -2}},
               "train-zero-ffn": {"model": {"ffn_dim": 0}},
               "train-key-list-config": ["model"], "train-list-config": [1],
               "train-null-section": {"model": None},
               "train-list-section": dict(TINY_CONFIG, train=[1]),
               "train-number-betas": dict(TINY_CONFIG, train={"betas": 3}),
               "train-false-betas": dict(TINY_CONFIG,
                                         train={"betas": [False, 0.9]}),
               "train-true-betas": dict(TINY_CONFIG,
                                        train={"betas": [True, 0.9]}),
               "train-string-lr": dict(TINY_CONFIG, train={"lr": "x"}),
               "train-string-heads": {"model": {"heads": "x"}},
               "train-fractional-steps": {"model": {"euler_steps": 2.5}},
               "train-string-layers": {"model": {"n_layers": "x"}},
               "train-string-streams": {"model": {"hc_mode": "liquid",
                                                  "hc_streams": "x"}},
               "train-fractional-ffn": {"model": {"ffn_dim": 2.5}},
               "train-string-sink-gate-enabled":
                   {"model": {"sink_gate_enabled": "no"}},
               "train-old-sink-gate-key": {"model": {"sink_gate": False}},
               "train-unknown-gate-mode": {"model": {"gate_mode": "x"}},
               "train-gate-mode": {"model": {"gate_mode": "recurrent"}},
               "train-epsilon": {"model": {"epsilon": 1e-3}},
               "train-static-hc": {"model": {"hc_mode": "static",
                                             "hc_streams": 2}},
               "train-zero-max-len": {"model": {"max_len": 0}},
               "train-negative-seed": {"model": {"seed": -1}},
               "train-negative-train-seed": dict(TINY_CONFIG, train={"seed": -1})}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(configs.get(case, TINY_CONFIG)))
    train = ["train", "--out", str(tmp_path / "run"), "--config", str(config),
             "--data"]
    argv = {
        "generate-subsample": ["generate", "spiral", "--points", "10",
                               "--subsample", "20",
                               "--out", str(tmp_path / "s.csv")],
        "eval-missing-checkpoint": ["eval", "--checkpoint", missing,
                                    "--data", missing],
        "train-missing-config": ["train", "--data", str(data), "--out",
                                 str(tmp_path / "run"), "--config", missing],
        "train-malformed-config": ["train", "--data", str(data), "--out",
                                   str(tmp_path / "run"), "--config",
                                   str(malformed)],
        "train-missing-data": train + [missing],
        "train-heads": train + [str(data)],
        "train-empty-data": train + [str(empty)],
        "train-negative-batch": train + [str(data)],
        "train-negative-layers": train + [str(data)],
        "train-zero-ffn": train + [str(data)],
        "train-key-list-config": train + [str(data)],
        "train-list-config": train + [str(data)],
        "generate-zero-subsample": ["generate", "spiral", "--subsample", "0",
                                    "--out", str(tmp_path / "s.csv")],
        "train-one-point-sequence": train + [str(one_point)],
        "train-header-only": train + [str(header_only)],
        "eval-header-only": ["eval", "--checkpoint", checkpoint,
                             "--data", str(header_only)],
        "train-null-section": train + [str(data)],
        "train-list-section": train + [str(data)],
        "train-number-betas": train + [str(data)],
        "train-false-betas": train + [str(data)],
        "train-true-betas": train + [str(data)],
        "train-string-lr": train + [str(data)],
        "train-string-heads": train + [str(data)],
        "train-fractional-steps": train + [str(data)],
        "train-string-layers": train + [str(data)],
        "train-string-streams": train + [str(data)],
        "train-fractional-ffn": train + [str(data)],
        "train-string-sink-gate-enabled": train + [str(data)],
        "train-old-sink-gate-key": train + [str(data)],
        "eval-string-causal": ["eval", "--checkpoint", checkpoint,
                               "--data", str(data)],
        "train-unknown-gate-mode": train + [str(data)],
        "train-gate-mode": train + [str(data)],
        "eval-sdpa-frozen-manifest": ["eval", "--checkpoint", checkpoint,
                                      "--data", str(data)],
        "train-epsilon": train + [str(data)],
        "train-static-hc": train + [str(data)],
        "eval-zero-heads-manifest": ["eval", "--checkpoint", checkpoint,
                                     "--data", str(data)],
        "eval-bogus-hc-mode-manifest": ["eval", "--checkpoint", checkpoint,
                                        "--data", str(data)],
        "eval-static-hc-manifest": ["eval", "--checkpoint", checkpoint,
                                    "--data", str(data)],
        "eval-zero-in-features": ["eval", "--checkpoint", checkpoint,
                                  "--data", str(data)],
        "eval-zero-out-dim": ["eval", "--checkpoint", checkpoint,
                              "--data", str(data)],
        "train-zero-max-len": train + [str(data)],
        "train-negative-seed": train + [str(data)],
        "train-negative-train-seed": train + [str(data)],
        "generate-negative-seed": ["generate", "spiral", "--seed", "-1",
                                   "--out", str(tmp_path / "s.csv")],
        "verify-negative-seed": ["verify", "--seed", "-1"],
        "generate-negative-noise": ["generate", "spiral", "--noise", "-0.5",
                                    "--out", str(tmp_path / "s.csv")],
        "generate-nan-noise": ["generate", "spiral", "--noise", "nan",
                               "--out", str(tmp_path / "s.csv")],
        "eval-three-feature-data": ["eval", "--checkpoint", checkpoint,
                                    "--data", str(three)],
        "train-blank-line-data": train + [str(blank)],
        "train-short-row-data": train + [str(short)],
        "train-nan-feature-data": train + [str(nan_feature)],
        "eval-nan-feature-data": ["eval", "--checkpoint", checkpoint,
                                  "--data", str(nan_feature)],
        "train-text-seq-id-data": train + [str(unparsable["text_seq_id"])],
        "train-text-time-data": train + [str(unparsable["text_time"])],
        "train-decreasing-times-data": train + [str(decreasing)],
        "eval-mask-two-data": ["eval", "--checkpoint", checkpoint,
                               "--data", str(unparsable["mask_two"])],
        "train-no-feature-data": train + [str(no_feature)],
        "eval-number-manifest": ["eval", "--checkpoint", checkpoint,
                                 "--data", str(data)],
        "eval-number-manifest-config": ["eval", "--checkpoint", checkpoint,
                                        "--data", str(data)],
    }[case]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"fluid {argv[0]}: ") and err.count("\n") == 1, err
    named = {"train-missing-config": missing,
             "train-malformed-config": malformed, "train-empty-data": empty,
             "train-key-list-config": config, "train-list-config": config, "train-header-only": header_only,
             "eval-header-only": header_only, "train-null-section": config,
             "train-list-section": config, "eval-string-causal": checkpoint,
             "eval-zero-in-features": checkpoint,
             "eval-zero-out-dim": checkpoint}
    if case in named:
        assert str(named[case]) in err, err
    said = {"train-heads": "fluid train: heads must be >= 1\n",  # the whole line
            "generate-zero-subsample": "subsample of two",
            "train-one-point-sequence": "sequence 10 has no conditioning point",
            "train-header-only": "holds no sequences",
            "eval-header-only": "holds no sequences",
            "train-null-section": "section 'model'",
            "train-list-section": "section 'train'",
            "train-number-betas": "betas must be two numbers, not 3",
            "train-false-betas": "betas must be two numbers, not [False, 0.9]",
            "train-true-betas": "betas must be two numbers, not [True, 0.9]",
            "train-string-lr": "lr must be a number, not 'x'",
            "train-string-heads": "heads must be an integer, not 'x'",
            "train-fractional-steps": "euler_steps must be an integer, not 2.5",
            "train-string-layers": "n_layers must be an integer, not 'x'",
            "train-string-streams": "hc_streams must be an integer, not 'x'",
            "train-fractional-ffn": "ffn_dim must be an integer, not 2.5",
            "train-string-sink-gate-enabled":
                "sink_gate_enabled must be true or false, not 'no'",
            "train-old-sink-gate-key": "unknown key(s) in "
                                       f"{config}: model.sink_gate",
            "eval-string-causal": "causal must be true or false, not 'yes'",
            # the model has no gate_mode, whatever its value
            "train-unknown-gate-mode": f"unknown key(s) in {config}: "
                                       "model.gate_mode",
            "train-gate-mode": f"unknown key(s) in {config}: model.gate_mode",
            "eval-sdpa-frozen-manifest": f"fluid eval: {checkpoint}: manifest "
                                         "config has gate_mode 'sdpa_frozen'; "
                                         "only 'recurrent' is built\n",
            # the floor eps is a constant, and hyper-connections are liquid
            "train-epsilon": f"unknown key(s) in {config}: model.epsilon",
            "train-static-hc": "fluid train: unknown hc_mode 'static'\n",
            "eval-zero-heads-manifest": f"fluid eval: {checkpoint}: manifest "
                                        "config does not fit the model: heads "
                                        "must be >= 1\n",
            "eval-bogus-hc-mode-manifest": f"fluid eval: {checkpoint}: manifest "
                                           "config does not fit the model: "
                                           "unknown hc_mode 'bogus'\n",
            "eval-static-hc-manifest": f"fluid eval: {checkpoint}: manifest "
                                       "config does not fit the model: "
                                       "unknown hc_mode 'static'\n",
            "eval-zero-in-features": "in_features must be >= 1",
            "eval-zero-out-dim": "out_dim must be >= 1",
            "train-text-seq-id-data": f"{unparsable['text_seq_id']} line 3: "
                                      "seq_id 'x' is no integer",
            "train-text-time-data": f"{unparsable['text_time']} line 3: times "
                                    "and features must be numbers",
            "train-decreasing-times-data": f"fluid train: {decreasing}: "
                                           "sequence 0: times must be strictly "
                                           "increasing on valid entries\n",
            "eval-mask-two-data": f"{unparsable['mask_two']} line 3: mask '2' "
                                  "is neither 0 nor 1",
            "train-zero-max-len": "max_len must be >= 1",
            "train-negative-seed": "seed must be >= 0",
            "train-negative-train-seed": "seed must be >= 0",
            "generate-negative-seed": "seed must be >= 0",
            "verify-negative-seed": "seed -1 must be >= 0",
            "generate-negative-noise": "fluid generate: noise_std must be >= 0\n",
            "generate-nan-noise":
                "fluid generate: noise_std must be a finite number, not nan\n",
            "eval-three-feature-data":
                "fluid eval: values have 3 features; the model takes 2\n",
            "train-blank-line-data":
                f"fluid train: {blank} line 3: 0 fields, the header has 5\n",
            "train-short-row-data":
                f"fluid train: {short} line 2: 4 fields, the header has 5\n",
            "train-nan-feature-data": f"fluid train: {nan_feature} line "
                                      f"{len(rows)}: times and features must "
                                      "be finite\n",
            "eval-nan-feature-data": f"fluid eval: {nan_feature} line "
                                     f"{len(rows)}: times and features must "
                                     "be finite\n",
            "train-no-feature-data": f"fluid train: {no_feature}: the header "
                                     "has 3 fields, not seq_id, t, a feature "
                                     "and mask\n",
            "eval-number-manifest": f"fluid eval: {checkpoint}: manifest is "
                                    "not a JSON object\n",
            "eval-number-manifest-config": f"fluid eval: {checkpoint}: "
                                           "manifest config is not a JSON "
                                           "object\n"}
    if case in said:
        assert said[case] in err, err
        assert not (tmp_path / "s.csv").exists()
    # no case warns besides the one line
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


def test_eval_prints_a_non_finite_metric_as_json_null(tmp_path, capsys):
    data, _ = _tiny_run(tmp_path)
    model = M.FluidModel(cli._model_config(TINY_CONFIG))
    model.b_o.data[0] = float("nan")     # every prediction is nan
    M.save_checkpoint(model, str(tmp_path / "ckpt"))
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "ckpt"),
                     "--data", str(data)]) == 0
    # plain json.loads accepts NaN; this parse does not
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert report == {"metric": "mae", "value": None, "sequences": 10}


# fields of older manifests: (keys, a value the model is built with, another
# value, or None where any value loads)
_RETIRED = [(("task",), "regression", None),
            (("task",), "classification", None),
            (("gate_mode",), "recurrent", "sdpa_frozen"),
            (("lan", "epsilon"), 0.001, 0.01)]


@pytest.mark.parametrize("keys, built, other", _RETIRED,
                         ids=["task-regression", "task-classification",
                              "gate-mode", "lan-epsilon"])
def test_eval_drops_a_retired_manifest_field_only_at_its_built_value(
        tmp_path, capsys, keys, built, other):
    data, _ = _tiny_run(tmp_path)
    checkpoint = str(tmp_path / "ckpt")
    M.save_checkpoint(M.FluidModel(cli._model_config(
        {"model": dict(TINY_CONFIG["model"], hc_mode="liquid", hc_streams=2)})),
        checkpoint)
    eval_argv = ["eval", "--checkpoint", checkpoint, "--data", str(data)]
    assert cli.main(eval_argv) == 0
    before = capsys.readouterr().out
    manifest = Path(checkpoint, "manifest.json")
    saved = json.loads(manifest.read_text())
    for value in (built, other):
        node = saved["config"]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        manifest.write_text(json.dumps(saved))
        if value is built:
            assert cli.main(eval_argv) == 0
            # the same report to the last digit of the metric
            assert capsys.readouterr().out == before
        elif value is not None:
            assert cli.main(eval_argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"fluid eval: {checkpoint}: manifest config has "
                f"{'.'.join(keys)} {value!r}; only {built!r} is built\n")


def test_eval_rejects_a_manifest_config_that_does_not_fit(tmp_path, capsys):
    data, config = _tiny_run(tmp_path, epochs=0)
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--config", str(config)]) == 0
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
    data, config = _tiny_run(tmp_path, epochs=0)
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--config", str(config)]) == 0
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


def _drop_a_param(checkpoint):
    manifest = checkpoint / "manifest.json"
    saved = json.loads(manifest.read_text())
    saved["params"] = saved["params"][1:]
    manifest.write_text(json.dumps(saved))


def _widen_the_ffn(checkpoint):
    manifest = checkpoint / "manifest.json"
    saved = json.loads(manifest.read_text())
    saved["config"]["ffn_dim"] += 1
    manifest.write_text(json.dumps(saved))


def _append_bytes(checkpoint):
    blob = checkpoint / "tensors.bin"
    blob.write_bytes(blob.read_bytes() + bytes(8))


@pytest.mark.parametrize("edit, problem", [
    (_drop_a_param, "checkpoint parameter names do not match"),
    (_widen_the_ffn, "shape mismatch for "),
    (_append_bytes, "8 trailing bytes after the last tensor"),
], ids=["names", "shape", "trailing"])
def test_eval_names_the_checkpoint_whose_tensors_do_not_fit(tmp_path, capsys,
                                                            edit, problem):
    data, config = _tiny_run(tmp_path, epochs=0)
    run = tmp_path / "run"
    assert cli.main(["train", "--data", str(data), "--out", str(run),
                     "--config", str(config)]) == 0
    edit(run / "final")
    capsys.readouterr()
    assert cli.main(["eval", "--checkpoint", str(run / "final"),
                     "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith(f"fluid eval: {run / 'final'}: {problem}"), err


def test_bench_is_no_command(capsys):
    # perfbench/ measures runtime and memory
    with pytest.raises(SystemExit) as exit_:
        cli.main(["bench"])
    assert exit_.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


def test_verify_exit_codes():
    assert run_fluid("verify", "--suite", "limits").returncode == 0
    assert run_fluid("verify", "--suite", "nope").returncode == 2


@pytest.mark.parametrize("suite, report", [
    ("limits", {"pass": False}),
    ("all", {"limits": {"pass": True}, "gradients": {"pass": False},
             "pass": False}),
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
