"""Property tests of the ``fluid`` commands: whatever the argument values
or config values, each command exits 0, or exits 2 with exactly one line
on stderr. Any other outcome, a traceback among them, fails. Each example
starts from a working command and changes up to two of its values. Runs
stay tiny (epochs <= 1, sequences of at most 8 points) and the examples
are fixed by the default profile of ``tests/conftest.py``, so the suite
is deterministic.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluid import cli
from fluid import data as D

PROPERTY = settings(max_examples=50)
# zeros, negatives, wrong types, nulls and lists
ODD = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                st.sampled_from([0.0, -1.5, 0.5, 2.5]),
                st.sampled_from(["", "x", "mse", "static"]),
                st.lists(st.integers(-1, 2), max_size=3))
# numbers that argparse takes for an int or float option
ODD_NUMBER = st.sampled_from([0, -1, 1, 30])

# the working values each command starts from
TINY_MODEL = {"d_model": 4, "heads": 2, "euler_steps": 1, "ffn_dim": 4}
SPIRAL_ARGS = {"--n": 2, "--points": 10, "--subsample": 8, "--noise": 0.02,
               "--seed": 0}
# other valid values; "dropout" is no config key
GOOD = {"d_model": [8], "heads": [1], "euler_steps": [2], "ffn_dim": [2],
        "top_k": [None, 1, 3],
        "sink_gate_enabled": [True, False], "n_layers": [0, 2],
        "hc_mode": ["residual", "liquid"], "hc_streams": [1, 2],
        "max_len": [8, 64],
        "seed": [0, 5], "lr": [1e-3, 0.1],
        "betas": [[0.9, 0.999], [0.5, 0.0]], "weight_decay": [0.0, 0.1],
        "epochs": [0, 1], "batch_size": [1, 4], "loss": ["mse", "mae"],
        "metric": ["mae", "mse"], "grad_clip": [0.0, 1.0],
        "dropout": [0.1], "--n": [1, 3], "--points": [8], "--subsample": [2],
        "--noise": [0.0], "--seed": [2]}
MODEL_KEYS = sorted(TINY_MODEL) + [
    "top_k", "sink_gate_enabled", "n_layers", "hc_mode",
    "hc_streams", "max_len", "seed", "dropout"]
TRAIN_KEYS = ["lr", "betas", "weight_decay", "epochs", "batch_size", "loss",
              "metric", "seed", "grad_clip", "dropout"]


def _edits(keys, odd=ODD):
    """Up to two (key, value) pairs over ``keys``, each value valid or odd."""
    entry = st.sampled_from(keys).flatmap(lambda key: st.tuples(
        st.just(key), st.one_of(st.sampled_from(GOOD[key]), odd)))
    return st.lists(entry, max_size=2)


def _argv(options: dict) -> list:
    return [a for pair in options.items() for a in pair]


def _assert_clean_exit(argv):
    """cli.main(argv) exits 0, or 2 with one line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    err = err.getvalue()
    assert code == 0 or (code == 2 and err.count("\n") == 1
                         and err.startswith(f"fluid {argv[0]}: ")), (code, err)


@pytest.fixture(scope="module")
def spirals(tmp_path_factory):
    """Six spirals of eight points and a checkpoint trained on them."""
    root = tmp_path_factory.mktemp("properties")
    data = root / "spirals.csv"
    D.write_dataset_csv(str(data), D.generate_spirals(
        D.SpiralSpec(n_spirals=6, n_points=20, n_subsample=8)))
    config = root / "config.json"
    config.write_text(json.dumps({"model": TINY_MODEL, "train": {"epochs": 1}}))
    assert cli.main(["train", "--data", str(data), "--out", str(root / "run"),
                     "--config", str(config)]) == 0
    return data, root / "run" / "final"


@PROPERTY
@given(edits=_edits(sorted(SPIRAL_ARGS), ODD_NUMBER))
def test_generate_exits_0_or_2_with_one_line(edits):
    with tempfile.TemporaryDirectory() as tmp:
        options = SPIRAL_ARGS | dict(edits)
        _assert_clean_exit(["generate", "spiral", *_argv(options), "--out",
                            os.path.join(tmp, "out.csv")])


@PROPERTY
@given(edits=st.one_of(
           _edits(MODEL_KEYS).map(lambda e: [("model",) + x for x in e]),
           _edits(TRAIN_KEYS).map(lambda e: [("train",) + x for x in e])),
       epochs=st.integers(0, 1))
def test_train_exits_0_or_2_with_one_line(spirals, edits, epochs):
    config = {"model": dict(TINY_MODEL), "train": {"epochs": epochs}}
    for section, key, value in edits:
        config[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        _assert_clean_exit(["train", "--data", spirals[0], "--out",
                            os.path.join(tmp, "run"), "--config", path])


@PROPERTY
@given(edits=_edits(sorted(TINY_MODEL) + ["n_layers", "hc_mode", "max_len",
                                          "seed", "dropout"]),
       metric=st.sampled_from(["mae", "mse"]))
def test_eval_exits_0_or_2_with_one_line(spirals, edits, metric):
    data, checkpoint = spirals
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = shutil.copytree(checkpoint, os.path.join(tmp, "ckpt"))
        manifest = os.path.join(ckpt, "manifest.json")
        with open(manifest) as fh:
            saved = json.load(fh)
        for key, value in edits:
            config = saved["config"]
            (config["lan"] if key in TINY_MODEL else config)[key] = value
        with open(manifest, "w") as fh:
            json.dump(saved, fh)
        _assert_clean_exit(["eval", "--checkpoint", ckpt, "--data", data,
                            "--metric", metric])
