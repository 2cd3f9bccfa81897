"""Command-line surface: generate, train, eval, verify, bench.

Exit codes: 0 on success, 1 on failed verification or diverged training,
2 on usage errors: bad arguments (argparse default), and any ValueError or
OSError a command raises, such as a bad value or a missing or malformed
input file, which is printed as one line. The environment variable
FLUID_SEED overrides every configured seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

import numpy as np

from fluid import attention as A
from fluid import bench as BN
from fluid import data as D
from fluid import model as M
from fluid import training as TR
from fluid import verify as V


def _seed_override(seed: int) -> int:
    env = os.environ.get("FLUID_SEED")
    return int(env) if env else seed


def _load_json(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"{path} does not hold a JSON object")
    return cfg


def _check_keys(path: str | None, cfg: dict, known):
    """Raise on the keys of the config file ``path`` that ``known`` lacks
    (a dict ``known`` gives each section's keys)."""
    unknown = [key for key in cfg if key not in known]
    for sec in cfg:
        if isinstance(known, dict) and sec in known:
            if not isinstance(cfg[sec], dict):
                raise ValueError(f"section {sec!r} of {path} is not a JSON "
                                 "object")
            unknown += [f"{sec}.{key}" for key in cfg[sec]
                        if key not in known[sec]]
    if unknown:
        raise ValueError(f"unknown key(s) in {path}: "
                         f"{', '.join(sorted(unknown))}")


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


# "model" keys of LanConfig fields; the other "model" keys are ModelConfig's
_LAN_KEYS = {key: key for key in ("d_model", "heads", "euler_steps", "top_k",
                                  "epsilon")} | {"sink_gate": "sink_gate_enabled"}
# the sections of a ``fluid train`` config and the keys each accepts; the
# data decide in_features and out_dim
_TRAIN_SECTIONS = {
    "model": set(_LAN_KEYS) | (_field_names(M.ModelConfig)
                               - {"lan", "in_features", "out_dim"}),
    "train": _field_names(TR.TrainConfig),
    "data": {"ratios"},
}


def _model_config(cfg: dict, in_features: int = 2, out_dim: int = 2) -> M.ModelConfig:
    m = dict(cfg.get("model", {}))
    m.setdefault("d_model", 32)
    lan = A.LanConfig(**{field: m.pop(key) for key, field in _LAN_KEYS.items()
                         if key in m})
    m["seed"] = _seed_override(m.get("seed", 0))
    return M.ModelConfig(lan=lan, in_features=in_features, out_dim=out_dim, **m)


def _train_config(cfg: dict) -> TR.TrainConfig:
    t = dict(cfg.get("train", {}))
    t["seed"] = _seed_override(t.get("seed", 0))
    return TR.TrainConfig(**t)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if args.kind == "spiral":
        spec = D.SpiralSpec(n_spirals=args.n, n_points=args.points,
                            n_subsample=args.subsample, noise_std=args.noise,
                            seed=_seed_override(args.seed))
        seqs = D.generate_spirals(spec)
        D.write_dataset_csv(args.out, seqs)
        print(f"wrote {len(seqs)} spiral sequences to {args.out}")
        return 0
    if args.kind == "events":
        with warnings.catch_warnings():     # an empty file fails below
            warnings.simplefilter("ignore")
            pixels = np.loadtxt(args.pixels, delimiter=",", ndmin=2)
        seqs = [D.event_encode(row, threshold=args.threshold,
                               pad_to=args.pad_to) for row in pixels]
        D.write_dataset_csv(args.out, seqs)
        print(f"wrote {len(seqs)} event sequences to {args.out}")
        return 0
    raise AssertionError(args.kind)


def _fold_indices(n: int, folds: int, rng: np.random.Generator):
    order = rng.permutation(n)
    return np.array_split(order, folds)


def cmd_train(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(args.config, cfg, _TRAIN_SECTIONS)
    tcfg = _train_config(cfg)
    if args.epochs is not None:
        tcfg = dataclasses.replace(tcfg, epochs=args.epochs)
    seqs = D.read_dataset_csv(args.data)
    ratios = cfg.get("data", {}).get("ratios", (0.6, 0.2, 0.2))
    packed = D.spiral_arrays(seqs, ratios)
    in_features = packed["values"].shape[-1]

    n = packed["values"].shape[0]
    folds = args.folds
    if not 1 <= folds <= n:
        raise ValueError(f"--folds {folds} is not between 1 and the {n} "
                         f"sequences in {args.data}")
    rng = np.random.default_rng(tcfg.seed)
    parts = (_fold_indices(n, folds, rng) if folds > 1
             else [np.arange(max(1, n // 5))])

    metrics = []
    for fold, held in enumerate(parts):
        mask = np.zeros(n, dtype=bool)
        mask[held] = True
        train_data = {k: v[~mask] for k, v in packed.items()}
        val_data = {k: v[mask] for k, v in packed.items()}
        model = M.FluidModel(_model_config(cfg, in_features, in_features))
        out_dir = os.path.join(args.out, f"fold{fold}") if folds > 1 else args.out
        try:
            history = TR.train(model, train_data, val_data, tcfg, out_dir=out_dir)
        except TR.TrainingDiverged as err:
            print(f"training diverged: {err}", file=sys.stderr)
            return 1
        os.makedirs(out_dir, exist_ok=True)
        TR.write_history_csv(os.path.join(out_dir, "history.csv"), history)
        M.save_checkpoint(model, os.path.join(out_dir, "final"))
        final = history[-1]["val_metric"] if history else float("nan")
        metrics.append(final)
        print(f"fold {fold}: final {tcfg.metric} = {final:.6f}")
    # no metric (an empty history) is null: JSON has no NaN
    mean, std = (float(v) if np.isfinite(v) else None
                 for v in (np.mean(metrics), np.std(metrics)))
    summary = {"folds": folds, "metric": tcfg.metric, "mean": mean, "std": std}
    print(json.dumps(summary, allow_nan=False))
    return 0


def cmd_eval(args) -> int:
    model = M.load_checkpoint(args.checkpoint)
    seqs = D.read_dataset_csv(args.data)
    packed = D.spiral_arrays(seqs, args.ratios)
    value = TR.evaluate(model, packed, args.metric)
    print(json.dumps({"metric": args.metric, "value": value,
                      "sequences": len(seqs)}))
    return 0


def cmd_verify(args) -> int:
    report = V.run_suite(args.suite, seed=_seed_override(args.seed))
    print(json.dumps(report, indent=2))
    ok = report["pass"] if "pass" in report else all(
        r.get("pass", False) for r in report.values() if isinstance(r, dict))
    return 0 if ok else 1


def cmd_bench(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(args.config, cfg, _field_names(BN.BenchDims))
    dims = BN.BenchDims(**{"d_model": args.d_model, "heads": args.heads,
                           "seq_len": args.seq_len, "top_k": args.top_k} | cfg)
    dims = dataclasses.replace(dims, seed=_seed_override(dims.seed))
    report = BN.bench(dims, reps=args.reps)
    print("run_time_s,throughput_seq_per_s,peak_memory_mb")
    print(f"{report['run_time_s']:.6f},{report['throughput_seq_per_s']:.4f},"
          f"{report['peak_memory_mb']:.3f}")
    print(json.dumps(report, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fluid",
                                description="Liquid-attention transformer: "
                                            "datasets, training, verification "
                                            "suites, and benchmarks.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset CSV")
    gsub = g.add_subparsers(dest="kind", required=True)
    gs = gsub.add_parser("spiral", help="irregularly subsampled noisy spirals")
    gs.add_argument("--n", type=int, default=300)
    gs.add_argument("--points", type=int, default=150)
    gs.add_argument("--subsample", type=int, default=50)
    gs.add_argument("--noise", type=float, default=0.02)
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("--out", required=True)
    gs.set_defaults(func=cmd_generate)
    ge = gsub.add_parser("events", help="run-length encode pixel rows")
    ge.add_argument("--pixels", required=True,
                    help="CSV of pixel intensities, one sequence per row")
    ge.add_argument("--threshold", type=float, default=128.0)
    ge.add_argument("--pad-to", type=int, default=256)
    ge.add_argument("--out", required=True)
    ge.set_defaults(func=cmd_generate)

    t = sub.add_parser("train", help="train on a dataset CSV")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", help="JSON with model/train/data sections")
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--folds", type=int, default=1,
                   help="k-fold cross-validation loop (1 = single split)")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--metric", default="mae", choices=["mae", "mse"])
    e.add_argument("--ratios", type=float, nargs=3, default=(0.6, 0.2, 0.2))
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="run the property suites, JSON report")
    v.add_argument("--suite", default="all",
                   choices=sorted(V.SUITES) + ["all"])
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="runtime/memory benchmark")
    b.add_argument("--config", help="JSON with bench dims")
    b.add_argument("--d-model", type=int, default=64)
    b.add_argument("--heads", type=int, default=4)
    b.add_argument("--seq-len", type=int, default=1024)
    b.add_argument("--top-k", type=int, default=None)
    b.add_argument("--reps", type=int, default=10)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"fluid {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
