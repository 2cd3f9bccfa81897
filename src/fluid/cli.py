"""Command-line surface: generate, train, eval, verify.

Exit codes: 0 on success, 1 on failed verification or diverged training,
2 on usage errors: bad arguments (argparse default), and any ValueError or
OSError a command raises, such as a bad value or a missing or malformed
input file, which is printed as one line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from fluid import attention as A
from fluid import data as D
from fluid import model as M
from fluid import training as TR
from fluid import verify as V


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


def _check_keys(path: str | None, cfg: dict, sections: dict):
    """Raise on the sections of the config file ``path``, and the keys
    within them, that ``sections`` (each section's keys) lacks."""
    unknown = [sec for sec in cfg if sec not in sections]
    for sec in cfg:
        if sec in sections:
            if not isinstance(cfg[sec], dict):
                raise ValueError(f"section {sec!r} of {path} is not a JSON "
                                 "object")
            unknown += [f"{sec}.{key}" for key in cfg[sec]
                        if key not in sections[sec]]
    if unknown:
        raise ValueError(f"unknown key(s) in {path}: "
                         f"{', '.join(sorted(unknown))}")


def _field_names(cls) -> set[str]:
    return {f.name for f in dataclasses.fields(cls)}


# "model" keys of LanConfig fields (the layers set causal); the other
# "model" keys are ModelConfig's
_LAN_KEYS = _field_names(A.LanConfig) - {"causal"}
# the sections of a ``fluid train`` config and the keys each accepts; the
# data decide in_features and out_dim
_TRAIN_SECTIONS = {
    "model": _LAN_KEYS | (_field_names(M.ModelConfig)
                          - {"lan", "in_features", "out_dim"}),
    "train": _field_names(TR.TrainConfig),
}


def _model_config(cfg: dict, in_features: int = 2, out_dim: int = 2) -> M.ModelConfig:
    m = dict(cfg.get("model", {}))
    m.setdefault("d_model", 32)
    lan = A.LanConfig(**{key: m.pop(key) for key in _LAN_KEYS if key in m})
    return M.ModelConfig(lan=lan, in_features=in_features, out_dim=out_dim, **m)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_generate(args) -> int:
    spec = D.SpiralSpec(n_spirals=args.n, n_points=args.points,
                        n_subsample=args.subsample, noise_std=args.noise,
                        seed=args.seed)
    seqs = D.generate_spirals(spec)
    D.write_dataset_csv(args.out, seqs)
    print(f"wrote {len(seqs)} spiral sequences to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_json(args.config)
    _check_keys(args.config, cfg, _TRAIN_SECTIONS)
    tcfg = TR.TrainConfig(**cfg.get("train", {}))
    packed = D.spiral_arrays(D.read_dataset_csv(args.data))
    in_features = packed["values"].shape[-1]
    # the first fifth of the sequences, at least one, validates
    held = max(1, packed["values"].shape[0] // 5)
    train_data = {k: v[held:] for k, v in packed.items()}
    val_data = {k: v[:held] for k, v in packed.items()}
    model = M.FluidModel(_model_config(cfg, in_features, in_features))
    try:
        history = TR.train(model, train_data, val_data, tcfg, args.out)
    except TR.TrainingDiverged as err:
        print(f"training diverged: {err}; gate traces in "
              f"{err.dump_path}", file=sys.stderr)
        return 1
    value = history[-1]["val_metric"] if history else float("nan")
    # no metric (an empty history) is null: JSON has no NaN
    print(json.dumps({"metric": tcfg.metric,
                      "value": value if np.isfinite(value) else None},
                     allow_nan=False))
    return 0


def cmd_eval(args) -> int:
    model = M.load_checkpoint(args.checkpoint)
    seqs = D.read_dataset_csv(args.data)
    packed = D.spiral_arrays(seqs)
    value = TR.evaluate(model, packed, args.metric)
    # a non-finite metric is null: JSON has no NaN
    print(json.dumps({"metric": args.metric,
                      "value": value if np.isfinite(value) else None,
                      "sequences": len(seqs)}, allow_nan=False))
    return 0


def cmd_verify(args) -> int:
    report = V.run_suite(args.suite, seed=args.seed)
    print(json.dumps(report, indent=2))
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fluid",
                                description="Liquid-attention transformer: "
                                            "datasets, training and "
                                            "verification suites.")
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
    gs.set_defaults(func=cmd_generate, parser=gs)

    t = sub.add_parser("train", help="train on a dataset CSV")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config", help="JSON with model and train sections")
    t.set_defaults(func=cmd_train, parser=t)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--metric", default="mae", choices=TR.LOSSES)
    e.set_defaults(func=cmd_eval, parser=e)

    v = sub.add_parser("verify", help="run the property suites, JSON report")
    v.add_argument("--suite", default="all",
                   choices=sorted(V.SUITES) + ["all"])
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify, parser=v)

    return p


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        # the subcommand that ran names its own usage and options
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"fluid {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
