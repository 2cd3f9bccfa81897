"""Traced run: spans around the public entry points of each layer.

The tracer replaces module attributes and class methods of ``fluid`` with
wrappers that record a span (name, start, end, parent, unit) and, at a few
points, a count read from the arguments or the result. Internal calls go
through module attribute lookups, so patching the attribute catches them.
A wrap point that no longer exists, or whose arguments or result no longer
have the expected form, makes the metrics that depend on it report as
missing; it never stops the run.

Self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import defaultdict
from statistics import median

MB = 1e6
FORWARD_SPANS = ("model.forward", "model.layer")


def _pair_hook(tr, args, kwargs, result):
    valid = result.valid_mask
    tr.count("pairs", valid.size)
    tr.count("valid_pairs", int(valid.sum()))


def _gate_hook(tr, args, kwargs, result):
    u, n_steps = args[1], args[2]
    tr.count("pair_steps", (u.size // u.shape[-1]) * n_steps)


def _traj_hook(tr, args, kwargs, result):
    traj = result[1]
    tr.extreme("dt_ratio_min", traj.dt_effective / traj.dt_nominal, min)
    tr.extreme("f_tau_max", float(traj.f_tau.max()), max)


def _tensor_hook(tr, args, kwargs, result):
    tr.count("tensors", 1)


# (module of fluid, attribute path, span name or None to count only, hook)
WRAP_POINTS = [
    ("pairs", "full_pairwise_concat", "pairs.curate", _pair_hook),
    ("pairs", "topk_concat", "pairs.curate", _pair_hook),
    ("attention", "RecurrentGateCore.unroll", "attention.gate_unroll", _gate_hook),
    ("attention", "integrate_logits", "attention.integrate", _traj_hook),
    ("attention", "MultiHeadLan.forward", "attention.mhl", None),
    ("tensor", "gather_keys", "tensor.gather_keys", None),
    ("tensor", "masked_softmax", "tensor.masked_softmax", None),
    ("tensor", "backward", "tensor.backward", None),
    ("tensor", "Tensor.__init__", None, _tensor_hook),
    ("hyper", "hc_block", "hyper.hc_block", None),
    ("model", "FluidModel.forward", "model.forward", None),
    ("model", "FluidModel.embed", "model.embed", None),
    ("model", "FluidModel.encoder_forward", "model.encoder", None),
    ("model", "FluidModel.decoder_forward", "model.decoder", None),
    ("model", "EncoderLayer.forward", "model.layer", None),
    ("model", "DecoderLayer.forward", "model.layer", None),
    ("training", "loss", "training.loss", None),
    ("training", "clip_global_norm", "training.clip", None),
    ("training", "adamw_step", "training.adamw", None),
]


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the point is gone."""
    try:
        owner = importlib.import_module(f"fluid.{module}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    return (owner, attr, original) if callable(original) else None


class Tracer:
    """Records spans and counts in memory while installed."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, unit]
        self.stack: list[int] = []
        self.unit = None
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.broken: set[str] = set()   # wrap points gone, hooks failed
        self.memory = False             # record phase peaks with tracemalloc
        self._saved: list = []

    # -- installation -------------------------------------------------------

    def install(self):
        for module, path, name, hook in WRAP_POINTS:
            key = f"{module}.{path}"
            point = _resolve(module, path)
            if point is None:
                self.broken.add(key)
                continue
            owner, attr, original = point
            self._saved.append(point)
            setattr(owner, attr, self._wrap(key, original, name, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, key, fn, name, hook):
        tracer = self
        if name == "hyper.hc_block":
            # the sublayer gets a span too, so hc_block's self time is the
            # hyper-connection work alone
            def call(*args, **kwargs):
                if len(args) == 3 and not kwargs and callable(args[2]):
                    args = args[:2] + (tracer.spanned("hyper.sublayer", args[2]),)
                else:
                    tracer.broken.add(key)
                return fn(*args, **kwargs)
        else:
            call = fn

        def wrapper(*args, **kwargs):
            if name is None:
                result = call(*args, **kwargs)
            else:
                idx = tracer.open(name)
                try:
                    result = call(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if hook is not None and tracer.unit is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError,
                        ValueError):
                    tracer.broken.add(key + HOOK)
            return result

        return wrapper

    def spanned(self, name, fn):
        def run(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return run

    # -- spans and counts ---------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        if self.memory and len(self.stack) == 1 and (
                name in FORWARD_SPANS or name == "tensor.backward"):
            tracemalloc.reset_peak()
            self._mem_base = tracemalloc.get_traced_memory()[0]
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self.stack.pop()
        if self.memory and len(self.stack) == 1:
            phase = ("forward_peak_mb" if span[0] in FORWARD_SPANS else
                     "backward_peak_mb" if span[0] == "tensor.backward" else None)
            if phase is not None:
                peak = (tracemalloc.get_traced_memory()[1] - self._mem_base) / MB
                self.extreme(phase, peak, max)

    def count(self, key: str, n: float):
        self.counts[self.unit][key] += n

    def extreme(self, key: str, value: float, pick):
        c = self.counts[self.unit]
        c[key] = value if key not in c else pick(c[key], value)

    def begin_unit(self, unit: int):
        self.unit = unit
        self.open("unit")

    def end_unit(self):
        self.close(self.stack[-1])
        self.unit = None

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "unit": u}
                for n, s, e, p, u in self.spans]


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Duration minus the union of the child intervals, per span."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


GATE = "attention.RecurrentGateCore.unroll"
INTEGRATE = "attention.integrate_logits"
CURATE = ["pairs.full_pairwise_concat", "pairs.topk_concat"]
HOOK = "#hook"  # suffix: the count read at that wrap point

# metric -> (unit, wrap points it needs)
PER_LAYER = {
    "attention.gate_unroll_s": ("s", [GATE]),
    "attention.gate_ns_per_pair_step": ("ns", [GATE, GATE + HOOK]),
    "attention.integrate_s": ("s", [INTEGRATE]),
    "attention.mhl_self_s": ("s", ["attention.MultiHeadLan.forward"]),
    "attention.dt_ratio_min": ("ratio", [INTEGRATE, INTEGRATE + HOOK]),
    "attention.f_tau_max": ("1/t", [INTEGRATE, INTEGRATE + HOOK]),
    "pairs.curate_s": ("s", CURATE),
    "pairs.pairs_per_unit": ("count", CURATE + [c + HOOK for c in CURATE]),
    "pairs.valid_frac": ("ratio", CURATE + [c + HOOK for c in CURATE]),
    "tensor.gather_keys_s": ("s", ["tensor.gather_keys"]),
    "tensor.masked_softmax_s": ("s", ["tensor.masked_softmax"]),
    "tensor.backward_s": ("s", ["tensor.backward"]),
    "tensor.tensors_per_unit": ("count", ["tensor.Tensor.__init__"]),
    "model.forward_peak_mb": ("MB", ["model.FluidModel.forward",
                                     "model.EncoderLayer.forward"]),
    "tensor.backward_peak_mb": ("MB", ["tensor.backward"]),
    "model.embed_s": ("s", ["model.FluidModel.embed"]),
    "model.encoder_s": ("s", ["model.FluidModel.encoder_forward"]),
    "model.decoder_s": ("s", ["model.FluidModel.decoder_forward"]),
    "model.layer_self_s": ("s", ["model.EncoderLayer.forward",
                                 "model.DecoderLayer.forward",
                                 "hyper.hc_block"]),
    "hyper.hc_block_self_s": ("s", ["hyper.hc_block"]),
    "training.loss_s": ("s", ["training.loss"]),
    "training.clip_s": ("s", ["training.clip_global_norm"]),
    "training.adamw_s": ("s", ["training.adamw_step"]),
    "trace.coverage": ("ratio", []),
    "trace.overhead_frac": ("ratio", []),
}


def unit_breakdown(spans: list[list], counts: dict) -> dict[int, dict]:
    """Per traced unit: self and total seconds by span name, plus counts."""
    selfs = self_times(spans)
    per_unit: dict = defaultdict(lambda: {"self": defaultdict(float),
                                          "total": defaultdict(float)})
    roots = {}
    for i, (name, start, end, parent, unit) in enumerate(spans):
        if unit is None:
            continue
        if name == "unit":
            roots[i] = unit
            per_unit[unit]["unit_s"] = end - start
            continue
        per_unit[unit]["self"][name] += selfs[i]
        per_unit[unit]["total"][name] += end - start
        if parent in roots:
            per_unit[unit]["top_s"] = per_unit[unit].get("top_s", 0.0) + end - start
    for unit, row in per_unit.items():
        row["counts"] = counts.get(unit, {})
    return dict(per_unit)


def _unit_metrics(row: dict) -> dict[str, float]:
    s, t, c = row["self"], row["total"], row["counts"]
    pair_steps = c.get("pair_steps", 0)
    pairs_formed = c.get("pairs", 0)
    return {
        "attention.gate_unroll_s": s["attention.gate_unroll"],
        "attention.gate_ns_per_pair_step": (
            s["attention.gate_unroll"] * 1e9 / pair_steps if pair_steps else 0.0),
        "attention.integrate_s": t["attention.integrate"],
        "attention.mhl_self_s": s["attention.mhl"],
        "pairs.curate_s": s["pairs.curate"],
        "pairs.pairs_per_unit": pairs_formed,
        "pairs.valid_frac": (c.get("valid_pairs", 0) / pairs_formed
                             if pairs_formed else 0.0),
        "tensor.gather_keys_s": t["tensor.gather_keys"],
        "tensor.masked_softmax_s": t["tensor.masked_softmax"],
        "tensor.backward_s": t["tensor.backward"],
        "tensor.tensors_per_unit": c.get("tensors", 0),
        "model.embed_s": t["model.embed"],
        "model.encoder_s": t["model.encoder"],
        "model.decoder_s": t["model.decoder"],
        "model.layer_self_s": s["model.layer"] + s["hyper.sublayer"],
        "hyper.hc_block_self_s": s["hyper.hc_block"],
        "training.loss_s": t["training.loss"],
        "training.clip_s": t["training.clip"],
        "training.adamw_s": t["training.adamw"],
        "trace.coverage": row.get("top_s", 0.0) / row["unit_s"],
    }


def per_layer_metrics(tracer: Tracer, timed_units: list[int],
                      memory_unit: int, overhead_frac: float) -> dict:
    """Medians over the timed traced units, extremes over the same units,
    phase peaks from the memory unit. Missing wrap points report None."""
    breakdown = unit_breakdown(tracer.spans, tracer.counts)
    rows = [_unit_metrics(breakdown[u]) for u in timed_units if u in breakdown]
    values = {k: median(r[k] for r in rows) for k in rows[0]} if rows else {}
    all_counts = [tracer.counts.get(u, {}) for u in timed_units]
    values["attention.dt_ratio_min"] = min(
        (c["dt_ratio_min"] for c in all_counts if "dt_ratio_min" in c), default=None)
    values["attention.f_tau_max"] = max(
        (c["f_tau_max"] for c in all_counts if "f_tau_max" in c), default=None)
    mem = tracer.counts.get(memory_unit, {})
    values["model.forward_peak_mb"] = mem.get("forward_peak_mb")
    values["tensor.backward_peak_mb"] = mem.get("backward_peak_mb", 0.0)
    values["trace.overhead_frac"] = overhead_frac

    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        missing = any(n in tracer.broken for n in needs)
        value = None if missing else values.get(name)
        out[name] = {"value": value, "unit": unit}
    return out
