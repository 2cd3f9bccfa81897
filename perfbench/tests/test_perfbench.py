"""Tests of the benchmark itself: tiny-dims smoke runs of every workload,
the output check, self time, and missing wrap points.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probe as PB  # noqa: E402
import run  # noqa: E402
import spans as SP  # noqa: E402
import workloads as W  # noqa: E402

END_TO_END = {"pass_s", "peak_mb", "setup_s"}


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_smoke_untraced(name):
    rec = run.measure(name, seed=3, seconds=0.05, trace=False, tiny=True)
    assert rec["correct"] and rec["failed"] == 0
    assert rec["attempted"] >= run.SETUP_REPS + 2
    assert set(rec["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in rec["metrics"].values())


def test_times_are_calibrated_by_the_probe_after_each_unit():
    rec = run.measure("train_spiral", seed=3, seconds=0.05, trace=False,
                      tiny=True)
    wall = rec["unit_wall_s"]
    ratios = sorted(t / p for t, p in zip(wall["untraced"],
                                          wall["untraced_probes"]))
    assert rec["metrics"]["pass_s"]["value"] == pytest.approx(
        PB.PROBE_S * np.median(ratios))
    setup = rec["setup_wall_s"]
    assert len(setup["builds"]) == len(setup["probes"]) == run.SETUP_REPS
    assert PB.calibrated([2.0, 3.0, 8.0], [0.5, 1.0, 1.0]) == pytest.approx(
        4.0 * PB.PROBE_S)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_smoke_traced(name):
    rec = run.measure(name, seed=3, seconds=0.05, trace=True, tiny=True)
    assert rec["correct"] and rec["failed"] == 0
    metrics = rec["metrics"]
    assert set(metrics) == set(SP.PER_LAYER)
    assert rec["broken_wrap_points"] == []
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["trace.coverage"]["value"] > 0.9
    assert metrics["attention.dt_ratio_min"]["value"] == 1.0
    assert metrics["pairs.pairs_per_unit"]["value"] > 0
    training = name == "train_spiral"
    assert (metrics["tensor.backward_s"]["value"] > 0) == training
    assert (metrics["training.adamw_s"]["value"] > 0) == training
    assert (metrics["hyper.hc_block_self_s"]["value"] > 0) == training


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_output_check_trips_on_one_perturbed_parameter(name):
    wl = W.make(name, seed=5, tiny=True)
    reference = [wl.digest(wl.unit(step)) for step in range(wl.cycle)]
    wl.reset()

    check = W.OutputCheck(wl, reference)
    assert all(check.failure(s, wl.unit(s)) is None for s in range(wl.cycle))
    wl.reset()

    param = next(iter(wl.parameters().values()))
    param.data.reshape(-1)[0] += 1e-4
    if name == "train_spiral":
        wl.initial = {k: p.data.copy() for k, p in wl.parameters().items()}
    check = W.OutputCheck(wl, reference)
    assert check.failure(0, wl.unit(0)) is not None


def test_output_check_trips_on_non_finite_and_drift():
    check = W.OutputCheck(W.make("infer_full_t256", seed=0, tiny=True), None)
    out = np.ones((1, 4, 2))
    assert check.failure(0, out) is None
    assert check.failure(1, out) is None
    assert check.failure(2, out * (1 + 1e-6)) is not None
    assert check.failure(3, np.full((1, 4, 2), np.nan)) == "non-finite output"


def test_self_time_on_nested_spans():
    spans = [
        ["unit", 0.0, 10.0, None, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 4.0, 5.5, 1, 0],
        ["d", 7.0, 9.0, 0, 0],
        ["e", 7.5, 8.5, 4, 0],
    ]
    assert SP.self_times(spans) == pytest.approx([3.0, 2.5, 1.0, 1.5, 1.0, 1.0])
    row = SP.unit_breakdown(spans, {})[0]
    assert row["top_s"] == pytest.approx(7.0)
    assert row["unit_s"] == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 10.0, None, 0],
             ["x", 2.0, 6.0, 0, 0],
             ["y", 4.0, 8.0, 0, 0]]
    assert SP.self_times(spans)[0] == pytest.approx(4.0)


def test_missing_wrap_point_reports_missing(monkeypatch):
    resolve = SP._resolve
    monkeypatch.setattr(SP, "_resolve", lambda module, path: (
        None if path == "integrate_logits" else resolve(module, path)))
    rec = run.measure("infer_full_t256", seed=1, seconds=0.05, trace=True,
                      tiny=True)
    assert rec["correct"]
    assert rec["broken_wrap_points"] == ["attention.integrate_logits"]
    metrics = rec["metrics"]
    assert metrics["attention.integrate_s"]["value"] is None
    assert metrics["attention.dt_ratio_min"]["value"] is None
    assert metrics["attention.gate_unroll_s"]["value"] is not None


def test_changed_result_form_reports_only_its_counts_missing(monkeypatch):
    from fluid import attention

    integrate = attention.integrate_logits
    monkeypatch.setattr(attention, "integrate_logits",
                        lambda *a, **k: (integrate(*a, **k)[0], None))
    rec = run.measure("infer_full_t256", seed=1, seconds=0.05, trace=True,
                      tiny=True)
    assert rec["correct"]
    metrics = rec["metrics"]
    assert metrics["attention.integrate_s"]["value"] is not None
    assert metrics["attention.dt_ratio_min"]["value"] is None
    assert metrics["attention.f_tau_max"]["value"] is None
