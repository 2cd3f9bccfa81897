"""Executable verification suites for the dynamics guarantees.

Each suite returns a JSON-able report with a boolean "pass"; the CLI
`verify` subcommand prints them and exits nonzero on any failure. The
suites are also what the acceptance tests assert, at the documented
tolerances.
"""

from __future__ import annotations

import time

import numpy as np

from fluid import attention as A
from fluid import hyper as HC
from fluid import model as M
from fluid import reference as R
from fluid import tensor as T
from fluid import training as TR
from fluid.tensor import Tensor


def run_invariance_suite(seed: int = 0) -> dict:
    """Bounded random gates, clamped dt, a0 inside the equilibrium envelope:
    no trajectory may leave [A_min, A_max] beyond the tolerance."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n_trajectories, n_steps, tolerance = 10000, 50, 1e-12
    f_tau = rng.uniform(0.1, 5.0, (n_trajectories, n_steps))
    f_phi = rng.uniform(-1.0, 1.0, (n_trajectories, n_steps))
    targets = f_phi / f_tau
    a_min = targets.min(axis=1, keepdims=True)
    a_max = targets.max(axis=1, keepdims=True)
    frac = rng.uniform(0.0, 1.0, (n_trajectories, 1))
    a0 = a_min + frac * (a_max - a_min)

    # the integrator's clamp and recursion, from a0 rather than from 0
    dt = A.clamp_dt(1.0, f_tau)
    a = A.euler_rows(a0[:, 0], f_tau.T, f_phi.T, dt, n_steps + 1).T
    over = (a - a_max).max()
    under = (a_min - a).max()
    excursion = float(max(over, under, 0.0))
    n_violations = int(((a > a_max + tolerance)
                        | (a < a_min - tolerance)).sum())
    elapsed = time.perf_counter() - t0
    return {"suite": "invariance", "trajectories": n_trajectories,
            "steps": n_steps, "max_excursion": excursion,
            "violations": n_violations, "tolerance": tolerance,
            "dt_effective": dt, "elapsed_s": elapsed,
            "pass": n_violations == 0}


def run_stability_suite(seed: int = 0) -> dict:
    """Clamped steps are convex combinations; an unclamped stiff step
    diverges. Both halves of the step-size lemma, in executable form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n, steps = 2000, 30
    f_tau = rng.uniform(0.05, 8.0, (n, steps))
    f_phi = rng.uniform(-1.0, 1.0, (n, steps))
    alphas = A.clamp_dt(0.9, f_tau) * f_tau
    alpha_ok = bool((alphas >= 0.0).all() and (alphas <= 1.0).all())

    # instability witness: dt * f_tau = 2.5 with the clamp disabled
    witness_steps = 50
    wa = A.euler_rows(1.0, np.ones((witness_steps, 1)),
                      np.zeros((witness_steps, 1)), 2.5, witness_steps + 1)
    growth = float(np.abs(wa[-1, 0]) / np.abs(wa[0, 0]))
    diverges = growth >= 10.0
    elapsed = time.perf_counter() - t0
    return {"suite": "stability", "alpha_in_unit_interval": alpha_ok,
            "alpha_min": float(alphas.min()), "alpha_max": float(alphas.max()),
            "unclamped_growth_50_steps": growth,
            "divergence_witnessed": diverges, "elapsed_s": elapsed,
            "pass": alpha_ok and diverges}


def run_limits_suite(seed: int = 0) -> dict:
    """Both limit regimes of the dynamics, against independent references."""
    t0 = time.perf_counter()
    sdpa = R.verify_sdpa_limit(seed=seed)
    ctrnn = R.verify_ctrnn_limit(seed=seed)
    return {"suite": "limits", "sdpa": sdpa, "ctrnn": ctrnn,
            "elapsed_s": time.perf_counter() - t0,
            "pass": sdpa["pass"] and ctrnn["pass"]}


def run_reduction_suite(seed: int = 0) -> dict:
    """Hyper-connection reductions, both required to be bitwise."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 5, 6)))

    def sublayer(t):
        return T.tanh(t)

    # the static block: fixed B, A_m and A_r
    H1 = HC.expand_streams(x, 1)
    unit = Tensor(np.ones(1))
    hc_out = HC.hc_network_finalize(HC.hc_combine(
        unit, Tensor(np.eye(1)), H1, sublayer(HC.hc_aggregate(unit, H1))))
    residual = T.layer_norm(T.add(x, sublayer(x)))
    residual_gap = float(np.abs(hc_out.data - residual.data).max())
    residual_exact = bool(np.array_equal(hc_out.data, residual.data))

    liquid = HC.HcParams(3, 6, np.random.default_rng(seed + 1))
    B, A_m, A_r = (Tensor(rng.standard_normal(shape)) for shape in (3, 3, (3, 3)))
    for name, static in (("B", B), ("A_m", A_m), ("A_r", A_r)):
        getattr(liquid, name).data[...] = static.data
    liquid.s_b.data[...] = 0.0
    liquid.s_a.data[...] = 0.0
    H3 = HC.expand_streams(x, 3)
    out_static = HC.hc_combine(B, A_r, H3, sublayer(HC.hc_aggregate(A_m, H3)))
    out_liquid = HC.hc_block(liquid, H3, sublayer)
    liquid_gap = float(np.abs(out_static.data - out_liquid.data).max())
    liquid_exact = bool(np.array_equal(out_static.data, out_liquid.data))

    return {"suite": "reduction", "residual_reduction_gap": residual_gap,
            "residual_reduction_bitwise": residual_exact,
            "liquid_reduction_gap": liquid_gap,
            "liquid_reduction_bitwise": liquid_exact,
            "elapsed_s": time.perf_counter() - t0,
            "pass": residual_exact and liquid_exact}


def run_gradients_suite(seed: int = 0) -> dict:
    """Finite-difference checks at op level and through a whole micro-model."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    op_tolerance, model_tolerance = 1e-4, 1e-3

    op_errors = {}

    def check(name, build, *arrays):
        params = {f"x{i}": Tensor(a.copy(), requires_grad=True)
                  for i, a in enumerate(arrays)}
        report = TR.grad_check(lambda: build(*params.values()), params)
        op_errors[name] = report["max_rel_error"]

    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(0.5, 2, (3, 4))
    w = rng.uniform(-1, 1, (4, 2))
    coef = Tensor(rng.standard_normal((3, 4)))
    coef2 = Tensor(rng.standard_normal((3, 2)))
    # two heads of 3 queries over 5 keys of width 2, keys repeated in a row
    alpha = rng.uniform(0, 1, (1, 2, 3, 4))
    values = rng.standard_normal((1, 2, 5, 2))
    idx = np.array([[[[0, 2, 2, 4], [1, 1, 3, 0], [4, 3, 2, 1]],
                     [[3, 3, 3, 0], [0, 1, 2, 3], [2, 4, 4, 2]]]])
    coef3 = Tensor(rng.standard_normal((1, 2, 3, 2)))

    check("tanh", lambda x: T.tsum(T.mul(T.tanh(x), coef)), a)
    check("sigmoid", lambda x: T.tsum(T.mul(T.sigmoid(x), coef)), a)
    check("mul", lambda x, y: T.tsum(T.mul(T.mul(x, y), coef)), a, b)
    check("matmul", lambda x, y: T.tsum(T.mul(T.matmul(x, y), coef2)), a, w)
    mask = np.arange(4) != np.arange(3)[:, None]     # one masked entry a row
    check("masked_softmax",
          lambda x: T.tsum(T.mul(T.masked_softmax(x, mask), coef)), a)
    check("layer_norm", lambda x: T.tsum(T.mul(T.layer_norm(x), coef)), a)
    check("gather_weighted", lambda x, y: T.tsum(
        T.mul(T.gather_weighted(x, y, idx), coef3)), alpha, values)
    op_max = max(op_errors.values())

    lan = A.LanConfig(d_model=8, heads=2, euler_steps=2,
                      sink_gate_enabled=True)
    cfg = M.ModelConfig(lan=lan, n_layers=1, ffn_dim=8, in_features=1,
                        out_dim=1, max_len=16, hc_mode="liquid",
                        hc_streams=2, seed=seed)
    model = M.FluidModel(cfg)
    data_rng = np.random.default_rng(seed + 1)
    values = data_rng.standard_normal((2, 4, 1))
    times = np.tile(np.arange(4.0), (2, 1))
    qt = np.tile(np.arange(2.0), (2, 1))
    targets = data_rng.standard_normal((2, 2, 1))
    # the second sequence pads its last history point and query: the gate's
    # pairs in padded rows get a logit gradient of 0, which the backward skips
    mask = np.array([[True] * 4, [True] * 3 + [False]])
    target_mask = np.array([[True, True], [True, False]])

    def model_loss():
        pred = model.forward(values, times, qt, mask=mask)
        return TR.loss("mse", pred, targets, target_mask)

    model_report = TR.grad_check(model_loss, model.parameters(),
                                 max_entries_per_param=2, seed=seed)
    elapsed = time.perf_counter() - t0
    return {"suite": "gradients", "op_max_rel_error": op_max,
            "op_tolerance": op_tolerance, "op_errors": op_errors,
            "model_max_rel_error": model_report["max_rel_error"],
            "model_tolerance": model_tolerance, "elapsed_s": elapsed,
            "pass": bool(op_max < op_tolerance
                         and model_report["max_rel_error"] < model_tolerance)}


SUITES = {
    "invariance": run_invariance_suite,
    "stability": run_stability_suite,
    "limits": run_limits_suite,
    "reduction": run_reduction_suite,
    "gradients": run_gradients_suite,
}


def run_suite(name: str, seed: int = 0) -> dict:
    if seed < 0:
        raise ValueError(f"seed {seed} must be >= 0")
    if name == "all":
        reports = {key: fn(seed=seed) for key, fn in SUITES.items()}
        reports["pass"] = all(r["pass"] for r in reports.values())
        return reports
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from "
                       f"{sorted(SUITES)} or 'all'")
    return SUITES[name](seed=seed)
