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


def _gates(f_tau: np.ndarray, f_phi: np.ndarray) -> Tensor:
    """The gates tensor [2N, n] of n trajectories' [n, N] gate values."""
    return Tensor(np.concatenate([f_tau.T, f_phi.T]))


def run_invariance_suite(n_trajectories: int = 10000, n_steps: int = 50,
                         seed: int = 0, tolerance: float = 1e-12) -> dict:
    """Bounded random gates, clamped dt, a0 inside the equilibrium envelope:
    no trajectory may leave [A_min, A_max] beyond the tolerance."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    f_tau = rng.uniform(0.1, 5.0, (n_trajectories, n_steps))
    f_phi = rng.uniform(-1.0, 1.0, (n_trajectories, n_steps))
    targets = f_phi / f_tau
    a_min = targets.min(axis=1, keepdims=True)
    a_max = targets.max(axis=1, keepdims=True)
    frac = rng.uniform(0.0, 1.0, (n_trajectories, 1))
    a0 = a_min + frac * (a_max - a_min)

    _, traj = A.integrate_logits(_gates(f_tau, f_phi), dt_nominal=1.0,
                                 a0=Tensor(a0[:, 0]))
    over = (traj.a - a_max).max()
    under = (a_min - traj.a).max()
    excursion = float(max(over, under, 0.0))
    n_violations = int(((traj.a > a_max + tolerance)
                        | (traj.a < a_min - tolerance)).sum())
    elapsed = time.perf_counter() - t0
    return {"suite": "invariance", "trajectories": n_trajectories,
            "steps": n_steps, "max_excursion": excursion,
            "violations": n_violations, "tolerance": tolerance,
            "dt_effective": traj.dt_effective, "elapsed_s": elapsed,
            "pass": n_violations == 0}


def run_stability_suite(seed: int = 0) -> dict:
    """Clamped steps are convex combinations; an unclamped stiff step
    diverges. Both halves of the step-size lemma, in executable form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    n, steps = 2000, 30
    f_tau = rng.uniform(0.05, 8.0, (n, steps))
    f_phi = rng.uniform(-1.0, 1.0, (n, steps))
    _, traj = A.integrate_logits(_gates(f_tau, f_phi), dt_nominal=0.9)
    alphas = traj.dt_effective * f_tau
    alpha_ok = bool((alphas >= 0.0).all() and (alphas <= 1.0).all())

    # instability witness: dt * f_tau = 2.5 with the clamp disabled
    witness_steps = 50
    _, wtraj = A.integrate_logits(
        _gates(np.ones((1, witness_steps)), np.zeros((1, witness_steps))),
        dt_nominal=2.5, clamp=False, a0=Tensor(np.ones(1)))
    growth = float(np.abs(wtraj.a[0, -1]) / np.abs(wtraj.a[0, 0]))
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
    sdpa = R.verify_sdpa_limit(tolerance=1e-6, battery_size=100, seed=seed)
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

    unit = HC.HcParams(n=1)
    H1 = HC.expand_streams(x, 1)
    hc_out = HC.hc_network_finalize(
        HC.hc_combine(unit.B, unit.A_r, H1,
                      sublayer(HC.hc_aggregate(unit.A_m, H1))))
    residual = T.layer_norm(T.add(x, sublayer(x)))
    residual_gap = float(np.abs(hc_out.data - residual.data).max())
    residual_exact = bool(np.array_equal(hc_out.data, residual.data))

    static = HC.HcParams(n=3)
    liquid = HC.HcParams(n=3, d=6, liquid=True, rng=np.random.default_rng(seed + 1))
    static.B.data[...] = rng.standard_normal(3)
    static.A_m.data[...] = rng.standard_normal(3)
    static.A_r.data[...] = rng.standard_normal((3, 3))
    for name in ("B", "A_m", "A_r"):
        getattr(liquid, name).data[...] = getattr(static, name).data
    liquid.liquid.s_b.data[...] = 0.0
    liquid.liquid.s_a.data[...] = 0.0
    H3 = HC.expand_streams(x, 3)
    out_static = HC.hc_block(static, H3, sublayer)
    out_liquid = HC.hc_block(liquid, H3, sublayer)
    liquid_gap = float(np.abs(out_static.data - out_liquid.data).max())
    liquid_exact = bool(np.array_equal(out_static.data, out_liquid.data))

    return {"suite": "reduction", "residual_reduction_gap": residual_gap,
            "residual_reduction_bitwise": residual_exact,
            "liquid_reduction_gap": liquid_gap,
            "liquid_reduction_bitwise": liquid_exact,
            "elapsed_s": time.perf_counter() - t0,
            "pass": residual_exact and liquid_exact}


def run_gradients_suite(seed: int = 0, op_tolerance: float = 1e-4,
                        model_tolerance: float = 1e-3) -> dict:
    """Finite-difference checks at op level and through a whole micro-model."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)

    op_errors = {}

    def check(name, build, *arrays):
        params = {f"x{i}": Tensor(a.copy(), requires_grad=True)
                  for i, a in enumerate(arrays)}
        report = TR.grad_check(lambda: build(*params.values()), params, h=1e-5)
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
    check("exp", lambda x: T.tsum(T.mul(T.exp(x), coef)), a)
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

    def model_loss():
        pred = model.forward(values, times, qt)
        return TR.loss("mse", pred, targets)

    model_report = TR.grad_check(model_loss, model.parameters(), h=1e-5,
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
