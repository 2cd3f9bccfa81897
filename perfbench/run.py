"""Whole-system benchmark of the liquid-attention transformer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One process, one caller, closed loop: each
unit of work starts when the previous one has returned, and every output is
checked (see workloads.OutputCheck). The last line of standard output is
one JSON object {correct, attempted, failed, metrics}.

--trace 0 gives the end-to-end metrics: pass_s, the median time of a
unit; peak_mb, the tracemalloc peak of one extra unit run after the timed
loop; setup_s, import time plus the median of several set-ups (inputs,
model build, one warm-up unit). Times are in the time base of probe.py:
each unit and each set-up is followed by one run of a fixed probe, and its
wall time is scaled by PROBE_S / the probe's wall time, so that the slow and
fast phases of a shared machine cancel. --trace 1 alternates untraced and
traced units and gives the per-layer metrics of spans.py. Details of each
run, with the wall times and the environment, go to perfbench/out/, one
file per run.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS threads are fixed before numpy loads: one thread keeps a unit's
# time free of thread scheduling on a shared machine
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import tracemalloc  # noqa: E402
from datetime import datetime  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPS = 5
MB = 1e6


def parse_seeds(items: list[str]) -> list[int]:
    """Seeds given as numbers or inclusive ranges such as 0-9."""
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "nproc": nproc(),
            "git_commit": git_commit(), "seed": seed}


class Runner:
    """Runs and checks units of the workload ``wl`` with the output check
    ``check``, counting attempts and failures."""

    def __init__(self):
        self.wl = None
        self.check = None
        self.attempted = 0
        self.failures: list[str] = []

    def unit(self, step: int, tracer=None) -> tuple[float, int]:
        """Run unit ``step``, traced when a tracer is given (its unit id is
        ``attempted``); returns (seconds, next step)."""
        self.attempted += 1
        if tracer is not None:
            tracer.begin_unit(self.attempted)
        t0 = time.perf_counter()
        try:
            out, error = self.wl.unit(step), None
        except Exception as exc:  # a raising unit is a failed unit
            out, error = None, f"step {step}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_unit()
        if error is not None:
            self.failures.append(error)
            self.wl.reset()
            return elapsed, (step // self.wl.cycle + 1) * self.wl.cycle
        reason = self.check.failure(step, out)
        if reason is not None:
            self.failures.append(reason)
        if (step + 1) % self.wl.cycle == 0:
            self.wl.reset()
        return elapsed, step + 1


def set_up(name: str, seed: int, tiny: bool, reps: int, reference, probe):
    """Build the workload ``reps`` times, each with one warm-up unit and
    followed by one probe run; the last build is kept. Returns (runner,
    seconds of each set-up, seconds of the probe run after each)."""
    import workloads as W
    runner, times, probes = Runner(), [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        wl = W.make(name, seed, tiny)
        runner.wl, runner.check = wl, W.OutputCheck(wl, reference)
        runner.unit(0)
        wl.reset()
        times.append(time.perf_counter() - t0)
        probes.append(probe.run())
    return runner, times, probes


def memory_unit(runner: Runner, tracer=None) -> float:
    """Peak traced bytes of one unit at step 0, in MB above its baseline.
    With a tracer the unit is traced and records the phase peaks."""
    runner.wl.reset()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if tracer is None:
            runner.unit(0)
        else:
            tracer.memory = True
            tracer.install()
            try:
                runner.unit(0, tracer)
            finally:
                tracer.uninstall()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    runner.wl.reset()
    return peak / MB


class Loop:
    """Unit and probe times of one timed loop, untraced and traced."""

    def __init__(self):
        self.plain, self.plain_probe = [], []
        self.traced, self.traced_probe, self.traced_ids = [], [], []


def timed_loop(runner: Runner, seconds: float, probe, tracer=None) -> Loop:
    """Closed loop for ``seconds``; each unit is followed by one probe run.
    With a tracer, every second unit is traced."""
    loop = Loop()
    step = 0
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None and len(loop.plain) > len(loop.traced):
            tracer.install()
            try:
                elapsed, step = runner.unit(step, tracer)
            finally:
                tracer.uninstall()
            loop.traced.append(elapsed)
            loop.traced_probe.append(probe.run())
            loop.traced_ids.append(runner.attempted)
        else:
            elapsed, step = runner.unit(step)
            loop.plain.append(elapsed)
            loop.plain_probe.append(probe.run())
        if time.perf_counter() >= deadline and (tracer is None
                                                or loop.traced):
            return loop


def spread(times: list[float], probes: list[float]) -> str:
    """Count and quartiles of calibrated unit times."""
    import probe as PB
    if len(times) < 2:
        return f"n={len(times)}"
    q1, _, q3 = quantiles([PB.PROBE_S * t / p for t, p in zip(times, probes)],
                          n=4)
    return f"n={len(times)}, q1={q1:.4f}, q3={q3:.4f}"


def measure(name: str, seed: int, seconds: float, trace: bool,
            import_s: float = 0.0, tiny: bool = False) -> dict:
    """One benchmark run; returns the result record (see module doc).
    ``import_s`` is the time it took to import the program."""
    import probe as PB
    import spans as SP
    import workloads as W
    reference = None if tiny else W.load_refs().get(name, {}).get(str(seed))
    probe = PB.Probe()
    runner, builds, build_probes = set_up(
        name, seed, tiny, 1 if trace else SETUP_REPS, reference, probe)
    record = {"workload": name, "seconds": seconds, "trace": int(trace),
              "tiny": tiny, "started": datetime.now().isoformat(),
              "env": environment(seed),
              "referenced_seed": reference is not None,
              "probe_s": PB.PROBE_S,
              "setup_wall_s": {"import": import_s, "builds": builds,
                               "probes": build_probes}}

    tracer = SP.Tracer() if trace else None
    loop = timed_loop(runner, seconds, probe, tracer)
    record["unit_wall_s"] = {"untraced": loop.plain,
                             "untraced_probes": loop.plain_probe}
    if not trace:
        peak = memory_unit(runner)
        setups = [import_s + b for b in builds]
        metrics = {
            "pass_s": {"value": PB.calibrated(loop.plain, loop.plain_probe),
                       "unit": "s"},
            "peak_mb": {"value": peak, "unit": "MB"},
            "setup_s": {"value": PB.calibrated(setups, build_probes),
                        "unit": "s"},
        }
    else:
        memory_unit(runner, tracer)
        overhead = (PB.calibrated(loop.traced, loop.traced_probe)
                    / PB.calibrated(loop.plain, loop.plain_probe) - 1.0)
        metrics = SP.per_layer_metrics(tracer, loop.traced_ids,
                                       runner.attempted, overhead)
        record["unit_wall_s"].update(traced=loop.traced,
                                     traced_probes=loop.traced_probe)
        record["spans"] = tracer.dump()
        record["broken_wrap_points"] = sorted(tracer.broken)

    record.update({"correct": not runner.failures,
                   "attempted": runner.attempted,
                   "failed": len(runner.failures),
                   "failures": runner.failures[:20],
                   "metrics": metrics})
    return record


def write_record(record: dict, seed: int) -> Path:
    """Writes the record to a file of its own; no run overwrites another."""
    OUT_DIR.mkdir(exist_ok=True)
    stamp = record["started"].replace(":", "").replace("-", "")
    path = OUT_DIR / (f"{record['workload']}-seed{seed}"
                      f"-trace{record['trace']}-{record['seconds']:g}s"
                      f"-{stamp}.json")
    with open(path, "x") as fh:
        json.dump(record, fh)
    return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "fluid" / "__init__.py").is_file():
        print(f"perfbench: no fluid package under {src}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    start = time.perf_counter()
    import workloads as W
    import_s = time.perf_counter() - start
    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     import_s)
    path = write_record(record, args.seed)

    print("env " + json.dumps(record["env"]))
    if not record["referenced_seed"]:
        print(f"note: no stored reference for seed {args.seed}; outputs were "
              "checked for finiteness and run-to-run agreement only")
    wall = record["unit_wall_s"]
    for name, m in record["metrics"].items():
        extra = ""
        if name == "pass_s":
            extra = f"  ({spread(wall['untraced'], wall['untraced_probes'])})"
        print(f"{name:34s} {m['value']!s:>22} {m['unit']}{extra}")
    print(f"{'wall pass_s':34s} {median(wall['untraced']):>22.6f} s  "
          f"(probe {median(wall['untraced_probes']):.4f} s, "
          f"calibrated to {record['probe_s']} s)")
    print(f"{'failed_frac':34s} {record['failed']}/{record['attempted']}")
    for reason in record["failures"]:
        print(f"failure: {reason}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
