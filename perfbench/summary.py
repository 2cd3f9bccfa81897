"""Run the workloads for one or more seeds and print the end-to-end metrics.

    python3 perfbench/summary.py [--seeds 0 9001] [--workloads NAME ...]

Each run is its own process through run.py, one after another, and lasts
the run_seconds of BENCHMARK.json. One row is printed per run. With more
than one seed, each workload also gets, for each metric, the median over
the seeds and the spread: the distance between the first and the third
quartile as a share of the median. The results, with each run's wall unit
times, go to perfbench/out/summary-<time>.json. Exits 1 if a run or an
output check failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from datetime import datetime
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

METRICS = ("pass_s", "peak_mb", "setup_s")


def one_run(name: str, seed: int, seconds: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        print(f"{name} seed {seed}: run failed:\n{proc.stderr}",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    details = next(ln.split(": ", 1)[1] for ln in lines
                   if ln.startswith("details: "))
    with open(HERE.parent / details) as fh:
        res["unit_wall_s"] = json.load(fh)["unit_wall_s"]
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", nargs="+", default=["0"],
                   help="seeds or inclusive ranges such as 0-9")
    p.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                   choices=list(WORKLOADS))
    args = p.parse_args(argv)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = run.parse_seeds(args.seeds)

    ok, results = True, {}
    print(f"{'workload':18s} {'seed':>5s} {'pass_s':>12s} {'peak_mb':>12s} "
          f"{'setup_s':>12s} {'failed_frac':>12s}")
    for name in args.workloads:
        for seed in seeds:
            res = one_run(name, seed, seconds)
            if res is None:
                ok = False
                continue
            results.setdefault(name, {})[seed] = res
            m = res["metrics"]
            ok &= res["correct"]
            print(f"{name:18s} {seed:5d} {m['pass_s']['value']:10.4f} s "
                  f"{m['peak_mb']['value']:9.1f} MB "
                  f"{m['setup_s']['value']:10.4f} s "
                  f"{res['failed']:>5d}/{res['attempted']:<5d}", flush=True)
    if len(seeds) > 1:
        print(f"{'workload':18s} {'metric':>8s} {'median':>12s} {'spread':>8s}")
        for name, runs in results.items():
            for metric in METRICS:
                values = [r["metrics"][metric]["value"] for r in runs.values()]
                if len(values) < 2:
                    continue
                q1, mid, q3 = quantiles(values, n=4)
                print(f"{name:18s} {metric:>8s} {median(values):12.4f} "
                      f"{(q3 - q1) / mid:8.4f}")

    run.OUT_DIR.mkdir(exist_ok=True)
    path = run.OUT_DIR / f"summary-{datetime.now():%Y%m%dT%H%M%S}.json"
    with open(path, "w") as fh:
        json.dump({"run_seconds": seconds, "results": results}, fh)
    print(f"details: {path.relative_to(run.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
