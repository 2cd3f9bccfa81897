"""Record the output references that the benchmark's output check uses.

    python3 perfbench/make_refs.py --seeds 0-99 9001

Runs one cycle of units of each workload for each seed at the current
commit and merges their digests into perfbench/refs.json. Re-record only
when a change is meant to alter the program's outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads as W  # noqa: E402


def record(name: str, seed: int) -> list[list[float]]:
    wl = W.make(name, seed)
    return [wl.digest(wl.unit(step)) for step in range(wl.cycle)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", nargs="+", required=True,
                   help="seeds or inclusive ranges such as 0-99")
    args = p.parse_args(argv)

    refs = W.load_refs()
    for seed in run.parse_seeds(args.seeds):
        for name in W.WORKLOADS:
            refs.setdefault(name, {})[str(seed)] = record(name, seed)
            print(f"{name} seed {seed}", flush=True)
        with open(W.REFS_PATH, "w") as fh:
            json.dump(refs, fh, indent=0, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
