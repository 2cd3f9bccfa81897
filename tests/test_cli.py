"""Smoke tests of the ``fluid`` command line at tiny dims."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fluid(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "fluid.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_bench_reports_time_and_traced_peak():
    proc = run_fluid("bench", "--d-model", "8", "--heads", "2",
                     "--seq-len", "16", "--reps", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "run_time_s,throughput_seq_per_s,peak_memory_mb"
    report = json.loads("\n".join(lines[2:]))
    assert report["reps"] == 3
    assert report["run_time_s"] > 0
    assert report["peak_memory_mb"] > 0
