#!/usr/bin/env python3
"""Run every workload on several seeds and write perfbench/baseline.json.

    python3 perfbench/baseline.py --seeds 1-10

For each workload and end-to-end metric it records the median and quartiles
over the seeds, and the spread (interquartile distance over median) that the
bounds in BENCHMARK.json must cover; a traced run at the first seed adds the
layer shares. Machine and version information go alongside, so a later run
on another machine is not mistaken for a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed cells\n{out.stderr}")
    return result


def provenance() -> dict:
    import numpy
    import scipy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_revision": rev}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    sys.path.insert(0, str(HERE))
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"provenance": provenance(), "run_seconds": bench["run_seconds"],
           "seeds": seeds, "workloads": {}}
    for entry in bench["workloads"]:
        name = entry["name"]
        values: dict[str, list] = {}
        for seed in seeds:
            result = run_once(name, seed, 0, bench["run_seconds"])
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        metrics = {}
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            metrics[key] = {"median": med, "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / statistics.median(vals)}
        traced = run_once(name, seeds[0], 1, bench["run_seconds"])["metrics"]
        work = run.WORKLOADS[name]
        out["workloads"][name] = {
            "why": entry["why"],
            "composition": {"protocols": list(work.protocols), "p": work.p,
                            "Qc": list(work.qcs), "user_sets": [list(u) for u in run.USER_SETS[:work.sets]],
                            "successes_per_set": work.successes,
                            "timeslot_budget_per_set": work.budget,
                            "through_cli": work.via_cli, "reference_seed": run.DEFAULT_SEED},
            "end_to_end": metrics,
            "layer_shares": {k: v["value"] for k, v in traced.items() if k.endswith(".share")},
            "traced_wall_s": traced["traced_wall_s"]["value"],
            "trace_overhead_s": traced["trace_overhead_s"]["value"],
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
