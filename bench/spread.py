"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads transform spectrum flow --seeds 1 2 3 4 5

Runs are made one after another, each in its own process, with the
``run_seconds`` of BENCHMARK.json unless ``--seconds`` is given.  For every
end-to-end metric it prints the median and quartiles across the runs, and
the distance between the quartiles as a share of the median next to the
metric's bound.  Single runs mean little on a shared host, where a fixed
pure-Python loop has been seen to take anywhere from 0.21 to 0.46 s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + json.dumps({k: v["value"] for k, v in runs[-1]["metrics"].items()}), flush=True)
        print(f"== {workload}: {len(runs)} runs, correct {sum(r['correct'] for r in runs)}/{len(runs)}, "
              f"failed/attempted per run {[(r['failed'], r['attempted']) for r in runs]}")
        print(f"   {'metric':<32} {'q1':>12} {'median':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values) or len(values) < 2:
                print(f"   {name:<32} missing or too few values: {values}")
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds[name]
            worst = max(worst, share / bound)
            flag = "" if share <= bound / 3 else "  WIDE"
            print(f"   {name:<32} {q1:12.5g} {med:12.5g} {q3:12.5g} {share:8.4f} {bound:>6}{flag}")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
