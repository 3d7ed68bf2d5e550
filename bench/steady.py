"""Steadiness self-test of the benchmark.

Runs ``bench/run.py`` repeatedly on each workload and reports, for every
end-to-end metric in BENCHMARK.json, the spread of its values: the distance
between the first and third quartile (``statistics.quantiles`` with n=4) as a
share of the median, next to the metric's bound. Runs use the
``run_seconds`` of BENCHMARK.json.

    python3 bench/steady.py --runs 10                # seeds 1..10: spread across inputs
    python3 bench/steady.py --runs 10 --seed 3       # one seed: the noise a comparison sees

Compare the medians of two invocations to check that two sets of runs agree.
Exits 1 when a spread exceeds its bound, or when a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180)
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="use this seed on every run (default: 1, 2, ...)")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for i in range(args.runs):
            seed = args.seed if args.seed is not None else i + 1
            result, wall = run_once(workload, seed, spec["run_seconds"])
            walls.append(wall)
            if set(result["metrics"]) != set(bounds):
                print(f"{workload} seed {seed}: metrics {sorted(result['metrics'])} "
                      f"do not match BENCHMARK.json")
                ok = False
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s, failed "
                  f"{result['failed']}/{result['attempted']}, " + ", ".join(
                      f"{name} {values[name][-1]:.4g}" for name in bounds), flush=True)
        print(f"{workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, bound in bounds.items():
            median, share = spread(values[name])
            verdict = "ok" if share <= bound else "OVER"
            ok &= verdict == "ok"
            print(f"  {name:<12} median {median:12.6g}  spread {share:7.2%}  "
                  f"bound {bound:5.0%}  spread/bound {share / bound:5.2f}  {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
