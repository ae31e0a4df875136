#!/usr/bin/env python3
"""Steadiness report: run one workload k times and show each metric's spread.

    python3 perfbench/steadiness.py --workload seq-hub --runs 10 [--seeds 1 2 3]

Each run is a fresh ``run.py`` process; run ``i`` uses seed
``seeds[i % len(seeds)]`` (at least 3 distinct seeds). For every end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``),
the interquartile range as a share of the median, and the max/min ratio,
next to the bound in ``BENCHMARK.json``, so bounds are set from measured
spread; the same for the unscaled wall times and the speed scale of each
run. Every run must report ``correct`` with no failed operations.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Unscaled figures from the detail line, shown next to the metrics.
WALL = ("enumerate_wall_s", "setup_wall_s", "speed_scale")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / statistics.median(values),
        "max_min": max(values) / min(values),
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    if len(set(args.seeds)) < 3:
        ap.error("give at least 3 distinct seeds")

    values, ok = {}, True
    for i in range(args.runs):
        seed = args.seeds[i % len(args.seeds)]
        t = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"run {i} (seed {seed}) exited {proc.returncode}")
            return 1
        detail, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
        ok &= result["correct"] and result["failed"] == 0
        row = {k: m["value"] for k, m in result["metrics"].items()}
        row.update({k: detail[k] for k in WALL})
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        values.setdefault("run_wall_s", []).append(wall)
        print(f"run {i} seed {seed} wall {wall:.1f}s attempted "
              f"{result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"\n{args.workload}: {args.runs} runs, seeds {args.seeds}")
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'iqr/med':>9}{'max/min':>9}{'bound':>7}")
    for k, vs in values.items():
        if len(vs) < 2:
            continue
        s = spread(vs)
        b = bounds.get(k)
        print(f"{k:<28}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
              f"{s['iqr_share']:>9.3f}{s['max_min']:>9.3f}"
              f"{'' if b is None else b:>7}")
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
