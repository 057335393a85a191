#!/usr/bin/env python3
"""Run each workload repeatedly, one seed per run, and report the spread.

    python3 perfbench/steady.py [--workload W ...] [--trace 0|1]

Each workload runs ten times, with seeds 1 to 10, for BENCHMARK.json's
run_seconds each: the runs its bounds hold for.  For every metric it prints
the median, the first and third quartiles (as statistics.quantiles(values,
n=4) gives them) and the quartile distance as a share of the median, beside
the metric's bound from BENCHMARK.json.  A spread above a third of its bound
is marked, setup_s's too.  It also prints the share of
failed operations, the wall time of each run and, with --trace 1, the
per-layer metrics the same way.  The bounds in BENCHMARK.json are set from
this script's output.  Exit code 1 when a run fails or reports incorrect
output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in workloads:
        values, shares, walls = {}, [], []
        for seed in range(1, RUNS + 1):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            walls.append(time.monotonic() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: incorrect output")
                ok = False
            shares.append(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n== {w}: {len(walls)} runs, wall {min(walls):.1f}-"
              f"{max(walls):.1f} s, failed share "
              f"{sorted(set(shares)) if shares else '-'}")
        print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and spread > bound / 3:
                mark = "  > bound/3"
            print(f"  {name:44s} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
