#!/usr/bin/env python3
"""Steadiness record: runs perfbench/run.py several times per workload, each
with another seed, and records every end-to-end metric's median, quartiles
and spread (interquartile distance as a share of the median) against the
bound BENCHMARK.json gives it.

    python3 perfbench/steadiness.py --runs 10 --out perfbench/results/steadiness.json

Run i of a workload uses seed FIRST_SEED + i and BENCHMARK.json's
run_seconds; every workload BENCHMARK.json names is run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 101


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values, walls, failed, stamp = {}, [], 0, None
        for i in range(args.runs):
            seed = FIRST_SEED + i
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            stamp = json.loads(lines[-2].split(" ", 1)[1])
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: {walls[-1]:.1f}s wall, failed {result['failed']}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for name, series in values.items():
            entry = spread(series)
            entry["bound"] = bounds[name]
            entry["within_third_of_bound"] = (entry["spread"] is not None
                                              and entry["spread"] < bounds[name] / 3)
            entry["values"] = series
            metrics[name] = entry
        record["workloads"][workload] = {
            "failed": failed, "wall_s": spread(walls), "stamp": stamp, "metrics": metrics}
        for name, entry in metrics.items():
            flag = "" if entry["within_third_of_bound"] else "   <-- not within bound/3"
            print(f"{workload:<13} {name:<24} median {entry['median']:<12.6g} "
                  f"spread {entry['spread']:.3f} bound {entry['bound']}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
