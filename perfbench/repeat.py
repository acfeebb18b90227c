#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize the spread of each metric.

    python3 perfbench/repeat.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per (workload, seed), one process at a time,
and reports for every metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the
interquartile distance as a share of the median. A single run is not a
measurement; compare two commits by their medians only where the
difference exceeds the spread. --out writes the raw values and the
summary as JSON (perfbench/results/ holds the committed baselines).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "min": min(values), "max": max(values), "n": len(values)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"host": {"machine": platform.machine(),
                       "cpus": len(os.sched_getaffinity(0))},
              "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
            start = time.monotonic()
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  check=False)
            wall = time.monotonic() - start
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)
                print(done.stdout, file=sys.stderr)
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "wall_s": wall,
                         "attempted": result["attempted"],
                         "failed": result["failed"], "metrics": values})
            print(f"{workload} seed {seed}: {wall:.1f} s "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  file=sys.stderr, flush=True)
        if not runs:
            continue
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarize([r["metrics"][name] for r in runs])
            s = summary[name]
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and s["spread"] > bound:
                flag = "  SPREAD ABOVE BOUND"
            elif bound and s["spread"] > bound / 3:
                flag = "  spread above bound/3"
            print(f"{workload:24s} {name:42s} median {s['median']:14.6g}  "
                  f"spread {s['spread']:7.4f}"
                  + (f"  bound {bound}" if bound else "") + flag)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
