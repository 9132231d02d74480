#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report each end-to-end
metric's spread (interquartile range over median) against its bound.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Run from the root of the repository. Reads BENCHMARK.json for the workloads,
run_seconds and bounds. A spread above a third of its bound is marked '!' (the
target), above the bound 'FAIL'. setup_s is reported but not held to its bound
(set-up is compared by median only). Results also go to
perfbench/out/steady-<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        with open(os.path.join(HERE, "out", f"steady-{workload}.json"), "w") as f:
            json.dump(values, f)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[name]
            mark = "FAIL" if spread > bound else "!" if spread > bound / 3 else "ok"
            if name == "setup_s":
                mark = "(not held)"
            print(f"  {workload:15s} {name:12s} median {med:10.4g}  spread {spread:6.3f}"
                  f"  bound {bound:.2f}  {mark}")


if __name__ == "__main__":
    main()
