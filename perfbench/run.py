#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. Builds `perfbench` (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload in its own process and
prints that process's result line as the last line of standard output. With
`--trace 1` the workload is run twice, untraced and then traced, and the traced
result gains `trace.overhead_pct`: how much lower the traced run's specs/s was.
See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "perfbench")


def run(binary, args, trace, timeout):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", os.path.join(HERE, "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish within {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    binary = build()
    if not args.trace:
        print(json.dumps(run(binary, args, 0, RUN_TIMEOUT_S)))
        return
    untraced = run(binary, args, 0, RUN_TIMEOUT_S * 2 // 5)
    result = run(binary, args, 1, RUN_TIMEOUT_S * 3 // 5)
    # The traced run's own throughput, from its summary (metrics carry layers only).
    stem = f"{args.workload}-seed{args.seed}-trace1.json"
    with open(os.path.join(HERE, "out", stem)) as f:
        notes = json.load(f)["notes"]
    base = untraced["metrics"]["specs_per_s"]["value"]
    overhead = 100.0 * (base - notes["specs_per_s"]) / base
    result["metrics"]["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    result["correct"] = result["correct"] and untraced["correct"]
    for key in ("attempted", "failed"):
        result[key] += untraced[key]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
