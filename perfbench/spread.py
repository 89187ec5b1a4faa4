#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's median and
spread (interquartile distance over median), the figures the bounds in
BENCHMARK.json are judged against.

    python3 perfbench/spread.py --workload serve-snippets --seeds 1-10 [--trace 0]

Run from the repository root. Uses the command and run length from
BENCHMARK.json unless --seconds is given.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", args.trace]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else "{}"
        result = json.loads(last)
        if run.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {run.returncode}, result {last}", file=sys.stderr)
            sys.exit(1)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              file=sys.stderr)
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else (" ok" if spread < bound / 3 else f" WIDE (bound {bound})")
        print(f"{name:45s} median {med:12.5g}  spread {spread:7.4f}{flag}")


if __name__ == "__main__":
    main()
