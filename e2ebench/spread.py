#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Usage (from the repository root):

    python3 e2ebench/spread.py --workload nic_stream --seeds 1-10 --seconds 30

Runs e2ebench/run.py once per seed and prints, for every metric, the median
of the runs and the distance between the first and third quartile as a share
of that median (statistics.quantiles(values, n=4)), next to the bound from
BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    bounds = {}
    bench = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if os.path.exists(bench):
        with open(bench) as f:
            bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}

    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", args.seconds,
               "--trace", args.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) >= 2 else [med] * 3
        spread = (q[2] - q[0]) / abs(med) if med else 0.0
        bound = bounds.get(name)
        print(f"{name:28s} median {med:.6g}  iqr/median {spread:.4f}"
              + (f"  bound {bound}" if bound is not None else "")
              + "  runs " + " ".join(f"{x:.6g}" for x in v))


if __name__ == "__main__":
    sys.exit(main())
