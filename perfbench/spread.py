#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/spread.py WORKLOAD [SEED ...]

Runs perfbench/run.py once per seed (default seeds 1..10) with
BENCHMARK.json's run_seconds, then prints each end-to-end metric's median
and its interquartile range as a share of the median, beside the metric's
bound. A benchmark is steady when every spread except setup_s is well
inside its bound. Run from the root of the source tree.
"""

import json
import statistics
import subprocess
import sys


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    workload = sys.argv[1]
    seeds = [int(s) for s in sys.argv[2:]] or list(range(1, 11))
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    values = {}
    for seed in seeds:
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.6g}"
                         for k, m in result["metrics"].items()),
              flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    print(f"{'metric':24} {'median':>14} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        print(f"{m['name']:24} {med:14.6g} {(q3 - q1) / med:8.4f} "
              f"{m['bound']:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
