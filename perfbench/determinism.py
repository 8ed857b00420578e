#!/usr/bin/env python3
"""Check that the benchmark's counts repeat exactly.

    python3 perfbench/determinism.py [WORKLOAD ...]

For each workload (default: all three) this runs perfbench/run.py three
times for one pass each (--seconds 1): twice with seed 7 and once with
the held-out seed 8. The two same-seed runs must agree exactly on every
program's counts, simulated times and first-op allocation, and on
alloc_mw_per_op. The held-out run must agree with them on the counts that
do not depend on the seed. Any difference is printed and the script
exits 1. Run from the root of the source tree.
"""

import json
import subprocess
import sys

WORKLOADS = ["debug", "session-4dev", "saturate"]
SEED, HELD_OUT = 7, 8


def run(workload, seed):
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n"
                 + out.stderr)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: known-answer check failed\n"
                 + out.stderr)
    rows = {}
    for line in lines:
        if line.startswith("signature\t"):
            _, prog, counts, invariant, sim, alloc = line.split("\t")
            rows[prog] = {"counts": counts, "invariant": invariant,
                          "sim": sim, "alloc_words": alloc}
    rows["alloc_mw_per_op"] = {
        "value": repr(result["metrics"]["alloc_mw_per_op"]["value"])}
    return rows


def compare(workload, what, a, b, keys):
    drift = []
    for prog in sorted(set(a) | set(b)):
        for k in keys:
            x = a.get(prog, {}).get(k)
            y = b.get(prog, {}).get(k)
            if x != y:
                drift.append(f"DRIFT {workload} {what} {prog} {k}: "
                             f"{x!r} != {y!r}")
    return drift


def main():
    workloads = sys.argv[1:] or WORKLOADS
    drift = []
    for w in workloads:
        first, second, held = run(w, SEED), run(w, SEED), run(w, HELD_OUT)
        drift += compare(w, "same seed", first, second,
                         ["counts", "invariant", "sim", "alloc_words",
                          "value"])
        first.pop("alloc_mw_per_op")
        held.pop("alloc_mw_per_op")
        drift += compare(w, "held-out seed", first, held, ["invariant"])
        print(f"{w}: {len(first)} programs compared", flush=True)
    for d in drift:
        print(d)
    if drift:
        print(f"{len(drift)} difference(s)")
        return 1
    print("deterministic: same-seed runs identical, seed-independent "
          "counts identical on the held-out seed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
