#!/usr/bin/env python3
"""Alternating A/B runs of perfbench over two checkouts.

    python3 scripts/perfbench_ab.py --parent DIR --change DIR \\
        --workload discover_beam --pairs 10 [--first-seed 1]

Each pair runs `perfbench/run.py --trace 0` once in each checkout, one
after the other, with the same seed and the run length BENCHMARK.json
sets; pair i uses seed first-seed + i, and
the side that runs first alternates from pair to pair, so slow drift of
the machine's speed falls on both sides alike. Each checkout builds its
own perfbench on first use (see perfbench/run.py), so build both before
timing them, for instance with a one-second run.

For each end-to-end metric that BENCHMARK.json names, the report gives
each side's median and quartiles over the pairs and the number of pairs
the change won (a tie is not a win). It also prints each run's metrics as
it finishes. The exit code is non-zero when any run fails its correctness
check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def end_to_end(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(checkout, workload, seed):
    """One perfbench run; returns its result object, or None on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="the baseline checkout")
    ap.add_argument("--change", required=True, help="the changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    metrics = end_to_end(args.change)
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_once(sides[side], args.workload, seed)
            if result is None or not result.get("correct") or \
                    result.get("failed", 0) != 0:
                ok = False
                print(f"pair {i + 1} seed {seed} {side}: FAILED "
                      f"{json.dumps(result)}", flush=True)
                result = result or {"metrics": {}}
            runs[side].append(result)
            values = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                for m in metrics if m["name"] in result["metrics"])
            print(f"pair {i + 1} seed {seed} {side}: {values}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, median [q1, q3]")
    for m in metrics:
        name = m["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        lower = m["better"] == "lower"
        wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
        pq = quartiles([p for p, _ in pairs])
        cq = quartiles([c for _, c in pairs])
        delta = (cq[1] / pq[1] - 1.0) * 100 if pq[1] else float("nan")
        print(f"  {name:12s} {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] -> "
              f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {m['unit']}  "
              f"({delta:+.1f}%, change won {wins}/{len(pairs)}, "
              f"parent IQR {pq[2] - pq[0]:.4g})")

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
