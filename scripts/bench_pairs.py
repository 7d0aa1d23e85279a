#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, in alternating pairs.

Usage: python scripts/bench_pairs.py PARENT_TREE CHANGE_TREE WORKLOAD SEED...

For each seed it runs the benchmark command of ``BENCHMARK.json`` (next to
this script) in both trees, ``--workload WORKLOAD --seed SEED --seconds
run_seconds``, under ``PYTHONDONTWRITEBYTECODE=1``; the parent runs first
at the first seed, the change at the second, and so on.  It reads the last
JSON line of each run's standard output.  For every end-to-end metric it
then prints each side's median and quartiles, the relative change of the
medians and the pairs the change won, by the metric's ``better``
direction; ties count for neither side.  It exits 1 if any run is not
``correct``, reports failed jobs or printed no result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_bench(spec, tree, workload, seed):
    """The last JSON line of one benchmark run in ``tree``, or None."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"])]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def healthy(result):
    return result is not None and result["correct"] and result["failed"] == 0


def summarize(spec, pairs):
    """Summary lines of (parent result, change result) pairs, one per
    end-to-end metric, and whether every run was healthy."""
    lines = [f"{len(pairs)} pairs; metric: parent median [quartiles] -> change median "
             "[quartiles], relative change, pairs won by the change"]
    ok = all(healthy(r) for pair in pairs for r in pair)
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = [[r["metrics"].get(name, {}).get("value") if healthy(r) else None
                   for r in pair] for pair in pairs]
        values = [(p, c) for p, c in values if p is not None and c is not None]
        if not values:
            lines.append(f"{name}: no pair")
            continue
        parent, change = np.array(values).T
        (p1, p2, p3), (c1, c2, c3) = (np.percentile(v, [25, 50, 75]) for v in (parent, change))
        rel = f"{100.0 * (c2 - p2) / p2:+.1f}%" if p2 else "n/a"
        wins = int(np.sum(sign * (change - parent) > 0.0))
        lines.append(f"{name}: {p2:.6g} [{p1:.6g}, {p3:.6g}] -> {c2:.6g} [{c1:.6g}, {c3:.6g}] "
                     f"{metric['unit']}, {rel}, won {wins}/{len(values)}")
    return lines, ok


def main(argv):
    if len(argv) < 4:
        sys.exit("usage: bench_pairs.py PARENT_TREE CHANGE_TREE WORKLOAD SEED...")
    trees, workload, seeds = argv[:2], argv[2], [int(s) for s in argv[3:]]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = []
    for i, seed in enumerate(seeds):
        pair = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            pair[side] = run_bench(spec, trees[side], workload, seed)
            if not healthy(pair[side]):
                print(f"seed {seed}: {('parent', 'change')[side]} run failed or printed no result")
        pairs.append(tuple(pair))
    lines, ok = summarize(spec, pairs)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
