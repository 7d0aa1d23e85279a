#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, in alternating pairs.

Usage: python scripts/bench_pairs.py [--bench-json FILE] PARENT_TREE CHANGE_TREE WORKLOAD SEED...

For each seed it runs the benchmark command of ``BENCHMARK.json`` (next to
this script) in both trees, ``--workload WORKLOAD --seed SEED --seconds
run_seconds``, under ``PYTHONDONTWRITEBYTECODE=1``; the parent runs first
at the first seed, the change at the second, and so on.  It reads the last
JSON line of each run's standard output, and the run's machine block from
its ``{"machine": ...}`` line.  For every end-to-end metric it then prints
each side's median and quartiles, the relative change of the medians and
the pairs the change won, by the metric's ``better`` direction; ties count
for neither side.  With ``--bench-json FILE``, a ``BENCH_*.json``
trajectory file, it also writes the same figures, with the seeds and the
machine block of the first healthy run, as the workload's entry of that
file, keeping the entries of other workloads.  It exits 1 if any run is not ``correct``,
reports failed jobs or printed no result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run_bench(spec, tree, workload, seed):
    """The last JSON line of one benchmark run in ``tree``, with the run's
    machine block under ``machine``, or None."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"])]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line.startswith('{"machine"'):
            result["machine"] = json.loads(line)["machine"]
    return result


def healthy(result):
    return result is not None and result["correct"] and result["failed"] == 0


def compare(spec, pairs):
    """Per end-to-end metric, over the pairs whose two runs are healthy:
    each side's median and quartiles, the relative change of the medians
    (None for a parent median of 0) and the pairs won by the change; None
    for a metric no such pair has."""
    out = {}
    for metric in spec["end_to_end"]:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = [[r["metrics"].get(name, {}).get("value") if healthy(r) else None
                   for r in pair] for pair in pairs]
        values = [(p, c) for p, c in values if p is not None and c is not None]
        if not values:
            out[name] = None
            continue
        parent, change = np.array(values).T
        (p1, p2, p3), (c1, c2, c3) = (np.percentile(v, [25, 50, 75]) for v in (parent, change))
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": {"median": float(p2), "quartiles": [float(p1), float(p3)]},
            "change": {"median": float(c2), "quartiles": [float(c1), float(c3)]},
            "relative_change": float((c2 - p2) / p2) if p2 else None,
            "won": int(np.sum(sign * (change - parent) > 0.0)), "pairs": len(values),
        }
    return out


def summarize(spec, pairs):
    """Summary lines of (parent result, change result) pairs, one per
    end-to-end metric, and whether every run was healthy."""
    lines = [f"{len(pairs)} pairs; metric: parent median [quartiles] -> change median "
             "[quartiles], relative change, pairs won by the change"]
    ok = all(healthy(r) for pair in pairs for r in pair)
    for name, m in compare(spec, pairs).items():
        if m is None:
            lines.append(f"{name}: no pair")
            continue
        (p1, p3), (c1, c3) = m["parent"]["quartiles"], m["change"]["quartiles"]
        p2, c2 = m["parent"]["median"], m["change"]["median"]
        rel = "n/a" if m["relative_change"] is None else f"{100.0 * m['relative_change']:+.1f}%"
        lines.append(f"{name}: {p2:.6g} [{p1:.6g}, {p3:.6g}] -> {c2:.6g} [{c1:.6g}, {c3:.6g}] "
                     f"{m['unit']}, {rel}, won {m['won']}/{m['pairs']}")
    return lines, ok


def write_entry(path, spec, workload, seeds, pairs):
    """Write the workload's entry of the trajectory file ``path``, keeping
    the entries of the other workloads."""
    data = json.loads(path.read_text()) if path.exists() else {}
    machine = next((r.get("machine") for pair in pairs for r in pair if healthy(r)), None)
    data[workload] = {"seeds": seeds, "machine": machine, "metrics": compare(spec, pairs)}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-json", type=Path,
                        help="BENCH_*.json trajectory file to write or update")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("workload")
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    trees = (args.parent, args.change)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = []
    for i, seed in enumerate(args.seeds):
        pair = [None, None]
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            pair[side] = run_bench(spec, trees[side], args.workload, seed)
            if not healthy(pair[side]):
                print(f"seed {seed}: {('parent', 'change')[side]} run failed or printed no result")
        pairs.append(tuple(pair))
    lines, ok = summarize(spec, pairs)
    print("\n".join(lines))
    if args.bench_json is not None:
        write_entry(args.bench_json, spec, args.workload, args.seeds, pairs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
