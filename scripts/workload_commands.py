#!/usr/bin/env python3
"""Print one benchmark round's geoflow command lines, one per line.

Usage: python scripts/workload_commands.py WORKLOAD SEED

WORKLOAD is a workload of ``bench/jobs.py`` or ``all`` for every workload
in turn.  The lines are the round ``jobs.build_jobs`` makes at SEED, in its
order, and they pipe into ``scripts/report_digest.py``; so one round of all
four workloads digests with

    python scripts/workload_commands.py all SEED | python scripts/report_digest.py

``jobs`` is imported from ``bench/`` without writing bytecode there.
"""

import shlex
import sys
from pathlib import Path

from geoflow import parse_manifold

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import jobs  # noqa: E402


def round_jobs(workload, seed):
    """The jobs of one round of ``workload`` at ``seed``."""
    models = {spec: parse_manifold(spec) for spec in jobs.workload_specs(workload)}
    return jobs.build_jobs(workload, seed, models)


def main(argv):
    if len(argv) != 2 or argv[0] not in (*jobs.WORKLOADS, "all"):
        sys.exit(f"usage: workload_commands.py {{{','.join(jobs.WORKLOADS)},all}} SEED")
    workloads = jobs.WORKLOADS if argv[0] == "all" else (argv[0],)
    for workload in workloads:
        for job in round_jobs(workload, int(argv[1])):
            print(shlex.join(job.argv))


if __name__ == "__main__":
    main(sys.argv[1:])
