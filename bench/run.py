"""geoflow benchmark: seeded mixes of CLI jobs, run in-process, one at a time.

    python3 bench/run.py --workload orbit-batch1 --seed 1 --seconds 26 --trace 0

Each workload is a round of ``geoflow`` command lines (see ``jobs.py``) run
through ``geoflow.cli.main`` in one process, closed loop with one client:
the next job starts when the previous one returns.  Whole rounds repeat
for about ``--seconds`` (at least two rounds, or one untraced and one traced
round).  Every report is checked against a closed-form reference and against
every other run of the same job, traced or not.  Times are in reference
seconds: wall time scaled by a calibration kernel timed around each job
and, untraced, inside it.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics from the spans,
which it also writes to ``.bench_out/spans-<workload>.npz``.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"
THREAD_ENV = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"), "1")
#: child processes timed for setup_s; the median is reported
SETUP_PROBES = 5
#: time of the calibration kernel at the reference speed; reported times are
#: wall times scaled by this over the kernel's time measured around them
CAL_REF_S = 1e-3
#: a job is scaled by the median kernel time over this many seconds around
#: it, and at least the kernels just before, during and after it.  The
#: host's speed flips between two states within milliseconds at times, so
#: for millisecond jobs one kernel on each side is a noisy estimate of the
#: speed around them.
CAL_WINDOW_S = 0.5
#: while an untraced job runs, the kernel is also timed this often, from a
#: SIGALRM handler, and its time is taken out of the job's; a job that lasts
#: seconds is then scaled by the host's speed during it, not only at its ends
SAMPLE_EVERY_S = 0.05
#: fewest jobs in a round for which the tail percentile leaves ten beyond it
TAIL_MIN_JOBS = 20
UNCONVERGED = "direction sampling not converged"


def import_geoflow():
    """Import geoflow from this checkout's sources, never from elsewhere."""
    if not (SRC / "geoflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no geoflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import geoflow

    if Path(geoflow.__file__).resolve().parent != SRC / "geoflow":
        raise SystemExit(f"error: imported geoflow from {geoflow.__file__}, not {SRC}")
    return geoflow


def run_cli(cli, argv):
    """One job: exit code, wall seconds, standard output, warnings raised."""
    out = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc(file=sys.stderr)
            rc = None
        wall = time.perf_counter() - t0
    return rc, wall, out.getvalue(), [str(w.message) for w in caught]


def calibrate():
    """Seconds a fixed kernel takes now: small batched numpy products in a
    Python loop, the kind of work geoflow does per call.  On a shared 2-core
    host the speed drifted by up to a factor of two over minutes, CPU time
    included; the kernel drifts with it, so scaling by it leaves the
    program's own cost."""
    import numpy as np

    a = np.linspace(0.1, 1.0, 36).reshape(4, 3, 3)
    t0 = time.perf_counter()
    x = a
    for _ in range(200):
        x = np.einsum("bij,bjk->bik", x, a)
        x = x / float(np.abs(x).max())
    return time.perf_counter() - t0


def setup(workload):
    """Import geoflow, parse every model spec of the workload, run one
    warm-up job.  Returns the CLI module and the parsed models."""
    import jobs

    geoflow = import_geoflow()
    from geoflow import cli

    models = {spec: geoflow.parse_manifold(spec) for spec in jobs.workload_specs(workload)}
    rc, _, _, _ = run_cli(cli, jobs.WARMUP[workload] + ("--format", "json"))
    if rc != 0:
        raise SystemExit(f"error: warm-up job exited with {rc}")
    return cli, models


def probe_setup_seconds(workload, seed):
    """Median time from process start to ready over fresh processes, in
    reference seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times = []
    before = statistics.median(calibrate() for _ in range(5))
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=os.environ.copy(), capture_output=True, text=True,
                              timeout=120, check=False)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
        after = statistics.median(calibrate() for _ in range(5))
        times.append(wall * 2 * CAL_REF_S / (before + after))
        before = after
    return statistics.median(times)


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def machine_block():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "loadavg_start": loadavg(),
    }


class SpeedLog:
    """Calibration kernel times, each with the moment it ended."""

    def __init__(self):
        self.ends = []
        self.times = []
        self.spent = 0.0   # seconds spent in kernels timed from the handler

    def kernel(self):
        start = time.perf_counter()
        self.times.append(calibrate())
        self.ends.append(time.perf_counter())
        return self.ends[-1] - start

    def _on_alarm(self, signum, frame):
        self.spent += self.kernel()

    @contextlib.contextmanager
    def sampling(self):
        """Time the kernel every SAMPLE_EVERY_S seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start, end):
        """Reference seconds per wall second over [start, end]: CAL_REF_S
        over the median kernel time from the kernel before it to the one
        after it, widened to CAL_WINDOW_S around its middle."""
        mid = (start + end) / 2
        lo = min(bisect.bisect_right(self.ends, start) - 1,
                 bisect.bisect_left(self.ends, mid - CAL_WINDOW_S / 2))
        hi = max(bisect.bisect_right(self.ends, end) + 1,
                 bisect.bisect_right(self.ends, mid + CAL_WINDOW_S / 2))
        return CAL_REF_S / statistics.median(self.times[max(lo, 0):hi])


class Runner:
    """Runs rounds of a workload's jobs and checks every report."""

    def __init__(self, cli, models, round_jobs):
        self.cli = cli
        self.models = models
        self.jobs = round_jobs
        self.canonical = {}   # job index -> canonical report bytes of its first run
        self.deviation = {}   # job index -> deviation from its reference
        self.dropped = {}     # job index -> trajectories its report left out
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.speed = SpeedLog()

    def run_round(self, tracer=None):
        """Run every job once, with the calibration kernel timed before and
        after each, and during each when untraced; returns per job (wall
        seconds, reference seconds per wall second, warnings).  Traced jobs
        are not sampled, so the kernel stays out of their spans."""
        results, spans = [], []
        speed = self.speed
        speed.kernel()
        if tracer is not None:
            tracer.install()
        try:
            for i, job in enumerate(self.jobs):
                if tracer is not None:
                    tracer.current_job = i
                spent, start = speed.spent, time.perf_counter()
                with speed.sampling() if tracer is None else contextlib.nullcontext():
                    rc, wall, stdout, caught = run_cli(self.cli, job.argv)
                spans.append((start, time.perf_counter()))
                results.append((rc, wall - (speed.spent - spent), stdout, caught))
                speed.kernel()
        finally:
            if tracer is not None:
                tracer.uninstall()
        scales = [speed.scale(start, end) for start, end in spans]
        for i, (rc, _, stdout, _) in enumerate(results):
            self.attempted += 1
            try:
                self._check(i, rc, stdout)
            except Exception as exc:  # any wrong answer counts as one failed job
                self.failed += 1
                self.errors.append(f"{' '.join(self.jobs[i].argv[:2])}: {exc}")
        return [(wall, scale, caught)
                for (_, wall, _, caught), scale in zip(results, scales)]

    def _check(self, i, rc, stdout):
        import jobs

        job = self.jobs[i]
        if rc != job.expect:
            raise jobs.CheckFailed(f"exit code {rc}, expected {job.expect}")
        report = json.loads(stdout)
        canonical = self.cli.canonical_report_bytes(report)
        if self.canonical.setdefault(i, canonical) != canonical:
            raise jobs.CheckFailed("canonical report differs from an earlier run")
        if i not in self.deviation:
            self.deviation[i] = jobs.check_report(job, report, self.models)
            self.dropped[i] = (jobs.dropped_rows(job, report)
                              if job.command == "estimate" else 0)


def repeat(step, seconds, at_least):
    """Results of ``step()`` called ``at_least`` times and then while time is
    left: a call starts only if half an average call still fits in
    ``seconds``, so a run lasts about ``seconds`` and holds whole calls."""
    t0 = time.perf_counter()
    out = [step() for _ in range(at_least)]
    while (elapsed := time.perf_counter() - t0) + 0.5 * elapsed / len(out) < seconds:
        out.append(step())
    return out


def tail(walls, per_round):
    """Each job of the round at its median time over the rounds, then the
    highest percentile of those with at least ten jobs beyond it, or the
    slowest below TAIL_MIN_JOBS jobs.  Returns the time and its percentile.

    Over all jobs of all rounds, the job at that rank depends on how many
    rounds fit in the run, which follows the host's speed; per-job medians
    keep the rank on the same job, and one slow moment does not set it."""
    medians = sorted(statistics.median(walls[j::per_round]) for j in range(per_round))
    m = len(medians)
    if m < TAIL_MIN_JOBS:
        return medians[-1], 100.0
    return medians[m - 11], 100.0 * (m - 10) / m


def end_to_end(runner, rounds, setup_s):
    import jobs

    raw = [wall for rnd in rounds for wall, _, _ in rnd]
    walls = [wall * scale for rnd in rounds for wall, scale, _ in rnd]
    work = sum(job.arclength or job.profiles for job in runner.jobs) * len(rounds)
    tail_s, pct = tail(walls, len(runner.jobs))
    devs = [d for d in runner.deviation.values() if d is not None]
    print(f"jobs {len(walls)}, rounds {len(rounds)}, job_s_tail at p{pct:.4g} "
          f"of {len(runner.jobs)} per-job medians, "
          f"fail_ratio {runner.failed / runner.attempted:.4g}, "
          f"dropped trajectories {sum(runner.dropped.values())} per round, "
          f"wall job_s_p50 {statistics.median(raw):.4g} s")
    return {
        "setup_s": (setup_s, "s"),
        "job_s_p50": (statistics.median(walls), "s"),
        "job_s_tail": (tail_s, "s"),
        "work_per_s": (work / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ref_err": (max([jobs.EPS] + devs), "1"),
    }


def per_layer(runner, tracer, untraced, traced):
    per_round = len(traced)
    scale = statistics.mean(s for rnd in traced for _, s, _ in rnd)
    totals = {k: (calls / per_round, scale * busy / per_round)
              for k, (calls, busy) in tracer.totals().items()}
    steps = sum(job.steps for job in runner.jobs)
    row_steps = sum(job.row_steps for job in runner.jobs)
    out = {}
    for layer, (calls, busy) in totals.items():
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (busy, "s")
    exp_calls, exp_s = totals["geodesics.expansion"]
    out["geodesics.expansion.us_per_call"] = (1e6 * exp_s / exp_calls if exp_calls else 0.0, "us")
    out["geodesics.propagate.row_steps"] = (row_steps, "count")
    out["geodesics.propagate.dropped_rows"] = (sum(runner.dropped.values()), "count")
    out["geodesics.propagate.us_per_row_step"] = (
        1e6 * totals["geodesics.propagate"][1] / row_steps if row_steps else 0.0, "us")
    chr_calls = totals["charts.christoffel"][0]
    out["charts.christoffel.rows_per_call"] = (
        tracer.rows["charts.christoffel"] / per_round / chr_calls if chr_calls else 0.0, "count")
    out["charts.christoffel.calls_per_stage"] = (
        chr_calls / (4 * steps) if steps else 0.0, "count")
    out["entropy.count.unconverged"] = (
        sum(UNCONVERGED in w for rnd in traced for _, _, caught in rnd for w in caught)
        / per_round,
        "count")
    out["trace.overhead_ratio"] = (
        sum(w * s for rnd in traced for w, s, _ in rnd)
        / sum(w * s for rnd in untraced for w, s, _ in rnd),
        "ratio")
    total_self = sum(busy for _, busy in totals.values()) or 1.0
    for layer, (calls, busy) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"  {layer:22s} {100 * busy / total_self:6.2f}% self  {calls:12.0f} calls/round")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # BLAS and OpenMP read these once, when numpy is first imported
    os.environ.update(THREAD_ENV)
    import jobs
    import tracing

    if args.workload not in jobs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(jobs.WORKLOADS)}")
    import_geoflow()
    if args.setup_probe:
        setup(args.workload)
        return 0

    machine = machine_block()
    setup_s = None if args.trace else probe_setup_seconds(args.workload, args.seed)
    cli, models = setup(args.workload)
    runner = Runner(cli, models, jobs.build_jobs(args.workload, args.seed, models))

    if args.trace:
        tracer = tracing.Tracer()
        pairs = repeat(lambda: (runner.run_round(), runner.run_round(tracer)), args.seconds, 1)
        untraced, traced = [u for u, _ in pairs], [t for _, t in pairs]
        metrics = per_layer(runner, tracer, untraced, traced)
        tracer.write(SPANS_DIR / f"spans-{args.workload}.npz")
    else:
        metrics = end_to_end(runner, repeat(runner.run_round, args.seconds, 2), setup_s)

    machine["loadavg_end"] = loadavg()
    machine["calibration_ms"] = 1e3 * statistics.median(runner.speed.times)
    print(json.dumps({"machine": machine}))
    for err in runner.errors[:20]:
        print(f"failed: {err}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
