import importlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from geoflow import cli, closed_form_bounds, parse_manifold

ROOT = Path(__file__).resolve().parents[1]


def test_scripts_run(tmp_path):
    # the scripts use only the public API; run each as a user would
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv in (["bounds_table.py"], ["obstruction_examples.py"],
                 ["entropy_sweep.py", "sphere:n=2", "1.0", str(tmp_path / "sw")]):
        proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv, proc.stderr)
    for name in ("sw.json", "sw_mane.csv", "sw_count.csv"):
        assert (tmp_path / name).stat().st_size > 0, name
    # the sweep checks its chain against the closed-form bound that applies
    model = parse_manifold("sphere:n=2")
    want = closed_form_bounds(model.dim, *model.extremal_curvatures())["theorem_b"]
    assert json.loads((tmp_path / "sw.json").read_text())["closed_form_bound"] == want


def test_bounds_table_prints_what_bound_reports(monkeypatch, capsys):
    # each row holds the values geoflow bound reports for its spec, to the
    # table's four decimals, and "-" where a bound does not apply
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    bounds_table = importlib.import_module("bounds_table")
    bounds_table.main()
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == bounds_table.SPECS
    keys = ("K_max", "K_min", "min_ricci", "theorem_b", "manning", "grossman", "nonpositive")
    for spec, row in zip(bounds_table.SPECS, rows):
        assert cli.main(["bound", spec, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)["bounds"]
        want = ["-" if doc[key] is None else f"{doc[key]:.4f}" for key in keys]
        assert row.split()[1:] == want, spec


def test_report_digest_repeats(tmp_path):
    # two runs of the same command lines print the same digests
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    lines = tmp_path / "commands.txt"
    # the sphere-product count and estimate run the product stage from one
    # diagonal, with and without the Jacobi system; the ellipsoid estimate
    # runs the batched RK4 stage, and the triaxial ellipsoid count its stage
    # from one jet with rows that switch charts; the hyperbolic estimate runs
    # twice in one process, so a write into a constant bound for every run
    # would change its digest
    cmds = ["bound sphere:n=2",
            "count sphere:n=2 --t-max 0.5 --samples 4 --step 1e-2",
            "count hyperbolic:n=2 --t-max 1 --samples 4 --step 1e-2",
            "count sphereprod:p=2,q=2 --t-max 0.5 --samples 8 --step 2e-2",
            "count ellipsoid:a=1,b=1.5,c=2 --t-max 3 --samples 8 --step 2e-2",
            "estimate sphereprod:p=2,q=2 --samples 100 --t-max 0.5 --step 2e-2",
            "estimate ellipsoid --samples 100 --t-max 0.5 --step 2e-2",
            "estimate hyperbolic:n=2 --t-max 0.5",
            "estimate hyperbolic:n=2 --t-max 0.5"]
    lines.write_text("# one bound, four counts and four estimates\n"
                     f"geoflow {cmds[0]}\n" + "".join(f"{c}\n" for c in cmds[1:]))
    runs = [subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digest.py"),
                            str(lines)], env=env, capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    assert all(proc.returncode == 0 for proc in runs), runs[0].stderr
    out = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == out
    assert [line.split("  ", 2)[1:] for line in out] == [["0", c] for c in cmds]
    assert all(len(line.split("  ")[0]) == 64 for line in out)
    assert out[-1] == out[-2]


def test_workload_commands_print_one_round(monkeypatch):
    # every job of one round of each workload, in the order build_jobs makes
    # them, as command lines that split back into the job's argv
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    jobs = importlib.import_module("jobs")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "scripts" / "workload_commands.py")
    want = []
    for workload in jobs.WORKLOADS:
        models = {s: parse_manifold(s) for s in jobs.workload_specs(workload)}
        want.append([list(job.argv) for job in jobs.build_jobs(workload, 5, models)])
    got = subprocess.run([sys.executable, script, "all", "5"], env=env, capture_output=True,
                         text=True, timeout=300, check=True).stdout.splitlines()
    assert len(got) == sum(len(w) for w in want) == 383
    assert [shlex.split(line) for line in got] == [argv for w in want for argv in w]
    one = subprocess.run([sys.executable, script, "arc-count", "5"], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert [shlex.split(line) for line in one.stdout.splitlines()] == want[jobs.WORKLOADS.index("arc-count")]
    bad = subprocess.run([sys.executable, script, "no-such-workload", "5"], env=env,
                         capture_output=True, text=True, timeout=300)
    assert bad.returncode != 0 and bad.stdout == ""


def synthetic_result(failed=0, **values):
    """The last JSON line of a benchmark run with the given metric values."""
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()}}


def test_bench_pairs_summary(monkeypatch, tmp_path):
    # pairs are won by the metric's better direction, ties count for neither,
    # and a failed run makes the comparison exit 1; --bench-json writes the
    # same figures as one entry per workload; no benchmark runs
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    bench_pairs = importlib.import_module("bench_pairs")
    spec = {"end_to_end": [{"name": "job_s_tail", "unit": "s", "better": "lower"},
                           {"name": "work_per_s", "unit": "1/s", "better": "higher"}]}
    pairs = [(synthetic_result(job_s_tail=0.2, work_per_s=10.0),
              synthetic_result(job_s_tail=c, work_per_s=w))
             for c, w in [(0.1, 12.0), (0.1, 9.0), (0.3, 10.0)]]
    lines, ok = bench_pairs.summarize(spec, pairs)
    assert ok
    assert lines[1] == "job_s_tail: 0.2 [0.2, 0.2] -> 0.1 [0.1, 0.2] s, -50.0%, won 2/3"
    assert lines[2] == "work_per_s: 10 [10, 10] -> 10 [9.5, 11] 1/s, +0.0%, won 1/3"

    runs = []

    def fake_run(spec, tree, workload, seed):
        runs.append((tree, seed))
        result = synthetic_result(failed=int(tree == "change" and seed == 2),
                                  job_s_tail=0.1 if tree == "change" else 0.2)
        return {**result, "machine": {"nproc": 2, "seed": seed}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    assert bench_pairs.main(["parent", "change", "arc-count", "1"]) == 0
    assert bench_pairs.main(["parent", "change", "arc-count", "1", "2"]) == 1
    # the parent runs first at the first seed, the change at the second
    assert runs == [("parent", 1), ("change", 1), ("parent", 1), ("change", 1),
                    ("change", 2), ("parent", 2)]
    assert bench_pairs.summarize(spec, [(synthetic_result(job_s_tail=0.1), None)])[1] is False

    # the file keeps one entry per workload; a rerun replaces its workload's
    # entry, and only pairs of two healthy runs count
    out = tmp_path / "BENCH_x.json"
    plan = (("arc-count", ["3"]), ("orbit-batch1", ["4"]), ("arc-count", ["1", "2"]))
    for workload, seeds in plan:
        bench_pairs.main(["--bench-json", str(out), "parent", "change", workload, *seeds])
    data = json.loads(out.read_text())
    assert sorted(data) == ["arc-count", "orbit-batch1"]
    entry = data["arc-count"]
    assert entry["seeds"] == [1, 2] and entry["machine"] == {"nproc": 2, "seed": 1}
    assert entry["metrics"]["job_s_tail"] == {
        "unit": "s", "better": "lower",
        "parent": {"median": 0.2, "quartiles": [0.2, 0.2]},
        "change": {"median": 0.1, "quartiles": [0.1, 0.1]},
        "relative_change": -0.5, "won": 1, "pairs": 1}
    assert entry["metrics"]["work_per_s"] is None
    assert data["orbit-batch1"]["seeds"] == [4]
