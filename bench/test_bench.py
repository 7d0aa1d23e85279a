"""Tests for the benchmark harness itself.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jobs
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import geoflow  # noqa: E402
from geoflow import cli, geodesics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: one short job per kind the workloads run, so a smoke run takes seconds
SMOKE_MIX = {
    "BUNDLE_ESTIMATES": (("sphereprod:p=2,q=2", 0.2, 2e-2, 1),
                         ("ellipsoid:a=1,b=1,c=2", 0.2, 1e-2, None)),
    "ORBIT_ESTIMATES": (("hyperbolic:n=2", 0.2, 1e-3), ("sphere:n=3", 0.2, 1e-3)),
    "BOUND_SPECS": ("torus:n=2", "ellipsoid:a=1,b=1,c=2"),
    "COUNTS": (("sphere:n=2", 1.0, 8, 1e-2), ("sphereprod:p=2,q=2", 0.5, 16, 2e-2),
               ("hyperbolic:n=2", 1.0, 4, 1e-2)),
    "DIM4_SWEEP": (2, 230, 231),
    "RANDOM_DIMS": (4, 9),
}


def traced_owners():
    """The modules and classes the tracer patches."""
    mods = [importlib.import_module(m) for m in tracing.PACKAGE_MODULES]
    return mods + list({owner for owner, *_ in tracing.binding_sites()
                        if isinstance(owner, type)})


def snapshot():
    """Every attribute of the traced modules and classes, by identity."""
    return {(id(o), name): value for o in traced_owners() for name, value in vars(o).items()}


def leftover_wrappers():
    return [(o, name) for o in traced_owners() for name, value in vars(o).items()
            if hasattr(value, tracing.ORIGINAL)]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace, monkeypatch, capsys, tmp_path):
    for name, value in SMOKE_MIX.items():
        monkeypatch.setattr(jobs, name, value)
    for key in run.THREAD_ENV:
        monkeypatch.setenv(key, "1")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert (tmp_path / f"spans-{workload}.npz").is_file()
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_tracer_restores_every_binding():
    before = snapshot()
    tracer = tracing.Tracer()
    with tracer:
        assert hasattr(cli.mane_series, tracing.ORIGINAL)
        assert hasattr(geoflow.entropy.propagate, tracing.ORIGINAL)
        assert hasattr(geoflow.bounds.expansion, tracing.ORIGINAL)
        assert hasattr(geoflow.charts.SphereChart.metric, tracing.ORIGINAL)
        rc, *_ = run.run_cli(cli, ["estimate", "hyperbolic:n=2", "--t-max", "0.1",
                                   "--format", "json"])
        assert rc == 0
    assert leftover_wrappers() == []
    assert snapshot() == before
    totals = tracer.totals()
    assert totals["cli.main"][0] == 1 and totals["entropy.mane"][0] == 1
    assert totals["charts.christoffel"][0] == 4 * jobs.rk4_steps(
        jobs.cli_grid("estimate", 0.1), 1e-3)


def test_tracer_restores_after_an_exception():
    before = snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer():
            1 / 0
    assert leftover_wrappers() == []
    assert snapshot() == before


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer:
        run.run_cli(cli, ["count", "sphere:n=2", "--t-max", "0.2", "--samples", "4",
                          "--step", "1e-2", "--format", "json"])
    col = tracer.columns()
    totals = tracer.totals()
    wall = float(np.sum((col["end"] - col["start"])[col["parent"] < 0]))
    assert sum(busy for _, busy in totals.values()) == pytest.approx(wall, rel=1e-9)
    assert min(busy for _, busy in totals.values()) >= 0.0


@pytest.mark.parametrize("t_max,step", [(0.1, 1e-3), (1.0, 3e-2), (0.37, 7e-3), (3.0, 2e-2)])
@pytest.mark.parametrize("command", ["estimate", "count"])
def test_row_steps_match_the_propagate_grid_loop(command, t_max, step, monkeypatch):
    points = jobs.GRID_POINTS[command]
    grid = jobs.cli_grid(command, t_max)
    np.testing.assert_array_equal(grid, cli._default_grid(t_max, points=points))
    calls = []
    original = geodesics._rk4_step

    def counting(*args, **kwargs):
        calls.append(len(args[2]))  # batch rows in X
        return original(*args, **kwargs)

    monkeypatch.setattr(geodesics, "_rk4_step", counting)
    model = geoflow.sphere(2)
    states = [model.base_state(d) for d in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])]
    geoflow.propagate(model, states, grid, step=step, jacobi=False)
    job = jobs.Job(("x",), batch=3, steps=jobs.rk4_steps(grid, step))
    assert len(calls) == job.steps
    assert sum(calls) == job.row_steps


def test_reference_verdicts_pin_the_thresholds():
    dim4 = [jobs.reference_obstructed({"n": 4, "betti": [1, 0, b, 0, 1]}) for b in (230, 231)]
    dim5 = [jobs.reference_obstructed({"n": 5, "betti": [1, 0, b, b, 0, 1]})
            for b in jobs.DIM5_PAIR]
    assert dim4 == [False, True] and dim5 == [False, True]


def test_checks_reject_a_wrong_answer():
    models = {"hyperbolic:n=2": geoflow.parse_manifold("hyperbolic:n=2")}
    argv = ("estimate", "hyperbolic:n=2", "--t-max", "0.5", "--format", "json")
    rc, _, out, _ = run.run_cli(cli, argv)
    report = json.loads(out)
    job = jobs.Job(argv, batch=1)
    assert rc == 0 and jobs.check_report(job, report, models) < jobs.SLOPE_TOL
    report["estimate"]["slope"] += 1e-3
    with pytest.raises(jobs.CheckFailed):
        jobs.check_report(job, report, models)


def test_dropped_trajectories_are_counted_up_to_the_programs_limit():
    argv = ("estimate", "ellipsoid:a=1,b=1,c=2", "--samples", "100", "--t-max", "0.2",
            "--step", "1e-2", "--seed", "5", "--format", "json")
    rc, _, out, _ = run.run_cli(cli, argv)
    report = json.loads(out)
    job = jobs.Job(argv, batch=100)
    assert rc == 0 and jobs.dropped_rows(job, report) == 0
    meta = report["series"]["metadata"]
    meta.update(evaluated=99, failed=1)
    assert jobs.dropped_rows(job, report) == 1
    assert jobs.check_report(job, report, {}) is None
    meta.update(evaluated=98, failed=2)
    with pytest.raises(jobs.CheckFailed):
        jobs.check_report(job, report, {})
    meta.update(evaluated=100, failed=1)
    with pytest.raises(jobs.CheckFailed):
        jobs.dropped_rows(job, report)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "orbit-batch1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
