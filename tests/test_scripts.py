import os
import subprocess
import sys
from pathlib import Path

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


def test_report_digest_repeats(tmp_path):
    # two runs of the same command lines print the same digests
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    lines = tmp_path / "commands.txt"
    # the first two estimates run the batched RK4 stage on a sphere product
    # and an ellipsoid; the hyperbolic estimate runs twice in one process, so
    # a write into a constant bound for every run would change its digest
    cmds = ["bound sphere:n=2",
            "count sphere:n=2 --t-max 0.5 --samples 4 --step 1e-2",
            "count hyperbolic:n=2 --t-max 1 --samples 4 --step 1e-2",
            "estimate sphereprod:p=2,q=2 --samples 100 --t-max 0.5 --step 2e-2",
            "estimate ellipsoid --samples 100 --t-max 0.5 --step 2e-2",
            "estimate hyperbolic:n=2 --t-max 0.5",
            "estimate hyperbolic:n=2 --t-max 0.5"]
    lines.write_text("# one bound, two counts and five estimates\n"
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
