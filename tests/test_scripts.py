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
