"""Smoke tests of the example scripts, run as a user would run them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_distance_curve_experiment():
    proc = run_script("distance_curve_experiment.py", "--n", "300")
    assert proc.returncode == 0, proc.stderr
    assert "model ladder" in proc.stdout
    assert "m6_full" in proc.stdout


def test_demo_pipeline(tmp_path):
    proc = run_script("demo_pipeline.py", "--pairs", "12", "--workdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "profiles built: 12" in proc.stdout
    assert (tmp_path / "out" / "manifest.json").is_file()
