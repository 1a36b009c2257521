"""Smoke runs of the two sweeps under ``scripts/``, each in a subprocess."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)


def test_sample_scaling_runs(tmp_path):
    done = _run_script("sample_scaling.py", "--trials", "2", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("samples=") == 4
    assert done.stdout.count("median=") == 4


def test_run_success_rates_writes_every_builtin_and_algorithm(tmp_path):
    out = tmp_path / "rates.json"
    done = _run_script("run_success_rates.py", "--trials", "2", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    rows = json.loads(out.read_text())
    assert len(rows) == 30  # 6 builtins x 5 algorithms
    assert {"instance", "algo", "exact", "eps_optimal", "samples_median"} <= set(rows[0])
    # the 30 batches at --jobs 2 share one worker pool and give the same rows
    parallel = tmp_path / "rates_jobs2.json"
    done = _run_script("run_success_rates.py", "--trials", "2", "--jobs", "2",
                       "--out", str(parallel), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(parallel.read_text()) == rows
