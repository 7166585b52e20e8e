"""The benchmark still runs against this checkout and checks out correct.

A short run of each gated workload in a copy of ``src/``, ``fixtures/`` and
``perfbench/``, so the checkout's ``.perfbench_results/`` is untouched.
The run's own checks (predicted response classes, one audit record per
decision, replay rebuilding the live job table) decide ``fail_ratio``.
No timing is asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_run(tmp_path, workload):
    for name in ("src", "fixtures", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.3"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    (fail_ratio,) = [line.split()[1] for line in lines if line.startswith("fail_ratio ")]
    assert float(fail_ratio) == 0.0, run.stdout
    result = json.loads(lines[-1])
    assert result["correct"] is True
    expected = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert expected <= set(result["metrics"])


def test_large_vo_run_is_correct(tmp_path):
    _check_run(tmp_path, "large-vo")


def test_job_churn_run_is_correct(tmp_path):
    # restarts from a 5000-job log; the run checks replay rebuilds the live table
    _check_run(tmp_path, "job-churn")
