"""The bundled scripts, run as a user runs them.

``decision_matrix.txt`` is the matrix printed for ``fixtures/reference.policy``
when rules were still evaluated assertion by assertion through
``evaluate_assertion`` (now in ``tests/linear_evaluator.py``); the compiled
checks must print it byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)


def test_decision_matrix_is_pinned():
    run = _run("decision_matrix.py")
    assert run.returncode == 0, run.stderr
    expected = (Path(__file__).parent / "decision_matrix.txt").read_bytes()
    assert len(expected.splitlines()) == 270
    assert run.stdout == expected


def test_authorize_probe_runs():
    # a smoke test: the timing it prints depends on the host and is not checked
    run = _run("authorize_probe.py")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith(b"authorize: ")


def test_restart_probe_runs():
    # a smoke test: the timing it prints depends on the host and is not checked
    run = _run("restart_probe.py")
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith(b"restart: 5000 jobs ")
