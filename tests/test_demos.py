"""The demos run end to end against the library's current API."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run_demo(name):
    """Run a demo in a subprocess; assert exit 0 and nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_particles_demo_runs_cleanly():
    _run_demo("05_particles_and_limits.py")


def test_merton_demo_runs_cleanly():
    _run_demo("06_merton_under_ambiguity.py")
