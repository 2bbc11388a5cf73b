"""Smoke tests: the narrative demos run to completion against the
current API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


def test_jacobian_identity_demo_runs():
    out = run_demo("jacobian_identity.py")
    assert out.returncode == 0, out.stderr
    assert "max |closed form - FD|" in out.stdout
