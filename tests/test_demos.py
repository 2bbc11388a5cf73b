"""Smoke tests: the narrative demos run to completion against the
current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=300)


# each demo with a line its output must contain
DEMOS = {
    "jacobian_identity.py": "max |closed form - FD|",
    "run_and_conserve.py": "mass drift over the run",
    "constraint_audit_demo.py": "equivalence verdict on consistent data",
    "field_solve_and_bounds.py": "L^(4/3) norm of g_plus",
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name):
    out = run_demo(name)
    assert out.returncode == 0, out.stderr
    assert DEMOS[name] in out.stdout
