"""The demo scripts run to completion as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lagmin

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", [
    "determinant_route.py", "exact_distribution.py", "monte_carlo.py", "scaling_limit.py",
])
def test_demo_runs(script):
    src = str(Path(lagmin.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.strip()
