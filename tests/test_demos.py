"""The demo scripts run to completion as a user runs them."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lagmin

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def load_demo(name: str):
    """The demo script demos/<name>.py, imported as a module by its path."""
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
