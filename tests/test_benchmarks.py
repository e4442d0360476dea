"""The layer benchmarks run clean as plain tests.

``benchmarks/`` is outside the suite's ``testpaths``.  With timing disabled
pytest-benchmark calls each row once, so a row whose setup or assertion
breaks fails here instead of going unnoticed until the next timed run.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    importlib.util.find_spec("pytest_benchmark") is None, reason="pytest-benchmark is not installed"
)
def test_layer_benchmarks_pass():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
