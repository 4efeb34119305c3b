"""The demo scripts run against the package under test and print something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import finsum

PACKAGE_ROOT = Path(finsum.__file__).resolve().parents[1]
DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.skipif(not DEMOS.is_dir(), reason="no demos/ beside tests/")
@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_ROOT)),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
