"""Every script in ``demos/`` runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    p = subprocess.run([sys.executable, str(demo)], capture_output=True,
                       text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert "Traceback" not in p.stdout + p.stderr
