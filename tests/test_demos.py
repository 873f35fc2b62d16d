"""Every demo script runs to completion against the package in ``src``."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    out = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=src_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
