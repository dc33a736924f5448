import os
import subprocess
import sys
from pathlib import Path

import pytest

import planarcount

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(planarcount.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "MISMATCH" not in out.stdout


def test_demos_are_found():
    assert len(DEMOS) == 5
