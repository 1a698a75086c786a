"""Each script under ``demos/`` runs standalone, as the README says."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sp4cert

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS  # an empty glob would parametrize no test below


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_standalone(demo, tmp_path):
    src = str(Path(sp4cert.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
