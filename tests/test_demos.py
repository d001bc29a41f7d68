"""Run every script in demos/ in a child process; each asserts its own results."""

import subprocess
import sys

import pytest

from conftest import ROOT, child_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_collected():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
