"""Smoke test: every narrative script in demos/ runs to completion."""

import subprocess
import sys

import pytest

from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))

# a line each demo must print, by script name
PINNED = {"01_pipeline_tour": "edges: [(0, 1), (0, 3), (1, 2), (2, 3)]"}


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    done = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert PINNED.get(script.stem, "") in done.stdout
