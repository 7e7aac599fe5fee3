"""The demo scripts run to completion as ``__main__``, in the test process, with every warning an error."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path, monkeypatch):
    # pytest's ``filterwarnings = error`` stands in for ``python -W error``; an uncaught exception fails the test
    monkeypatch.setattr(sys, "argv", [str(script)])
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(script), run_name="__main__")
