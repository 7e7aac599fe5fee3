"""Tests of the benchmark itself, on short horizons.

Run from the root of the repository:  python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
HORIZON = 0.1
_results = {}


def _invoke(capsys, workload, trace, seed=1, pins=None):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        pins=pins,
        horizon=HORIZON,
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _result(capsys, workload, trace):
    if (workload, trace) not in _results:
        _results[workload, trace] = _invoke(capsys, workload, trace)
    return _results[workload, trace]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_a_unit(capsys, workload, trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(wanted)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wanted[name], name
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), name


def test_call_counts_repeat_across_runs(capsys):
    first = _result(capsys, "sec4", 1)["metrics"]
    second = _invoke(capsys, "sec4", 1, seed=2)["metrics"]
    counts = {name for name, m in first.items() if m["unit"] == "count"}
    assert counts and {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["signals.ref_eval.calls"]["value"] > 0


@pytest.mark.parametrize(
    "workload, pins",
    [
        ("sec4", {"track_rms": 1.0, "track_rtol": 1e-6, "f_err_max": 1.0}),
        (
            "ultralocal-sweep",
            {"track_max": 1e-9, "f_tail_rtol": 1.0, "f_tail_min_T": 0.0,
             "f_err_max": {0.05: 9.0, 0.2: 9.0, 0.5: 9.0, 1.0: 9.0}},
        ),
    ],
)
def test_wrong_pinned_value_fails_every_run(capsys, workload, pins):
    result = _invoke(capsys, workload, 0, pins=pins)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sec4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
