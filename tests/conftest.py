"""Shared scenario builders, the helper through which a test starts a Python process, and the switches of
the CSV formatting helper that a test forks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import heol
import heol.scenarios
from heol.plant import MismatchSpec
from heol.scenarios import ChannelSpec, Scenario, Timing

# Property tests draw the same examples on every run, so the suite is repeatable.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


def run_python(*args, **env):
    """``python *args`` in a subprocess that imports the heol under test, with ``env`` added to its environment.

    A test starts a process only where the process is its subject (an entry point, a setting read at
    start-up) or where a regression could exhaust the memory of the test process;
    ``tests/test_processes.py`` pins which tests do.
    """
    path = os.pathsep.join(filter(None, [str(Path(heol.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path, **env)
    )


def ultralocal_scenario(
    k_p,
    *,
    name="ultralocal-test",
    drift=0.0,
    dy0=0.5,
    duration=4.0,
    order=1,
    k_d=None,
    h=0.01,
    estimator_T=0.3,
    control_mode="closed-loop",
    noise_std=0.0,
    noise_seed=0,
    saturation=None,
):
    """Scenario wrapping the exact ultra-local plant d^order(y)/dt^order = f + u.

    The reference is constant 1.0 and the initial output is scaled so that
    the run starts with a deviation of ``dy0``.  A scenario states its gains by
    their pole: ``-k_p`` at order 1, the double pole ``-k_d/2`` at order 2, so
    ``(k_p, k_d)`` must be such a pair.
    """
    if order == 1:
        assert k_d is None, "an order-1 channel takes no k_d"
        pole = -k_p
    else:
        pole = -k_d / 2.0
        assert pole * pole == k_p, f"gains ({k_p}, {k_d}) have no double pole"
    return Scenario(
        name=name,
        plant="ultralocal",
        plant_params={"order": order, "f": drift, "gain": 1.0},
        timing=Timing(duration=duration, h=h),
        references=({"type": "constant", "value": 1.0},),
        channels=(
            ChannelSpec(
                output=0,
                order=order,
                alpha_source="constant",
                alpha_value=1.0,
                estimator_T=estimator_T,
                pole=pole,
                nominal="zero",
                saturation=saturation,
            ),
        ),
        mismatch=MismatchSpec(output_scaling=(1.0 + dy0,)),
        control_mode=control_mode,
        noise_std=noise_std,
        noise_seed=noise_seed,
    )


def _count_forks(monkeypatch) -> list[int]:
    """Wrap ``os.fork``; each call appends the forking pid to the returned list."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _two_cpus(monkeypatch) -> int:
    """Give the process a second CPU, whatever the host has; return the helpers a long export forks:
    1, or on Python 3.12 and later 0 while other threads run (``os.fork`` warns there)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)  # macOS has none
    helpers = int(heol.scenarios._csv_fork_helps(2000, 19))
    assert helpers == 1 or sys.version_info >= (3, 12)
    return helpers


def _fail_in_the_helper(monkeypatch) -> None:
    """Make the chunk formatter raise in any process but this one."""
    parent, format_chunk = os.getpid(), heol.scenarios._csv_chunk

    def failing_in_the_helper(columns, row, k):
        if os.getpid() != parent:
            raise RuntimeError("helper fault")
        return format_chunk(columns, row, k)

    monkeypatch.setattr(heol.scenarios, "_csv_chunk", failing_in_the_helper)


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
