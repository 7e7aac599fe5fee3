"""Shared scenario builders for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from heol import ChannelSpec, MismatchSpec, Scenario, Timing

# Property tests draw the same examples on every run, so the suite is repeatable.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
