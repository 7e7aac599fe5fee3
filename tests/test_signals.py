"""The run's time grid, reference trajectories, and estimation windows."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heol.errors import ConfigurationError
from heol.scenarios import Timing
from heol.signals import (
    ReferenceTrajectory,
    Segment,
    Window,
    make_constant,
    make_smoothstep,
)


# ------------------------------------------------------------------ Timing


def test_grid_points_are_t0_plus_k_h_exactly():
    g = Timing(duration=150.0, h=0.01, t0=2.5)
    assert g.n_steps == 15000
    for k in (0, 1, 7, 14999, 15000):
        assert g.t(k) == 2.5 + k * 0.01  # one multiply, one add: no drift
    assert g.n_points == 15001
    times = g.times()
    assert times.shape == (15001,)
    assert times[0] == 2.5 and times[-1] == g.t(15000)


@pytest.mark.parametrize(
    "bad",  # (changed argument, expected message)
    [
        (dict(h=0.0), "sampling period must be positive"),
        (dict(h=-1.0), "sampling period must be positive"),
        (dict(duration=0.0), "duration must be positive"),
        (dict(t0=math.inf), "time grid origin must be finite"),
        (dict(t0=math.nan), "time grid origin must be finite"),
        (dict(h=0.3), "duration 1.0 is not a multiple of the sampling period 0.3"),
        (dict(h=1e-7), "gives 1e\\+07 grid points; at most 10000000 are allowed"),
    ],
)
def test_grid_rejects_degenerate_construction(bad):
    kw = dict(t0=0.0, h=0.1, duration=1.0)
    changed, message = bad
    kw.update(changed)
    with pytest.raises(ConfigurationError, match=message):
        Timing(**kw)


# ------------------------------------------------------------- trajectories


def test_constant_trajectory_value_and_derivative():
    traj = make_constant(5.0)
    assert traj.eval(3.0, 0) == 5.0
    assert traj.eval(3.0, 1) == 0.0


def test_polynomial_segment_derivative():
    # y(t) = t^2 on [0, 10]: dy/dt at t=2 is 4
    traj = ReferenceTrajectory((Segment(0.0, 10.0, (0.0, 0.0, 1.0)),))
    assert traj.eval(2.0, 0) == 4.0
    assert traj.eval(2.0, 1) == 4.0
    assert traj.eval(2.0, 2) == 2.0
    assert traj.eval(2.0, 3) == 0.0


def test_trajectory_horizon_and_order_errors():
    traj = ReferenceTrajectory((Segment(0.0, 10.0, (1.0, 2.0)),))
    with pytest.raises(ConfigurationError, match=r"t=-0.5 outside trajectory span \[0.0, 10.0\]"):
        traj.eval(-0.5, 0)
    with pytest.raises(ConfigurationError, match=r"t=10.5 outside trajectory span"):
        traj.eval(10.5, 0)
    with pytest.raises(ConfigurationError, match=r"derivative order 4 not available \(max_order=3\)"):
        traj.eval(5.0, 4)
    with pytest.raises(ConfigurationError, match=r"derivative order -1 not available"):
        traj.eval(5.0, -1)


def test_trajectory_rejects_gaps_and_value_jumps():
    with pytest.raises(ConfigurationError):
        ReferenceTrajectory((Segment(0.0, 1.0, (0.0,)), Segment(2.0, 3.0, (0.0,))))
    with pytest.raises(ConfigurationError):
        # value jumps from 1 to 5 at the join
        ReferenceTrajectory((Segment(0.0, 1.0, (0.0, 1.0)), Segment(1.0, 2.0, (5.0,))))


def test_derivative_commutes_with_polynomial_differentiation(rng):
    # eval(., t, k+1) must equal the analytic derivative of the k-th table
    for _ in range(25):
        coeffs = rng.standard_normal(6)
        traj = ReferenceTrajectory((Segment(0.0, 2.0, tuple(coeffs)),))
        t = float(rng.uniform(0.0, 2.0))
        for k in range(3):
            dk = np.polynomial.polynomial.polyder(coeffs, k + 1)
            want = float(np.polynomial.polynomial.polyval(t, dk))
            got = traj.eval(t, k + 1)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


# --------------------------------------------------------------- smoothstep


def test_smoothstep_degenerates_to_constant():
    traj = make_smoothstep(1.0, 1.0, 0.0, 10.0)
    for t in (-5.0, 0.0, 3.7, 12.0):
        assert traj.eval(t, 0) == 1.0
        assert traj.eval(t, 1) == 0.0


def test_smoothstep_midpoint_symmetry():
    traj = make_smoothstep(0.0, 1.0, 0.0, 1.0)
    assert traj.eval(0.5, 0) == 0.5


def test_smoothstep_boundary_derivatives_vanish():
    traj = make_smoothstep(0.0, 1.0, 0.0, 1.0)
    for t in (0.0, 1.0):
        for order in (1, 2, 3):
            assert abs(traj.eval(t, order)) <= 1e-12


def test_smoothstep_plateaus_and_monotone_rise():
    traj = make_smoothstep(1.0, 2.0, 10.0, 40.0)
    assert traj.eval(0.0, 0) == 1.0
    assert traj.eval(150.0, 0) == 2.0
    samples = [traj.eval(t, 0) for t in np.linspace(10.0, 40.0, 301)]
    assert all(b >= a for a, b in zip(samples, samples[1:]))


def test_short_smoothsteps_build_and_reach_their_plateaus():
    for duration in (0.01, 1e-3):
        traj = make_smoothstep(0.0, 1.0, 0.0, duration)
        assert traj.eval(duration, 0) == 1.0
        assert traj.eval(0.5 * duration, 0) == pytest.approx(0.5, abs=1e-12)


def test_smoothstep_rejects_empty_interval():
    with pytest.raises(ConfigurationError, match=r"need t_end > t_start, got \[5.0, 5.0\]"):
        make_smoothstep(0.0, 1.0, 5.0, 5.0)
    with pytest.raises(ConfigurationError, match=r"need t_end > t_start, got \[5.0, 4.0\]"):
        make_smoothstep(0.0, 1.0, 5.0, 4.0)
    for t_start, t_end in ((-1e308, 1.0), (0.0, 1e-50)):  # duration**7 over- and underflows
        with pytest.raises(ConfigurationError, match="smoothstep span .* is out of range"):
            make_smoothstep(0.0, 1.0, t_start, t_end)


# ---------------------------------------------------------------- windows


def test_window_validates_uniform_sigma():
    with pytest.raises(ConfigurationError):
        Window(T=1.0, sigma=np.array([0.0, 0.3, 1.0]), values=np.zeros(3))
    with pytest.raises(ConfigurationError):
        Window(T=1.0, sigma=np.array([0.1, 0.5, 1.0]), values=np.zeros(3))
    with pytest.raises(ConfigurationError):
        Window(T=1.0, sigma=np.array([0.0]), values=np.zeros(1))


# ------------------------------------------------------- array evaluation


def _oracle_eval(traj, t, order):
    """``traj``'s ``order``-th derivative at ``t``: bisect for the segment, Horner on floats."""
    starts = [seg.start for seg in traj.segments]
    seg = traj.segments[max(bisect.bisect_right(starts, t) - 1, 0)]
    coeffs = list(seg.coeffs)
    for _ in range(order):
        coeffs = [c * i for i, c in enumerate(coeffs)][1:]
    tau = 0.0 if math.isinf(seg.start) else t - seg.start
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * tau + c
    return acc


_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _reference_and_times(draw):
    y_from = draw(st.floats(-10.0, 10.0, **_finite))
    if draw(st.booleans()):
        traj, edges = make_constant(y_from), [0.0]
    else:
        t_start = draw(st.floats(-100.0, 200.0, **_finite))
        t_end = t_start + draw(st.floats(1e-3, 100.0, **_finite))
        traj = make_smoothstep(y_from, draw(st.floats(-10.0, 10.0, **_finite)), t_start, t_end)
        edges = [t_start, t_end]
    anywhere = st.floats(min(edges) - 10.0, max(edges) + 10.0, **_finite)
    times = draw(st.lists(st.one_of(st.sampled_from(edges), anywhere), min_size=1, max_size=40))
    return traj, times


@settings(max_examples=150)
@given(case=_reference_and_times(), order=st.integers(0, 3))
def test_array_eval_equals_bisect_horner_oracle_bit_for_bit(case, order):
    traj, times = case
    want = np.array([_oracle_eval(traj, t, order) for t in times])
    got = traj.eval(np.array(times), order)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, sign of zero included
    scalar = traj.eval(times[0], order)
    assert type(scalar) is float
    assert np.float64(scalar).tobytes() == want[:1].tobytes()
