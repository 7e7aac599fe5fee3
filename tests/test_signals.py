"""The run's time grid, reference trajectories, and estimation windows."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heol.errors import ConfigurationError
from heol.scenarios import Timing
from heol.signals import Window, make_constant, make_smoothstep


# ------------------------------------------------------------------ Timing


def test_grid_points_are_k_h_exactly():
    g = Timing(duration=150.0, h=0.01)
    assert g.n_steps == 15000
    assert g.n_points == 15001
    times = g.times()
    assert times.shape == (15001,)
    for k in (0, 1, 7, 14999, 15000):
        assert times[k] == k * 0.01  # one multiply: no drift


@pytest.mark.parametrize(
    "bad",  # (changed argument, expected message)
    [
        (dict(h=0.0), "sampling period must be positive"),
        (dict(h=-1.0), "sampling period must be positive"),
        (dict(duration=0.0), "duration must be positive"),
        (dict(h=0.3), "duration 1.0 is not a multiple of the sampling period 0.3"),
        (dict(h=1e-7), "gives 1e\\+07 grid points; at most 10000000 are allowed"),
        (dict(duration="1"), "duration must be a finite number, got '1'"),
        (dict(h=None), "h must be a finite number, got None"),
    ],
    ids=["bad0", "bad1", "bad2", "bad3", "bad4", "bad5", "bad6"],  # explicit, so deleting a row renames no other
)
def test_grid_rejects_degenerate_construction(bad):
    kw = dict(h=0.1, duration=1.0)
    changed, message = bad
    kw.update(changed)
    with pytest.raises(ConfigurationError, match=message):
        Timing(**kw)


@settings(max_examples=200)
@given(h=st.floats(1e-300, 1e300), n=st.integers(1, 10**4))
def test_accepted_grids_have_strictly_increasing_times(h, n):
    # every step k*h - (k-1)*h of a grid starting at 0 lies within a few ulps of h
    grid = Timing(duration=n * h, h=h)
    assert grid.n_steps == n
    assert np.max(np.abs(np.diff(grid.times()) - h)) <= 1e-6 * h


# ------------------------------------------------------------- trajectories


def test_constant_trajectory_value_and_derivative():
    traj = make_constant(5.0)
    assert traj.eval(3.0, 0) == 5.0
    assert traj.eval(3.0, 1) == 0.0


#: the degree-7 step profile s on [0, 1], as numpy.polynomial sees it
STEP_PROFILE = np.polynomial.Polynomial([0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0])


def test_smoothstep_derivatives_match_numpy_polynomial():
    # y = 1 + 2 s(tau / 2) in tau = t - 2 on [2, 4)
    traj = make_smoothstep(1.0, 3.0, 2.0, 4.0)
    y = 1.0 + 2.0 * STEP_PROFILE(np.polynomial.Polynomial([0.0, 0.5]))
    for t in (2.0, 2.5, 3.0, 3.7):
        for k in range(4):
            assert traj.eval(t, k) == pytest.approx(y.deriv(k)(t - 2.0), rel=1e-12, abs=1e-12)
    for t, plateau in ((1.0, 1.0), (4.0, 3.0), (9.0, 3.0)):
        assert [traj.eval(t, k) for k in range(4)] == [plateau, 0.0, 0.0, 0.0]


def test_trajectory_order_errors():
    traj = make_smoothstep(0.0, 1.0, 0.0, 10.0)
    with pytest.raises(ConfigurationError, match=r"derivative order 4 not available \(max_order=3\)"):
        traj.eval(5.0, 4)
    with pytest.raises(ConfigurationError, match=r"derivative order -1 not available"):
        traj.eval(5.0, -1)
    with pytest.raises(ConfigurationError, match=r"derivative order 1.5 not available \(max_order=3\)"):
        traj.eval(5.0, 1.5)


@pytest.mark.parametrize(
    "traj", (make_smoothstep(1.0, 2.0, 10.0, 40.0), make_constant(3.0)), ids=("step", "constant")
)
def test_nan_time_is_rejected_not_read_as_a_plateau(traj):
    # a NaN time lies in no piece: both piece comparisons are False for it
    for order in (0, 1):
        with pytest.raises(ConfigurationError, match=r"^cannot evaluate a reference at t=nan$"):
            traj.eval(math.nan, order)
        with pytest.raises(ConfigurationError, match=r"^cannot evaluate a reference at t=nan \(time 1 of 3\)$"):
            traj.eval(np.array([5.0, math.nan, math.nan]), order)
    # infinite times still read the plateaus, and an empty array an empty array
    assert traj.eval(math.inf) == traj.y_to and traj.eval(-math.inf) == traj.y_from
    np.testing.assert_array_equal(traj.eval(np.array([-math.inf, math.inf])), [traj.y_from, traj.y_to])
    assert traj.eval(np.array([])).shape == (0,)


def test_derivative_commutes_with_polynomial_differentiation(rng):
    # eval(., t, k+1) must equal the analytic derivative of the k-th table
    for _ in range(25):
        y_from, y_to = rng.standard_normal(2)
        t_start = float(rng.uniform(-5.0, 5.0))
        t_end = t_start + float(rng.uniform(0.5, 3.0))
        traj = make_smoothstep(y_from, y_to, t_start, t_end)
        # coefficients in tau = t - t_start, the step profile's argument being tau / duration
        scaled = np.polynomial.Polynomial([0.0, 1.0 / (t_end - t_start)])
        coeffs = (y_from + (y_to - y_from) * STEP_PROFILE(scaled)).coef
        t = float(rng.uniform(t_start, t_end))
        for k in range(3):
            dk = np.polynomial.polynomial.polyder(coeffs, k + 1)
            want = float(np.polynomial.polynomial.polyval(t - t_start, dk))
            got = traj.eval(t, k + 1)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


_NON_FINITE = (math.nan, math.inf, -math.inf)
_STEP = (0.0, 1.0, 0.0, 1.0)  # y_from, y_to, t_start, t_end


@pytest.mark.parametrize(
    "make, args",
    [
        pytest.param(make_smoothstep, _STEP[:i] + (bad,) + _STEP[i + 1 :], id=f"smoothstep-{name}={bad}")
        for i, name in enumerate(("y_from", "y_to", "t_start", "t_end"))
        for bad in _NON_FINITE
    ]
    + [pytest.param(make_constant, (bad,), id=f"constant={bad}") for bad in _NON_FINITE]
    + [
        pytest.param(make_smoothstep, (0.0, 1.0, 5.0, 5.0), id="smoothstep-empty"),
        pytest.param(make_smoothstep, (0.0, 1.0, 5.0, 4.0), id="smoothstep-reversed"),
    ],
)
def test_references_reject_non_finite_values_and_empty_steps(make, args):
    with pytest.raises(ConfigurationError):
        make(*args)


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
    # duration**7 over- and underflows; t_end - t_start overflows
    for t_start, t_end in ((-1e308, 1.0), (0.0, 1e-50), (-1e308, 1e308)):
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


@pytest.mark.parametrize(
    "T, bad_value, message",
    [
        (math.nan, 0.0, "^window length must be positive, got T=nan$"),
        (math.inf, 0.0, "^window length must be positive, got T=inf$"),
        (1.0, math.nan, "^window values must be finite$"),
        (1.0, -math.inf, "^window values must be finite$"),
    ],
)
def test_window_rejects_non_finite_length_and_values(T, bad_value, message):
    values = np.zeros(11)
    values[4] = bad_value
    with pytest.raises(ConfigurationError, match=message):
        Window(T=T, sigma=np.linspace(0.0, 1.0, 11), values=values)


# ------------------------------------------------------- array evaluation


def _oracle_pieces(y_from, y_to, t_start, t_end):
    """``(start, ascending coefficients in t - start)`` per piece of ``make_smoothstep(...)``.

    A constant head from ``-inf``, the degree-7 step rescaled to ``t - t_start`` and a
    constant tail; one constant piece when the levels are equal.
    """
    if y_from == y_to:
        return [(-math.inf, (y_from,))]
    duration, amp = t_end - t_start, y_to - y_from
    step = [amp * c / duration**k for k, c in enumerate((0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0))]
    step[0] = y_from
    return [(-math.inf, (y_from,)), (t_start, tuple(step)), (t_end, (y_to,))]


def _oracle_eval(pieces, t, order):
    """The ``order``-th derivative at ``t``: bisect for the piece, Horner on floats."""
    start, coeffs = pieces[max(bisect.bisect_right([start for start, _ in pieces], t) - 1, 0)]
    coeffs = list(coeffs)
    for _ in range(order):
        coeffs = [c * i for i, c in enumerate(coeffs)][1:]
    tau = 0.0 if math.isinf(start) else t - start
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * tau + c
    return acc


_finite = dict(allow_nan=False, allow_infinity=False)
_levels = st.sampled_from([0.0, -0.0]) | st.floats(-10.0, 10.0, **_finite)


@st.composite
def _reference_and_times(draw):
    y_from = draw(_levels)
    if draw(st.booleans()):
        traj, pieces, edges = make_constant(y_from), _oracle_pieces(y_from, y_from, 0.0, 1.0), [0.0]
    else:
        t_start = draw(st.floats(-100.0, 200.0, **_finite))
        t_end = t_start + draw(st.floats(1e-6, 100.0, **_finite))
        y_to = draw(_levels)
        traj = make_smoothstep(y_from, y_to, t_start, t_end)
        pieces = _oracle_pieces(y_from, y_to, t_start, t_end)
        edges = [t_start, t_end]
    near = [u for e in edges for u in (e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf))]
    anywhere = st.floats(min(edges) - 10.0, max(edges) + 10.0, **_finite)
    inside = st.floats(min(edges), max(edges), **_finite)
    times = st.sampled_from(near + [-1e300, 1e300]) | anywhere | inside
    return traj, pieces, draw(st.lists(times, min_size=1, max_size=40))


@settings(max_examples=300)
@given(case=_reference_and_times(), order=st.integers(0, 3))
def test_array_eval_equals_bisect_horner_oracle_bit_for_bit(case, order):
    traj, pieces, times = case
    want = np.array([_oracle_eval(pieces, t, order) for t in times])
    got = traj.eval(np.array(times), order)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # bit for bit, sign of zero included
    for t, w in zip(times, want):
        scalar = traj.eval(t, order)
        assert type(scalar) is float
        assert np.float64(scalar).tobytes() == w.tobytes()
