"""Windowed integral estimators of the lumped disturbance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heol.errors import ConfigurationError
from heol.estimators import (
    FusedEstimator,
    estimate_f_nu1,
    estimate_f_nu2,
)
from heol.scenarios import ChannelSpec, validate_scenario
from heol.signals import Window

from conftest import run_python, ultralocal_scenario


def make_window(values, T=1.0):
    values = np.asarray(values, dtype=float)
    n = len(values) - 1
    sigma = (T / n) * np.arange(n + 1)
    return Window(T=sigma[-1], sigma=sigma, values=values)


def sigma_of(n, T=1.0):
    return (T / n) * np.arange(n + 1)


# ------------------------------------------------------- quadrature accuracy

F_TRUE, ADU = -4.0, 3.0

# Relative error of (order 1, order 2) on the polynomial signals of
# ``polynomial_windows`` under Simpson weights, by interval count; None means
# exact to round-off.  Simpson needs an even count; an odd count puts a
# trapezoid on the last panel.
MEASURED_REL_ERROR = {
    30: (None, 1.111e-5),
    31: (8.392e-6, 1.810e-3),
    100: (None, 9.000e-8),
    101: (2.426e-7, 5.373e-5),
}


# The same errors as a law c * n**-p per order and parity of n (None: exact
# to round-off).  The law holds for every window length, because
# ``polynomial_windows`` scales the initial conditions with T.  At order 2
# with an odd count, n**3 times the error rises from 43.4 at n = 5 towards
# 56.25.
ERROR_LAW = {
    (1, 0): None,
    (1, 1): (0.25, 3),
    (2, 0): (9.0, 4),
    (2, 1): (56.25, 3),
}


def polynomial_windows(n, T=1.0):
    """Windows of d^nu(dy)/dt^nu = F + a*du with constant right side over [0, T]."""
    s = sigma_of(n, T)
    adu = make_window(np.full(n + 1, ADU), T)
    dy1 = 0.7 * T + (F_TRUE + ADU) * s
    dy2 = 0.7 * T**2 - 1.3 * T * s + 0.5 * (F_TRUE + ADU) * s**2
    return make_window(dy1, T), make_window(dy2, T), adu


def within_error_law(rel, order, n):
    """Whether ``rel`` lies between 0.75 and 1 times the law, up to 1e-13 of round-off."""
    law = ERROR_LAW[order, n % 2]
    if law is None:
        return rel <= 1e-13
    c, p = law
    return 0.75 * c * n**-p <= rel <= c * n**-p + 1e-13


@pytest.mark.parametrize("n", sorted(MEASURED_REL_ERROR), ids="simpson-{}".format)
def test_polynomial_signal_error_matches_quadrature_rule(n):
    dy1, dy2, adu = polynomial_windows(n)
    for order, fn, dy, measured in zip(
        (1, 2), (estimate_f_nu1, estimate_f_nu2), (dy1, dy2), MEASURED_REL_ERROR[n]
    ):
        rel = abs(fn(dy, adu).value - F_TRUE) / abs(F_TRUE)
        if measured is None:
            assert rel <= 1e-14
        else:
            assert rel == pytest.approx(measured, rel=1e-3)
        assert within_error_law(rel, order, n)


@settings(max_examples=300, deadline=None)
@given(
    T=st.floats(min_value=0.01, max_value=100.0),
    n=st.integers(min_value=4, max_value=400),
    order=st.sampled_from([1, 2]),
)
def test_relative_error_follows_the_error_law(T, n, order):
    dy1, dy2, adu = polynomial_windows(n, T)
    fn, dy = (estimate_f_nu1, dy1) if order == 1 else (estimate_f_nu2, dy2)
    rel = abs(fn(dy, adu).value - F_TRUE) / abs(F_TRUE)
    assert within_error_law(rel, order, n), rel


def test_quadrature_odd_interval_count_still_integrates_constants():
    # the Simpson-plus-trapezoid weights integrate the linear order-1 kernel
    # exactly for any count, so a constant offset on dy is annihilated even
    # with odd counts
    for n in (2, 3, 5, 31, 99):
        z = make_window(np.zeros(n + 1))
        offset = make_window(np.full(n + 1, 5.0))
        assert abs(estimate_f_nu1(offset, z).value) <= 1e-12


def test_quadrature_needs_three_samples():
    w = make_window([0.0, 1.0])
    for fn in (estimate_f_nu1, estimate_f_nu2):
        with pytest.raises(ConfigurationError, match="estimator window needs at least 3 samples, got 2"):
            fn(w, w)


# ---------------------------------------------------------- order-1 formula


def test_nu1_zero_signals_give_zero():
    z = make_window(np.zeros(101))
    est = estimate_f_nu1(z, z)
    assert est.value == 0.0
    assert est.valid


def test_nu1_linear_deviation_recovers_slope():
    # dy(s) = 2 s solves d(dy)/dt = F with F = 2 and no control
    s = sigma_of(100)
    est = estimate_f_nu1(make_window(2.0 * s), make_window(np.zeros(101)))
    assert est.value == pytest.approx(2.0, abs=1e-9)


def test_nu1_constant_control_balances_estimate():
    # 0 = F + (a du) with a du = 3 everywhere, so F = -3
    z = make_window(np.zeros(101))
    est = estimate_f_nu1(z, make_window(np.full(101, 3.0)))
    assert est.value == pytest.approx(-3.0, abs=1e-9)


# ---------------------------------------------------------- order-2 formula


def test_nu2_zero_signals_give_zero():
    z = make_window(np.zeros(101))
    est = estimate_f_nu2(z, z)
    assert est.value == 0.0 and est.valid


def test_nu2_quadratic_deviation_recovers_curvature():
    # dy(s) = s^2 solves d2(dy)/dt2 = F with F = 2
    s = sigma_of(100)
    est = estimate_f_nu2(make_window(s**2), make_window(np.zeros(101)))
    assert est.value == pytest.approx(2.0, rel=1e-6)


def test_nu2_constant_control_balances_estimate():
    z = make_window(np.zeros(101))
    est = estimate_f_nu2(z, make_window(np.full(101, 4.0)))
    assert est.value == pytest.approx(-4.0, rel=1e-6)


# ------------------------------------------------------- shared error paths


def test_misaligned_windows_rejected():
    a = make_window(np.zeros(101))
    b = make_window(np.zeros(51))
    for fn in (estimate_f_nu1, estimate_f_nu2):
        with pytest.raises(ConfigurationError, match="windows differ in geometry: 101 samples over T=1.0 vs 51"):
            fn(a, b)


# ---------------------------------------------------------------- properties


def test_consistency_for_constant_f_any_initial_conditions(rng):
    # signals generated by d^nu(dy)/dt^nu = F + a du with constant right side
    s = sigma_of(100)
    for F in (-4.0, 2.0, 7.0):
        for adu in (-3.0, 0.0, 4.0):
            y0, v0 = rng.standard_normal(2) * 5.0
            u_win = make_window(np.full(101, adu))

            dy1 = y0 + (F + adu) * s
            est1 = estimate_f_nu1(make_window(dy1), u_win)
            assert est1.value == pytest.approx(F, rel=1e-6)

            dy2 = y0 + v0 * s + 0.5 * (F + adu) * s**2
            est2 = estimate_f_nu2(make_window(dy2), u_win)
            assert est2.value == pytest.approx(F, rel=1e-6)


def test_initial_condition_annihilation(rng):
    s = sigma_of(100)
    u_win = make_window(rng.standard_normal(101))
    dy = rng.standard_normal(101)
    for c in (1.0, -7.0, 1e3):
        base = estimate_f_nu1(make_window(dy), u_win).value
        shifted = estimate_f_nu1(make_window(dy + c), u_win).value
        assert abs(shifted - base) <= 1e-9 * max(1.0, abs(c))

        base2 = estimate_f_nu2(make_window(dy), u_win).value
        affine = dy + c + 0.5 * c * s
        shifted2 = estimate_f_nu2(make_window(affine), u_win).value
        assert abs(shifted2 - base2) <= 1e-9 * max(1.0, abs(c))


def test_estimate_is_linear_in_both_signals(rng):
    dy_a, dy_b = rng.standard_normal((2, 101))
    du_a, du_b = rng.standard_normal((2, 101))
    for fn in (estimate_f_nu1, estimate_f_nu2):
        fa = fn(make_window(dy_a), make_window(du_a)).value
        fb = fn(make_window(dy_b), make_window(du_b)).value
        combo = fn(make_window(2.0 * dy_a + 3.0 * dy_b), make_window(2.0 * du_a + 3.0 * du_b)).value
        assert combo == pytest.approx(2.0 * fa + 3.0 * fb, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------- configuration


def test_estimator_config_validation():
    # the channel spec checks T on its own ...
    for T in (0.0, -0.3, math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="estimator window length must be positive"):
            ChannelSpec(output=0, pole=-1.0, estimator_T=T)
    # ... and the built scenario checks T against the sampling period, once
    assert validate_scenario(ultralocal_scenario(1.0, estimator_T=0.3)).channels[0].w == 30
    with pytest.raises(ConfigurationError, match="must be an integer multiple of the sampling period h=0.007"):
        validate_scenario(ultralocal_scenario(1.0, h=0.007, duration=0.7))
    with pytest.raises(ConfigurationError, match="T=0.03 at h=0.01 holds 4 samples; need at least 5"):
        validate_scenario(ultralocal_scenario(1.0, estimator_T=0.03))


# ------------------------------------------------------------ fused kernels


def test_fused_estimator_matches_public_functions(rng):
    dy = rng.standard_normal(31)
    du = rng.standard_normal(31)
    T = 0.3
    for order, fn in ((1, estimate_f_nu1), (2, estimate_f_nu2)):
        fused = FusedEstimator(order, T, 30)
        got = fused.estimate(np.column_stack((dy, du)).ravel())
        want = fn(make_window(dy, T=T), make_window(du, T=T))
        assert type(got) is float
        assert got == want.value and want.valid


def test_trailing_control_sample_carries_zero_weight():
    # The du kernels vanish at sigma = T, so the estimate at t never depends
    # on the control applied at t; the loop can estimate first, act second.
    for order in (1, 2):
        fused = FusedEstimator(order, 0.3, 30)
        assert fused._w[-1] == 0.0
        window = np.column_stack((np.linspace(0.0, 1.0, 31), np.linspace(1.0, -1.0, 31))).ravel()
        base = fused.estimate(window)
        window[-1] = 1e6
        assert fused.estimate(window) == base


@pytest.mark.parametrize("order", (1, 2))
@pytest.mark.parametrize("n_values", (10, 62, 402, 2002))
def test_batched_windows_round_as_single_estimates(order, n_values, rng):
    # A batch axis can reproduce the single-run estimate bit for bit with
    # np.vecdot over a stack of interleaved windows (H @ w rounds differently),
    # also when the windows are one slice of a stack of longer histories.
    w = n_values // 2 - 1
    fused = FusedEstimator(order, 0.01 * w, w)
    histories = rng.standard_normal((8, n_values + 40))
    for H in (histories[:, :n_values].copy(), histories[:, 20 : 20 + n_values]):
        batch = np.vecdot(H, fused._w)
        assert [float(v) for v in batch] == [fused.estimate(row) for row in H]


_LONG_ESTIMATE = """
import numpy as np
from heol.estimators import FusedEstimator
window = np.random.default_rng(7).standard_normal(10_002)
print(*(FusedEstimator(order, 1.0, 5_000).estimate(window).hex() for order in (1, 2)))
"""


def test_long_window_estimate_does_not_depend_on_the_blas_thread_count():
    # OpenBLAS may split a dot of more than 10,000 values across threads, so a
    # window of 5,001 samples (10,002 values) must not be one dot.
    runs = [run_python("-c", _LONG_ESTIMATE, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout
