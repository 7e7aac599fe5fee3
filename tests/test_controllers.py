"""Pole placement, the iP/iPD law, and the loop that applies it.

The law lives once, inline in :func:`heol.scenarios.run_scenario`; the plain-loop
oracle of ``test_oracle.py`` restates it, and the property there holds the loop to
it bit for bit.  Hand values of the law are checked here on the oracle's
restatement; the loop's per-sample behaviour (warm-up, estimator windows,
derivative filter, saturation, feedforward sampling) is checked against run logs,
replaying the documented arithmetic bit for bit where the loop is exact.
"""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heol.controllers import Gains, gains_from_poles
from heol.errors import ConfigurationError
from heol.estimators import FusedEstimator
from heol.homeostat import ImplicitFlatRelation, nominal_u1, nominal_u2
from heol.plant import PlantModel
from heol.scenarios import PLANTS, ChannelSpec, Timing, builtin_scenario, run_scenario, validate_scenario
from heol.signals import make_smoothstep

from conftest import ultralocal_scenario
from test_oracle import ip_law

LOG_FIELDS = ("t", "y", "y_ref", "u", "u_nom", "dy", "du", "f_est", "f_valid", "clamped")


def law_channel(order=1, k_p=1.0, k_d=None, **changes):
    """A built channel record carrying the given law (unsaturated unless ``changes`` say), as ``ip_law`` reads it."""
    if order == 2 and k_d is None:
        k_d = 1.0
    channel = validate_scenario(ultralocal_scenario(1.0)).channels[0]
    return dataclasses.replace(channel, order=order, k_p=k_p, k_d=k_d, **changes)


def with_channel(scenario, **changes):
    """``scenario`` with its single channel spec changed."""
    return dataclasses.replace(
        scenario, channels=(dataclasses.replace(scenario.channels[0], **changes),)
    )


def order2_run(**kw):
    """Order-2 loop with k_p = k_d = 4 and alpha = 1, starting 0.5 off the reference."""
    return ultralocal_scenario(4.0, order=2, k_d=4.0, drift=0.5, duration=2.0, **kw)


def filtered_derivative(dy, t, tau):
    """The loop's derivative filter replayed on a logged deviation column."""
    out = np.zeros(len(dy))
    d = 0.0
    for k in range(1, len(dy)):
        dt = t[k] - t[k - 1]
        d += dt / (tau + dt) * ((dy[k] - dy[k - 1]) / dt - d)
        out[k] = d
    return out


def implied_derivative(log):
    """The derivative term an ``order2_run`` log implies, solved from the iPD law."""
    return (-log.du[:, 0] - log.f_est[:, 0] - 4.0 * log.dy[:, 0]) / 4.0


def estimator_replay(log, j, order, alpha):
    """F_est of channel ``j`` recomputed from its own logged columns.

    The window ends at dy[k]; its last alpha*Du entry is the zero pad the
    loop reads before the control at t_k is known.
    """
    w = int(round(log.channel_T[j] / log.t[1]))  # t[1] is h
    fused = FusedEstimator(order, log.channel_T[j], w)
    hist = np.column_stack((log.dy[:, j], alpha * log.du[:, j])).ravel()  # the loop's interleaved history
    out = np.zeros(len(log.t))
    for k in range(w, len(log.t)):
        window = hist[2 * (k - w) : 2 * k + 2].copy()
        window[-1] = 0.0
        out[k] = fused.estimate(window)
    return w, out


# -------------------------------------------------------------------- gains


def test_gains_enforce_hurwitz_conditions():
    Gains(k_p=1.0)
    Gains(k_p=0.0225, k_d=0.3)
    with pytest.raises(ConfigurationError, match="k_p must be positive and finite, got 0.0"):
        Gains(k_p=0.0)
    with pytest.raises(ConfigurationError, match="k_p must be positive and finite, got -1.0"):
        Gains(k_p=-1.0)
    with pytest.raises(ConfigurationError, match="k_d must be positive and finite when present, got 0.0"):
        Gains(k_p=1.0, k_d=0.0)


def test_pole_placement_first_order():
    assert gains_from_poles(1, -1.0).k_p == 1.0
    assert gains_from_poles(1, -1.0).k_d is None


def test_pole_placement_double_root():
    g = gains_from_poles(2, -0.15)
    assert g.k_p == pytest.approx(0.0225, abs=1e-12)
    assert g.k_d == pytest.approx(0.3, abs=1e-12)


def test_pole_placement_rejects_unstable_and_odd_orders():
    with pytest.raises(ConfigurationError, match="pole must be a strictly negative real, got 1.0"):
        gains_from_poles(1, 1.0)
    with pytest.raises(ConfigurationError, match="pole must be a strictly negative real, got 0.0"):
        gains_from_poles(2, 0.0)
    with pytest.raises(ConfigurationError):
        gains_from_poles(3, -1.0)


def test_poles_round_trip_through_gains(rng):
    for _ in range(50):
        p = -float(rng.uniform(0.01, 10.0))
        g1, g2 = gains_from_poles(1, p), gains_from_poles(2, p)
        assert (g1.k_p, g1.k_d) == (-p, None)
        assert (g2.k_p, g2.k_d) == (p * p, -2.0 * p)


# --------------------------------------------------------------- iP and iPD


def test_ip_control_at_rest_is_zero():
    assert ip_law(law_channel(k_p=3.0), True, 0.0, 0.0, 0.0, 0.0, 1.0) == (0.0, False)
    # started on the reference with nothing pushing it off, the loop never acts
    log = run_scenario(ultralocal_scenario(3.0, dy0=0.0, duration=1.0))
    assert not log.dy.any() and not log.u.any() and not log.clamped.any()


def test_ip_control_hand_value():
    # -(F + kp dy)/alpha = -(-3 + 0.5)/2 = 1.25
    assert ip_law(law_channel(k_p=1.0), True, -3.0, 0.5, 0.0, 0.0, 2.0) == (1.25, False)


def test_ipd_control_hand_value():
    ipd = law_channel(order=2, k_p=0.0225, k_d=0.3)
    assert ip_law(ipd, True, 0.0, 0.0, 0.0, 0.0, 1.0) == (0.0, False)
    u, clamped = ip_law(ipd, True, 1.0, 1.0, 1.0, 0.0, -1.0)
    assert u == pytest.approx(1.3225, abs=1e-12) and not clamped


def test_controls_are_homogeneous_in_alpha(rng):
    ip = law_channel(k_p=1.7)
    ipd = law_channel(order=2, k_p=0.4, k_d=2.2)
    for _ in range(200):
        f, dy, ddy = rng.standard_normal(3)
        a = float(rng.uniform(0.1, 5.0)) * (1 if rng.uniform() < 0.5 else -1)
        for ch in (ip, ipd):
            u2, _ = ip_law(ch, True, f, dy, ddy, 0.0, 2.0 * a)
            u1, _ = ip_law(ch, True, f, dy, ddy, 0.0, a)
            assert u2 == u1 / 2.0


def test_law_order_two_uses_filtered_derivative():
    g = Gains(k_p=0.0225, k_d=0.3)
    ipd = law_channel(order=2, k_p=g.k_p, k_d=g.k_d)
    u, clamped = ip_law(ipd, True, 0.1, 0.5, 0.25, 2.0, -1.0)
    assert u == 2.0 + -(0.1 + g.k_p * 0.5 + g.k_d * 0.25) / -1.0 and not clamped
    ip = law_channel(order=1, k_p=1.0)
    assert ip_law(ip, True, 0.1, 0.5, 99.0, 2.0, 2.0) == ip_law(ip, True, 0.1, 0.5, 0.0, 2.0, 2.0)


# ----------------------------------------------------- channel assembly


def test_controller_rejects_bad_saturation_and_order(monkeypatch):
    for sat in ((1.0, -1.0), (0.5, 0.5), (-1.0, 0.0, 1.0)):
        message = f"saturation needs (u_min, u_max) with u_min < u_max, got {sat}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            ChannelSpec(output=0, pole=-1.0, saturation=sat)

    # a relation that first reads the third derivative derives an order-3 channel: no estimator exists
    def triple_integrator(params):
        model = PlantModel(3, 1, 1, lambda t, x, u: (x[1], x[2], u[0]), lambda x: (x[0],))
        relation = ImplicitFlatRelation(orders=(3,), control_index=0, residual=lambda table, u: table[0, 3] - u)
        return model, lambda refs, mismatch: np.zeros(3), (relation,), (), {}

    monkeypatch.setitem(PLANTS, "triple", (triple_integrator, PLANTS["ultralocal"][1]))
    derived = dataclasses.replace(
        ultralocal_scenario(1.0), plant="triple", plant_params={}, channels=(ChannelSpec(output=0, pole=-1.0),)
    )
    message = "channel 1: channel order 3 unsupported; estimators exist for orders 1 and 2"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        validate_scenario(derived)


# ------------------------------------------------------- the loop, by its logs


def test_loop_on_trajectory_applies_feedforward():
    # closed loop at the benchmark's equilibrium: the flat inversion is exact, so there is no
    # deviation, estimate or correction, and every applied control is the feedforward sample
    on_reference = dataclasses.replace(
        builtin_scenario("paper-sec4-nominal"), control_mode="closed-loop", timing=Timing(duration=2.0, h=0.01)
    )
    log = run_scenario(on_reference)
    assert not log.dy.any() and not log.f_est.any() and not log.du.any()
    assert log.u_nom.all()
    np.testing.assert_array_equal(log.u, log.u_nom)


def test_loop_warm_up_is_proportional_only():
    log = run_scenario(with_channel(ultralocal_scenario(2.0, duration=1.0), alpha_value=4.0))
    w = 30
    assert not log.f_valid[:w].any() and log.f_valid[w:].all()
    assert not log.f_est[:w].any()
    np.testing.assert_array_equal(log.u[:w, 0], -(0.0 + 2.0 * log.dy[:w, 0]) / 4.0)
    assert log.dy[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_loop_clamps_and_flags_saturation():
    clamp = law_channel(saturation=(-1.0, 1.0))
    assert ip_law(clamp, True, 0.0, -5.0, 0.0, 0.0, 1.0) == (1.0, True)  # wants du = +5
    log = run_scenario(
        with_channel(ultralocal_scenario(2.0, duration=1.0), alpha_value=2.0, saturation=(-0.2, 0.2))
    )
    clamped = log.clamped[:, 0]
    assert clamped[0] and clamped.sum() > 30  # clamped beyond the warm-up window
    np.testing.assert_array_equal(log.u[clamped, 0], -0.2)
    np.testing.assert_array_equal(log.du[:, 0], log.u[:, 0] - log.u_nom[:, 0])
    # the applied (clamped) correction, not the requested one, enters the history
    w, f_est = estimator_replay(log, 0, 1, 2.0)
    np.testing.assert_array_equal(log.f_est[w:, 0], f_est[w:])


def test_loop_estimate_matches_fused_kernel_after_warm_up():
    s = order2_run(noise_std=1e-3, noise_seed=3, estimator_T=0.25)
    log = run_scenario(s)
    w, f_est = estimator_replay(log, 0, 2, 1.0)
    assert w == 25 and log.f_valid[w:, 0].all()
    np.testing.assert_array_equal(log.f_est[:, 0], f_est)


def test_long_window_estimate_in_the_loop_sums_its_slice_dots():
    # 5,501 samples per window, 11,002 interleaved values: the loop's estimate adds the dots
    # of 10,000-value slices in order, as FusedEstimator.estimate does
    log = run_scenario(ultralocal_scenario(1.0, drift=0.3, h=1e-3, estimator_T=5.5, duration=5.6))
    w, f_est = estimator_replay(log, 0, 1, 1.0)
    assert 2 * (w + 1) == 11_002 and log.f_valid[w:, 0].all()
    np.testing.assert_array_equal(log.f_est[:, 0], f_est)


def test_loop_feedforward_mode_never_corrects():
    assert ip_law(law_channel(), False, 3.0, 9.0, 1.0, 2.5, 2.0) == (2.5, False)
    log = run_scenario(ultralocal_scenario(1.0, drift=0.3, duration=1.0, control_mode="feedforward"))
    assert abs(log.dy[-1, 0]) > 0.5  # the deviation is left alone
    assert not log.du.any()
    np.testing.assert_array_equal(log.u, log.u_nom)
    assert log.f_valid[30:].all()  # estimates are still logged


def test_loop_midpoint_lead_shifts_feedforward_sample():
    base = builtin_scenario("paper-sec4")
    moving = dataclasses.replace(
        base,
        timing=Timing(duration=1.0, h=0.01),
        references=(
            {"type": "smoothstep", "from": 1.0, "to": 2.0, "t_start": 0.0, "t_end": 30.0},
            {"type": "smoothstep", "from": 1.0, "to": 2.0, "t_start": 0.0, "t_end": 30.0},
        ),
    )
    log = run_scenario(moving)
    r1 = r2 = make_smoothstep(1.0, 2.0, 0.0, 30.0)
    mid = [t + 0.005 for t in log.t]
    np.testing.assert_array_equal(log.u_nom[:, 0], [nominal_u1(r1, t) for t in mid])
    # paper-sec4 mis-weights the second feedforward (mismatch u2-coeff-1.1-0.9)
    np.testing.assert_array_equal(log.u_nom[:, 1], [nominal_u2(r1, r2, t, 1.1, 0.9) for t in mid])
    assert log.u_nom[50, 0] != nominal_u1(r1, log.t[50])


def test_channel_independence_at_fixed_histories():
    # Each channel's estimate reads its own deviation and alpha*Du columns
    # only, and each order-2 channel filters its own deviation.
    base = builtin_scenario("paper-sec4")
    ch1, ch2 = base.channels
    s = dataclasses.replace(
        base,
        timing=Timing(duration=2.0, h=0.01),
        channels=(
            dataclasses.replace(ch1, alpha_source="constant", alpha_value=1.0),
            dataclasses.replace(ch2, alpha_source="constant", alpha_value=-1.0),
        ),
    )
    log = run_scenario(s)
    for j, (order, alpha) in enumerate(((1, 1.0), (2, -1.0))):
        _, f_est = estimator_replay(log, j, order, alpha)
        np.testing.assert_array_equal(log.f_est[:, j], f_est)
    g = gains_from_poles(2, -0.15)
    ddy = filtered_derivative(log.dy[:, 1], log.t, 0.05)
    du = -(log.f_est[:, 1] + g.k_p * log.dy[:, 1] + g.k_d * ddy) / -1.0
    np.testing.assert_array_equal(log.u[:, 1], log.u_nom[:, 1] + du)


# ------------------------------------------------------- derivative filter


def test_derivative_estimate_first_call_returns_zero():
    log = run_scenario(order2_run())
    assert log.dy[0, 0] != 0.0
    assert log.u[0, 0] == -(0.0 + 4.0 * log.dy[0, 0] + 4.0 * 0.0) / 1.0


def test_derivative_estimate_constant_signal():
    # started on the reference with nothing pushing it off, the deviation
    # stays 0: no derivative term, no estimate, no correction
    log = run_scenario(ultralocal_scenario(4.0, order=2, k_d=4.0, dy0=0.0, duration=2.0))
    assert not log.dy.any() and not log.du.any()


def test_derivative_estimate_filter_converges_to_slope():
    # the backward difference passes a first-order low-pass with time constant
    # 5*h, which settles on the slope of the deviation
    log = run_scenario(order2_run())
    ddy = implied_derivative(log)
    assert ddy[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(ddy, filtered_derivative(log.dy[:, 0], log.t, 0.05), rtol=0.0, atol=1e-9)
    steps = np.diff(log.dy[:, 0]) / 0.01
    assert np.max(np.abs(ddy[1:] - steps)) > 1e-2  # filtered, not raw


def test_bind_grid_defaults_filter_constant_to_five_steps():
    log = run_scenario(order2_run())
    assert log.channel_T == (pytest.approx(0.3),)
    ddy = filtered_derivative(log.dy[:, 0], log.t, 5 * 0.01)
    du = -(log.f_est[:, 0] + 4.0 * log.dy[:, 0] + 4.0 * ddy) / 1.0
    np.testing.assert_array_equal(log.u[:, 0], log.u_nom[:, 0] + du)


def test_state_reset_clears_history():
    # no derivative or estimator state survives from one run into the next
    s = order2_run()
    first = run_scenario(s)
    run_scenario(with_channel(s, estimator_T=0.1))
    again = run_scenario(s)
    for name in LOG_FIELDS:
        np.testing.assert_array_equal(getattr(first, name), getattr(again, name))


# ------------------------------------------------------- prefix determinism


@settings(max_examples=15, deadline=None)
@given(
    order=st.sampled_from((1, 2)),
    w=st.integers(4, 40),
    seed=st.integers(0, 2**32 - 1),
    n_short=st.integers(1, 150),
    n_extra=st.integers(1, 150),
)
def test_shorter_run_is_bit_exact_prefix_of_longer_run(order, w, seed, n_short, n_extra):
    def run(n):
        return run_scenario(
            ultralocal_scenario(
                4.0,
                order=order,
                k_d=4.0 if order == 2 else None,
                drift=0.5,
                duration=n * 0.01,
                estimator_T=w * 0.01,
                noise_std=1e-3,
                noise_seed=seed,
            )
        )

    short, long = run(n_short), run(n_short + n_extra)
    for name in LOG_FIELDS:
        np.testing.assert_array_equal(getattr(long, name)[: n_short + 1], getattr(short, name))
