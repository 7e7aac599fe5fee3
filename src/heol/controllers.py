"""Intelligent proportional (iP) and proportional-derivative (iPD) channel laws.

Each channel closes its loop on the homeostat model
``d^order(Dy)/dt^order = F + alpha * Du`` by cancelling the running estimate
of F and placing the remaining error dynamics:

    order 1:  Du = -(F_est + k_p * Dy) / alpha
    order 2:  Du = -(F_est + k_p * Dy + k_d * d(Dy)/dt) / alpha

so the tracking error obeys ``(d/dt + k_p) Dy = F - F_est`` (order one) or
``(d2/dt2 + k_d d/dt + k_p) Dy = F - F_est`` (order two).  With an accurate
estimate the error decays at the placed poles regardless of the plant's
unmodelled dynamics.

During warm-up (no full estimation window yet) the estimate is pinned to 0,
so the channel applies pure feedforward plus the proportional(-derivative)
correction only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    SingularGainError,
    StabilityError,
    TimeOrderError,
)
from .estimators import EstimatorConfig, FEstimate, FusedEstimator
from .homeostat import HomeostatChannel
from .signals import TimeGrid

__all__ = [
    "Gains",
    "ControllerState",
    "ChannelController",
    "ChannelHistory",
    "ChannelRecord",
    "ip_control",
    "ipd_control",
    "gains_from_poles",
    "poles_from_gains",
    "derivative_estimate",
    "channel_step",
]

_ALPHA_FLOOR = 1e-9


@dataclass(frozen=True)
class Gains:
    """Feedback gains; ``k_d`` is only meaningful for order-2 channels.

    Construction enforces the Hurwitz conditions ``k_p > 0`` and, when
    present, ``k_d > 0``.
    """

    k_p: float
    k_d: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.k_p) and self.k_p > 0.0):
            raise StabilityError(f"k_p must be positive and finite, got {self.k_p}")
        if self.k_d is not None and not (math.isfinite(self.k_d) and self.k_d > 0.0):
            raise StabilityError(f"k_d must be positive and finite when present, got {self.k_d}")


def gains_from_poles(order: int, pole: float) -> Gains:
    """Gains placing the error dynamics at ``pole`` (a double root for order 2).

    order 1:  s + k_p        has root  -k_p        ->  k_p = -pole
    order 2:  s^2 + k_d s + k_p  has double root p ->  k_d = -2p, k_p = p^2
    """
    if not (math.isfinite(pole) and pole < 0.0):
        raise StabilityError(f"pole must be a strictly negative real, got {pole}")
    if order == 1:
        return Gains(k_p=-pole)
    if order == 2:
        return Gains(k_p=pole * pole, k_d=-2.0 * pole)
    raise ConfigurationError(f"pole placement supports orders 1 and 2, got {order}")


def poles_from_gains(gains: Gains) -> tuple:
    """Roots of the placed characteristic polynomial.

    A discriminant within round-off of zero is reported as an exact double
    root, so ``poles_from_gains(gains_from_poles(2, p))`` recovers ``p``
    without square-root noise.
    """
    if gains.k_d is None:
        return (-gains.k_p,)
    disc = gains.k_d * gains.k_d - 4.0 * gains.k_p
    tol = 64.0 * np.finfo(float).eps * max(gains.k_d * gains.k_d, abs(4.0 * gains.k_p))
    if abs(disc) <= tol:
        r = -0.5 * gains.k_d
        return (r, r)
    if disc > 0.0:
        s = math.sqrt(disc)
        return (0.5 * (-gains.k_d - s), 0.5 * (-gains.k_d + s))
    s = math.sqrt(-disc)
    return (complex(-0.5 * gains.k_d, -0.5 * s), complex(-0.5 * gains.k_d, 0.5 * s))


def _check_alpha(alpha: float) -> None:
    if not math.isfinite(alpha) or abs(alpha) <= _ALPHA_FLOOR:
        raise SingularGainError(f"cannot divide by channel gain alpha={alpha!r}")


def ip_control(f_est: float, dy: float, gains: Gains, alpha: float) -> float:
    """Order-1 correction ``-(F_est + k_p Dy) / alpha``."""
    _check_alpha(alpha)
    return -(f_est + gains.k_p * dy) / alpha


def ipd_control(f_est: float, dy: float, ddy: float, gains: Gains, alpha: float) -> float:
    """Order-2 correction ``-(F_est + k_p Dy + k_d dDy/dt) / alpha``."""
    _check_alpha(alpha)
    if gains.k_d is None:
        raise ConfigurationError("ipd_control needs k_d")
    return -(f_est + gains.k_p * dy + gains.k_d * ddy) / alpha


@dataclass
class ControllerState:
    """Mutable per-run state: previous sample and the filtered derivative."""

    tau_f: float = 0.0
    prev_dy: float | None = None
    prev_t: float | None = None
    deriv: float = 0.0

    def reset(self):
        self.prev_dy = None
        self.prev_t = None
        self.deriv = 0.0


def derivative_estimate(state: ControllerState, dy: float, t: float) -> float:
    """Low-pass-filtered backward difference of ``dy``.

    The first call only seeds the state and returns 0.  ``state.tau_f`` is
    the filter time constant; 0 disables filtering.  Non-increasing time
    stamps raise :class:`TimeOrderError`.
    """
    if state.prev_t is None:
        state.prev_dy = dy
        state.prev_t = t
        state.deriv = 0.0
        return 0.0
    dt = t - state.prev_t
    if dt <= 0.0:
        raise TimeOrderError(f"derivative estimate needs increasing times, got {state.prev_t} -> {t}")
    raw = (dy - state.prev_dy) / dt
    state.deriv += dt / (state.tau_f + dt) * (raw - state.deriv)
    state.prev_dy = dy
    state.prev_t = t
    return state.deriv


class ChannelHistory:
    """Per-channel ``Dy`` and ``alpha*Du`` logs on the simulation grid.

    Arrays are preallocated and zero-filled.  ``adu[k]`` is written only
    after the control at step k is known; reading it earlier yields the zero
    pad, which is harmless because both estimator kernels carry zero weight
    at the window's trailing edge.
    """

    def __init__(self, grid: TimeGrid):
        self.grid = grid
        self.dy = np.zeros(grid.n_points)
        self.adu = np.zeros(grid.n_points)


@dataclass(frozen=True)
class ChannelRecord:
    """What one channel logs at one grid point."""

    dy: float
    du: float
    f_est: float
    f_valid: bool
    clamped: bool
    u_nominal: float
    u_total: float


@dataclass
class ChannelController:
    """One homeostat channel closed by an iP (order 1) or iPD (order 2) law.

    Parameters
    ----------
    channel : HomeostatChannel
        Regulated output, model order, and gain ``alpha(t)``.
    gains : Gains
        ``k_d`` is required exactly when the channel order is 2.
    estimator : EstimatorConfig
        Window length and quadrature rule of the F estimator.
    nominal_control : callable(t) -> float
        Feedforward along the reference.
    ff_lead : float
        Evaluation lead for the feedforward sample.  The loop applies the
        control over ``[t, t + h)`` under zero-order hold, so sampling the
        (analytically known) feedforward at ``t + h/2`` removes the hold's
        first-order phase bias; 0 samples at ``t`` exactly.
    saturation : (float, float), optional
        Clamp on the total control; the clamped deviation is what enters the
        estimator history.
    tau_f : float, optional
        Derivative filter time constant; defaults to five sampling periods.
    feedback : bool
        False runs the channel open loop (feedforward only) while still
        logging deviations and estimates.
    """

    channel: HomeostatChannel
    gains: Gains
    estimator: EstimatorConfig
    nominal_control: object
    ff_lead: float = 0.0
    saturation: tuple[float, float] | None = None
    tau_f: float | None = None
    feedback: bool = True
    state: ControllerState = field(default_factory=ControllerState)
    _fused: FusedEstimator | None = field(default=None, repr=False)
    _w: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.channel.order not in (1, 2):
            raise ConfigurationError(
                f"channel order {self.channel.order} unsupported; estimators exist for orders 1 and 2"
            )
        if self.channel.order == 2 and self.gains.k_d is None:
            raise ConfigurationError("order-2 channel needs k_d (iPD law)")
        if self.channel.order == 1 and self.gains.k_d is not None:
            raise ConfigurationError("order-1 channel takes no k_d (iP law)")
        sat = self.saturation
        if sat is not None and not (len(sat) == 2 and sat[0] < sat[1]):
            raise ConfigurationError(f"saturation needs (u_min, u_max) with u_min < u_max, got {sat}")
        if self.tau_f is not None and not (math.isfinite(self.tau_f) and self.tau_f >= 0.0):
            raise ConfigurationError(f"tau_f must be finite and non-negative, got {self.tau_f}")

    def bind_grid(self, grid: TimeGrid):
        """Resolve grid-dependent pieces (window size, filter constant)."""
        self._w = self.estimator.validate_against(grid.h)
        self._fused = FusedEstimator(
            self.channel.order, self._w * grid.h, self._w, self.estimator.rule
        )
        self.state.tau_f = self.tau_f if self.tau_f is not None else 5.0 * grid.h
        self.state.reset()


def channel_step(
    controller: ChannelController,
    y_meas: float,
    t: float,
    history: ChannelHistory,
) -> tuple[float, ChannelRecord]:
    """Advance one channel by one sample: measure, estimate, correct.

    Returns the total control to hold over the next sampling interval and
    the log record.  The measured deviation enters the history before the
    estimator window is read, and the (possibly clamped) applied deviation
    is appended afterwards, so the estimate at ``t`` uses data up to and
    including ``t`` but never the control applied at ``t``.
    """
    if controller._fused is None:
        controller.bind_grid(history.grid)
    chan = controller.channel
    grid = history.grid
    k = grid.index_of(t)

    ref = chan.references[chan.output_index]
    dy = y_meas - ref.eval(t, 0)
    history.dy[k] = dy

    ddy = derivative_estimate(controller.state, dy, t) if chan.order == 2 else 0.0

    w = controller._w
    if k - w < 0:
        fest = FEstimate(0.0, t, valid=False)
    else:
        fest = controller._fused.estimate(
            history.dy[k - w : k + 1], history.adu[k - w : k + 1], t
        )

    # Probe the feedforward at the sample time itself before anything is
    # divided by alpha: a flatness singularity at t should surface as such,
    # naming t, not as a downstream zero-gain error.
    u_nom = controller.nominal_control(t)
    if controller.ff_lead != 0.0:
        u_nom = controller.nominal_control(t + controller.ff_lead)

    alpha = chan.alpha(t)
    if controller.feedback:
        if chan.order == 1:
            du = ip_control(fest.value, dy, controller.gains, alpha)
        else:
            du = ipd_control(fest.value, dy, ddy, controller.gains, alpha)
    else:
        du = 0.0

    u = u_nom + du
    clamped = False
    if controller.saturation is not None:
        lo, hi = controller.saturation
        if u < lo:
            u, clamped = lo, True
        elif u > hi:
            u, clamped = hi, True
    du_applied = u - u_nom
    history.adu[k] = alpha * du_applied

    return u, ChannelRecord(
        dy=dy,
        du=du_applied,
        f_est=fest.value,
        f_valid=fest.valid,
        clamped=clamped,
        u_nominal=u_nom,
        u_total=u,
    )
