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

:func:`channel_step` is the law at one sample and holds no state.  The
simulation loop (:func:`heol.scenarios.run_scenario`) owns everything that
persists between samples: the time-only signals (reference, feedforward,
``alpha``), tabulated on the grid before the first step, and the
measurement-driven history (deviations, applied ``alpha*Du``, the filtered
derivative) that feeds the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, SingularGainError, StabilityError
from .estimators import EstimatorConfig
from .homeostat import HomeostatChannel

__all__ = [
    "Gains",
    "ChannelController",
    "ip_control",
    "ipd_control",
    "gains_from_poles",
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
    nominal_control : callable(t)
        Feedforward along the reference, at a float or an array of times.
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
    saturation: tuple[float, float] | None = None
    tau_f: float | None = None
    feedback: bool = True

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


def channel_step(
    controller: ChannelController,
    f_est: float,
    dy: float,
    ddy: float,
    u_nom: float,
    alpha: float,
) -> tuple[float, bool]:
    """The channel law at one sample: total control and whether it was clamped.

    ``f_est`` is the disturbance estimate (0 during warm-up), ``dy`` the
    measured deviation, ``ddy`` its filtered derivative (read by order-2
    channels only), ``u_nom`` the feedforward sample and ``alpha`` the
    channel gain.  The iP/iPD correction is added to the feedforward and the
    sum clamped to the saturation; the applied correction is the returned
    control minus ``u_nom``.
    """
    du = 0.0
    if controller.feedback:
        if controller.channel.order == 1:
            du = ip_control(f_est, dy, controller.gains, alpha)
        else:
            du = ipd_control(f_est, dy, ddy, controller.gains, alpha)
    u = u_nom + du
    if controller.saturation is not None:
        lo, hi = controller.saturation
        if u < lo:
            return lo, True
        if u > hi:
            return hi, True
    return u, False
