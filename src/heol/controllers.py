"""The intelligent proportional (iP) and proportional-derivative (iPD) channel law.

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

:func:`channel_step` is the public law at one sample, for either order, and
holds no state.  It refuses a singular ``alpha`` (non-finite or within
:data:`heol.homeostat.ZERO_THRESHOLD` of zero) with
:class:`~heol.errors.SingularChannelError`.  The simulation loop
(:func:`heol.scenarios.run_scenario`) checks a feedback channel's ``alpha``
once, at every grid point before the first step, and then applies the same
law inline with the same arithmetic.  It owns everything that persists
between samples: the time-only signals (reference, feedforward, ``alpha``)
tabulated on the grid, and the measurement-driven history (deviations,
applied ``alpha*Du``, the filtered derivative) that feeds the estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, SingularChannelError
from .homeostat import ZERO_THRESHOLD, HomeostatChannel

__all__ = [
    "Gains",
    "ChannelController",
    "gains_from_poles",
    "channel_step",
]


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
            raise ConfigurationError(f"k_p must be positive and finite, got {self.k_p}")
        if self.k_d is not None and not (math.isfinite(self.k_d) and self.k_d > 0.0):
            raise ConfigurationError(f"k_d must be positive and finite when present, got {self.k_d}")


def gains_from_poles(order: int, pole: float) -> Gains:
    """Gains placing the error dynamics at ``pole`` (a double root for order 2).

    order 1:  s + k_p        has root  -k_p        ->  k_p = -pole
    order 2:  s^2 + k_d s + k_p  has double root p ->  k_d = -2p, k_p = p^2
    """
    if not (math.isfinite(pole) and pole < 0.0):
        raise ConfigurationError(f"pole must be a strictly negative real, got {pole}")
    if order == 1:
        return Gains(k_p=-pole)
    if order == 2:
        return Gains(k_p=pole * pole, k_d=-2.0 * pole)
    raise ConfigurationError(f"pole placement supports orders 1 and 2, got {order}")


def _check_alpha(alpha: float) -> None:
    if not math.isfinite(alpha) or abs(alpha) <= ZERO_THRESHOLD:
        raise SingularChannelError(f"cannot divide by channel gain alpha={alpha!r}")


@dataclass
class ChannelController:
    """One homeostat channel closed by an iP (order 1) or iPD (order 2) law.

    Parameters
    ----------
    channel : HomeostatChannel
        Regulated output, model order, and gain ``alpha(t)``.
    gains : Gains
        ``k_d`` is required exactly when the channel order is 2.
    nominal_control : callable(t)
        Feedforward along the reference, at a float or an array of times.
    saturation : (float, float), optional
        Clamp on the total control; the clamped deviation is what enters the
        estimator history.
    feedback : bool
        False runs the channel open loop (feedforward only) while still
        logging deviations and estimates.
    """

    channel: HomeostatChannel
    gains: Gains
    nominal_control: object
    saturation: tuple[float, float] | None = None
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
    control minus ``u_nom``.  A feedback channel raises SingularChannelError
    on a singular ``alpha``.
    """
    du = 0.0
    if controller.feedback:
        _check_alpha(alpha)
        g = controller.gains
        if controller.channel.order == 1:
            du = -(f_est + g.k_p * dy) / alpha
        else:
            du = -(f_est + g.k_p * dy + g.k_d * ddy) / alpha
    u = u_nom + du
    if controller.saturation is not None:
        lo, hi = controller.saturation
        if u < lo:
            return lo, True
        if u > hi:
            return hi, True
    return u, False
