"""Pole placement for the intelligent proportional (iP) and proportional-derivative (iPD) law.

Each channel closes its loop on the homeostat model
``d^order(Dy)/dt^order = F + alpha * Du`` by cancelling the running estimate
of F and placing the remaining error dynamics:

    order 1:  Du = -(F_est + k_p * Dy) / alpha
    order 2:  Du = -(F_est + k_p * Dy + k_d * d(Dy)/dt) / alpha

so that ``(d/dt + k_p) Dy`` or ``(d2/dt2 + k_d d/dt + k_p) Dy`` equals
``F - F_est``.  The loop of :func:`heol.scenarios.run_scenario` applies the
law; this module gives the gains that place a channel's pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = ["Gains", "gains_from_poles"]


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
