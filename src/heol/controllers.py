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

from dataclasses import dataclass, field

from .errors import _count, _number, _positive

__all__ = ["Gains", "gains_from_poles"]

_k_p = _number.where(_positive, "k_p must be positive and finite, got {}")
_k_d = _number.where(_positive, "k_d must be positive and finite when present, got {}")
_pole = _number.where(lambda p: _positive(-p), "pole must be a strictly negative real, got {}")  # ChannelSpec's too
_order = _count.where(lambda k: k in (1, 2), "pole placement supports orders 1 and 2, got {}")


@dataclass(frozen=True)
class Gains:
    """Feedback gains; ``k_d`` is only meaningful for order-2 channels.

    Construction enforces the Hurwitz conditions ``k_p > 0`` and, when
    present, ``k_d > 0``.
    """

    k_p: float = field(metadata={"rule": _k_p})
    k_d: float | None = field(default=None, metadata={"rule": _k_d})

    def __post_init__(self):  # stores each value as its rule returns it
        object.__setattr__(self, "k_p", _k_p.typed(self.k_p, "k_p"))
        if self.k_d is not None:
            object.__setattr__(self, "k_d", _k_d.typed(self.k_d, "k_d"))


def gains_from_poles(order: int, pole: float) -> Gains:
    """Gains placing the error dynamics at ``pole`` (a double root for order 2).

    order 1:  s + k_p        has root  -k_p        ->  k_p = -pole
    order 2:  s^2 + k_d s + k_p  has double root p ->  k_d = -2p, k_p = p^2
    """
    pole = _pole.typed(pole, "pole")
    if _order.typed(order, "order") == 1:
        return Gains(k_p=-pole)
    return Gains(k_p=pole * pole, k_d=-2.0 * pole)
