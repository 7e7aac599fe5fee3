"""Sliding-window integral estimators of the lumped disturbance F.

For the first-order ultra-local model  d(Dy)/dt = F + a*Du  the window
estimate is

    F = -(6/T^3) * Int_0^T [ (T - 2s)*Dy(s) + s*(T - s)*a(s)*Du(s) ] ds

and for the second-order model  d2(Dy)/dt2 = F + a*Du

    F = (60/T^5) * [ Int_0^T ((T-s)^2 - 4(T-s)s + s^2) * Dy(s) ds
                     - 1/2 * Int_0^T (T-s)^2 s^2 * a(s)*Du(s) ds ].

Both kernels annihilate the window's unknown initial conditions (constants
for order one, affine signals for order two), so no derivative of the
measured output is ever needed.  Integrals are evaluated with composite
Simpson weights, the one quadrature rule; an odd interval count falls back
to Simpson on all but the last interval plus a trapezoid on it.

:class:`FusedEstimator` is the single place that builds the weight vectors
(kernel times quadrature coefficients); its ``estimate`` returns the bare
float the simulation loop logs.  :func:`estimate_f_nu1` and
:func:`estimate_f_nu2` check their windows, delegate to it, and wrap the
value in an :class:`FEstimate`.

The ``Du`` kernels vanish at s = T, so the estimate at time t never needs
the control applied *at* t — the loop can estimate first and act second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .signals import Window

__all__ = [
    "estimate_f_nu1",
    "estimate_f_nu2",
]


@dataclass(frozen=True)
class FEstimate:
    """One disturbance estimate over a full window, hence always ``valid``."""

    value: float
    valid: bool = True


def _quad_coeffs(n_intervals: int, h: float) -> np.ndarray:
    """Composite Simpson weights for ``n_intervals + 1`` uniform samples."""
    n = n_intervals
    c = np.zeros(n + 1)
    # an odd interval count gets a trapezoid on the last interval
    m = n if n % 2 == 0 else n - 1
    if m > 0:
        c[0] += h / 3.0
        c[1:m:2] += 4.0 * h / 3.0
        c[2:m:2] += 2.0 * h / 3.0
        c[m] += h / 3.0
    if m < n:
        c[n - 1] += 0.5 * h
        c[n] += 0.5 * h
    return c


def _kernel_scale(order: int, T: float) -> float:
    """``T**(2*order + 1)``, which divides the order's kernel constant (6 or 60).  ConfigurationError
    if it, or the constant over it, leaves the float range; ``validate_scenario`` checks each window."""
    try:
        scale = T ** (2 * order + 1)
    except OverflowError:
        scale = math.inf
    if not (0.0 < scale < math.inf and (6.0 if order == 1 else 60.0) / scale < math.inf):
        raise ConfigurationError(f"estimator window T={T}: T**{2 * order + 1} leaves the float range")
    return scale


def _estimate(order: int, dy_window: Window, adu_window: Window) -> FEstimate:
    if len(dy_window) != len(adu_window) or dy_window.T != adu_window.T:
        raise ConfigurationError(
            f"windows differ in geometry: {len(dy_window)} samples over T={dy_window.T} vs "
            f"{len(adu_window)} over T={adu_window.T}"
        )
    fused = FusedEstimator(order, dy_window.T, len(dy_window) - 1)
    return FEstimate(fused.estimate(dy_window.values, adu_window.values))


def estimate_f_nu1(dy_window: Window, adu_window: Window) -> FEstimate:
    """Disturbance estimate for a first-order channel.

    Constant offsets on ``dy`` are annihilated by the kernel.
    """
    return _estimate(1, dy_window, adu_window)


def estimate_f_nu2(dy_window: Window, adu_window: Window) -> FEstimate:
    """Disturbance estimate for a second-order channel.

    Affine components of ``dy`` (initial value and slope) are annihilated by
    the kernel.
    """
    return _estimate(2, dy_window, adu_window)


class FusedEstimator:
    """Estimator for a fixed window geometry (order, T, n): two dot products."""

    def __init__(self, order: int, T: float, n_intervals: int):
        if order not in (1, 2):
            raise ConfigurationError(f"estimator order must be 1 or 2, got {order}")
        if n_intervals < 2:
            raise ConfigurationError(
                f"estimator window needs at least 3 samples, got {n_intervals + 1}"
            )
        scale = _kernel_scale(order, T)
        h = T / n_intervals
        s = h * np.arange(n_intervals + 1)
        c = _quad_coeffs(n_intervals, h)
        if order == 1:
            self._wy = -6.0 / scale * c * (T - 2.0 * s)
            self._wu = -6.0 / scale * c * (s * (T - s))
        else:
            self._wy = 60.0 / scale * c * ((T - s) ** 2 - 4.0 * (T - s) * s + s**2)
            self._wu = -30.0 / scale * c * ((T - s) ** 2 * s**2)
        self._wy.setflags(write=False)
        self._wu.setflags(write=False)

    def estimate(self, dy_values: np.ndarray, adu_values: np.ndarray) -> float:
        """F over one window of ``dy`` and ``alpha*Du`` samples, oldest first."""
        return float(self._wy.dot(dy_values) + self._wu.dot(adu_values))
