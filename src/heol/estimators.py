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

:class:`FusedEstimator` is the single place that builds the weights (kernel
times quadrature coefficients).  It reads a window as one flat array with the
``Dy`` and ``a*Du`` samples interleaved, ``[Dy_0, aDu_0, Dy_1, aDu_1, ...]``,
the layout of the simulation loop's per-channel history, so an estimate is a
single dot product of that window with an interleaved weight vector.  Each
estimator chooses its dot once, at construction; ``estimate`` returns the
float of it, and the loop binds the same dot.  :func:`estimate_f_nu1` and
:func:`estimate_f_nu2` check their windows, interleave them, delegate to it,
and wrap the value in an :class:`FEstimate`.

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


def _window_scale(order: int, T: float) -> float:
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
    return FEstimate(fused.estimate(np.column_stack((dy_window.values, adu_window.values)).ravel()))


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


#: Longest dot OpenBLAS computes on one thread.  It may split a longer one across threads,
#: and the rounding would then depend on the thread count.
_ONE_THREAD_DOT = 10_000


class FusedEstimator:
    """Estimator for a fixed window geometry (order, T, n): one dot product.  Each caller checks ``order`` is 1 or 2.

    A window is one flat array of ``2*(n + 1)`` samples, the ``dy`` and ``alpha*Du``
    histories interleaved oldest first, ``[dy_0, adu_0, dy_1, adu_1, ...]``; the read-only
    weights ``_w`` are interleaved the same way, ``[wy_0, wu_0, wy_1, wu_1, ...]``.  ``_dot``,
    chosen once here, is ``_w.dot``, or for a window of more than ``_ONE_THREAD_DOT`` values
    the in-order sum of the dots of consecutive slices of that length, so that its estimate
    does not depend on the BLAS thread count.  The simulation loop binds ``_dot`` itself.
    """

    def __init__(self, order: int, T: float, n_intervals: int):
        if n_intervals < 2:
            raise ConfigurationError(
                f"estimator window needs at least 3 samples, got {n_intervals + 1}"
            )
        scale = _window_scale(order, T)
        h = T / n_intervals
        s = h * np.arange(n_intervals + 1)
        c = _quad_coeffs(n_intervals, h)
        if order == 1:
            wy = -6.0 / scale * c * (T - 2.0 * s)
            wu = -6.0 / scale * c * (s * (T - s))
        else:
            wy = 60.0 / scale * c * ((T - s) ** 2 - 4.0 * (T - s) * s + s**2)
            wu = -30.0 / scale * c * ((T - s) ** 2 * s**2)
        self._w = w = np.column_stack((wy, wu)).ravel()
        w.setflags(write=False)
        self._dot, n = w.dot, _ONE_THREAD_DOT
        if len(w) > n:
            parts = [(w[i : i + n].dot, slice(i, i + n)) for i in range(0, len(w), n)]
            self._dot = lambda window: sum(dot(window[s]) for dot, s in parts)

    def estimate(self, window: np.ndarray) -> float:
        """F over one interleaved window ``[dy_0, adu_0, ..., dy_n, adu_n]``, oldest first."""
        return float(self._dot(window))
