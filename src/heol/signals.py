"""Time grids, reference trajectories, and sliding estimation windows.

Trajectories are piecewise polynomials with analytic derivatives: each segment
stores ascending coefficients in the local variable ``t - start`` so that long
horizons do not lose precision to cancellation.  The degree-7 step profile
produced by :func:`make_smoothstep` has vanishing first, second, and third
derivatives at both ends, which keeps nominal controls that consume up to the
third output derivative continuous across segment joins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapabilityError,
    ConfigurationError,
    HorizonError,
    IntervalError,
)

__all__ = [
    "TimeGrid",
    "Segment",
    "ReferenceTrajectory",
    "Window",
    "make_constant",
    "make_smoothstep",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid ``t0 + k*h`` for ``k = 0..n_steps``.

    Grid points are always produced as ``t0 + k*h`` (one multiply, one add)
    rather than by accumulation, so point ``k`` is bit-reproducible and free
    of drift regardless of the horizon length.
    """

    t0: float
    h: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.h)):
            raise ConfigurationError("time grid origin and step must be finite")
        if self.h <= 0.0:
            raise ConfigurationError(f"sampling period must be positive, got h={self.h}")
        if self.n_steps < 1:
            raise ConfigurationError(f"grid needs at least one step, got n_steps={self.n_steps}")

    def t(self, k: int) -> float:
        """Time of grid point ``k``, exactly ``t0 + k*h``."""
        return self.t0 + k * self.h

    def times(self) -> np.ndarray:
        """All ``n_steps + 1`` grid points as an array."""
        return self.t0 + self.h * np.arange(self.n_steps + 1)

    @property
    def n_points(self) -> int:
        return self.n_steps + 1


def _polyder(coeffs: tuple[float, ...], order: int = 1) -> tuple[float, ...]:
    for _ in range(order):
        coeffs = tuple(coeffs[i] * i for i in range(1, len(coeffs)))
    return coeffs


def _horner(coeffs: tuple[float, ...], x):  # x a float or an array
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class Segment:
    """One polynomial piece: ascending coefficients in ``t - start``.

    ``start``/``stop`` may be ``-inf``/``+inf`` for constant head or tail
    pieces, so a trajectory can cover any simulation horizon.
    """

    start: float
    stop: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not self.coeffs:
            raise ConfigurationError("polynomial segment needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ConfigurationError(f"polynomial segment needs finite coefficients, got {self.coeffs}")
        if not self.stop > self.start:
            raise IntervalError(f"segment needs stop > start, got [{self.start}, {self.stop}]")
        if math.isinf(self.start) and len(self.coeffs) > 1:
            raise ConfigurationError("a segment starting at -inf must be constant")


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Piecewise-polynomial reference with analytic derivatives.

    Parameters
    ----------
    segments : sequence of Segment
        Contiguous, increasing pieces.  Adjacent pieces must agree in value
        and in every derivative up to ``max_order - 1`` (relative 1e-9), so
        the trajectory is C^(max_order-1) at joins.
    max_order : int
        Highest derivative order callers may request (at least 3: nominal
        controls of the bundled benchmark consume the third derivative).
    """

    segments: tuple[Segment, ...]
    max_order: int = 3
    _starts: np.ndarray = field(repr=False, compare=False, default=None)  # set at construction

    def __post_init__(self):
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not segs:
            raise ConfigurationError("trajectory needs at least one segment")
        if self.max_order < 3:
            raise ConfigurationError(f"max_order must be >= 3, got {self.max_order}")
        for a, b in zip(segs, segs[1:]):
            if b.start != a.stop:
                raise ConfigurationError(
                    f"segments must be contiguous: piece ending at {a.stop} "
                    f"followed by piece starting at {b.start}"
                )
        object.__setattr__(self, "_starts", np.array([seg.start for seg in segs]))
        for a, b in zip(segs, segs[1:]):
            tau = 0.0 if math.isinf(a.start) else a.stop - a.start
            ca, cb = a.coeffs, b.coeffs
            for order in range(self.max_order):
                left, right = _horner(ca, tau), _horner(cb, 0.0)
                if abs(left - right) > 1e-9 * max(1.0, abs(left), abs(right)):
                    raise ConfigurationError(
                        f"segments disagree at t={a.stop} in derivative {order}: "
                        f"{left!r} vs {right!r}"
                    )
                ca, cb = _polyder(ca), _polyder(cb)

    @property
    def span(self) -> tuple[float, float]:
        """Interval covered by the segments (may reach +-inf)."""
        return self.segments[0].start, self.segments[-1].stop

    def eval(self, t, order: int = 0):
        """Value of the ``order``-th derivative at ``t``: a float at a float, an array at an array."""
        if order < 0 or order > self.max_order:
            raise CapabilityError(
                f"derivative order {order} not available (max_order={self.max_order})"
            )
        tt = np.asarray(t, dtype=float)
        lo, hi = self.span  # constants and smoothsteps span the whole line: nothing to check
        if (lo > -math.inf or hi < math.inf) and (outside := (tt < lo) | (tt > hi)).any():
            raise HorizonError(f"t={float(tt[outside][0])} outside trajectory span [{lo}, {hi}]")
        seg_of = self._starts.searchsorted(tt, side="right") - 1  # last start at or before t

        def piece(i, at):  # Horner in tau = at - start, with tau = 0 on a -inf head
            seg = self.segments[i]
            return _horner(_polyder(seg.coeffs, order), 0.0 if math.isinf(seg.start) else at - seg.start)

        if tt.ndim == 0:  # one time on one segment: no mask, Python floats
            return float(piece(int(seg_of), float(tt)))
        out = np.empty(tt.shape)
        for i in range(len(self.segments)):
            on = seg_of == i
            out[on] = piece(i, tt[on])
        return out


def make_constant(value: float, max_order: int = 3) -> ReferenceTrajectory:
    """Trajectory identically equal to ``value`` on the whole real line."""
    return ReferenceTrajectory(
        (Segment(-math.inf, math.inf, (float(value),)),), max_order=max_order
    )


## Degree-7 step profile s(tau) = 35 tau^4 - 84 tau^5 + 70 tau^6 - 20 tau^7:
## s(0)=0, s(1)=1, and s', s'', s''' vanish at both ends.
_SMOOTHSTEP7 = (0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0)


def make_smoothstep(
    y_from: float, y_to: float, t_start: float, t_end: float, max_order: int = 3
) -> ReferenceTrajectory:
    """Reference equal to ``y_from`` before ``t_start`` and ``y_to`` after ``t_end``.

    The transition is the degree-7 polynomial step whose first three
    derivatives vanish at both ends.  With ``y_from == y_to`` the result is
    simply the constant trajectory.
    """
    if not t_end > t_start:
        raise IntervalError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    y_from = float(y_from)
    y_to = float(y_to)
    if y_from == y_to:
        return make_constant(y_from, max_order=max_order)
    duration = t_end - t_start
    amp = y_to - y_from
    # rescale s(tau) coefficients to the local variable (t - t_start)
    try:
        coeffs = [amp * c / duration**k for k, c in enumerate(_SMOOTHSTEP7)]
    except (OverflowError, ZeroDivisionError):  # duration**7 leaves the float range
        raise IntervalError(f"smoothstep span {duration!r} is out of range") from None
    coeffs[0] = y_from
    return ReferenceTrajectory(
        (
            Segment(-math.inf, t_start, (y_from,)),
            Segment(t_start, t_end, tuple(coeffs)),
            Segment(t_end, math.inf, (y_to,)),
        ),
        max_order=max_order,
    )


@dataclass(frozen=True)
class Window:
    """A backward-looking slice of a sampled signal, re-based to sigma in [0, T].

    ``sigma[0] == 0`` corresponds to absolute time ``t - T`` and
    ``sigma[-1] == T`` to the slice time ``t`` itself.
    """

    T: float
    sigma: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        sig = np.asarray(self.sigma, dtype=float)
        val = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "sigma", sig)
        object.__setattr__(self, "values", val)
        if self.T <= 0.0:
            raise ConfigurationError(f"window length must be positive, got T={self.T}")
        if sig.shape != val.shape or sig.ndim != 1:
            raise ConfigurationError("window sigma and values must be 1-d arrays of equal length")
        if len(sig) < 2:
            raise ConfigurationError("window needs at least two samples")
        d = np.diff(sig)
        if not np.all(d > 0.0):
            raise ConfigurationError("window sigma values must be strictly increasing")
        tol = 1e-12 * self.T
        if sig[0] != 0.0 or abs(sig[-1] - self.T) > tol or np.ptp(d) > tol:
            raise ConfigurationError("window sigma must run uniformly from 0 to T")

    def __len__(self) -> int:
        return len(self.sigma)
