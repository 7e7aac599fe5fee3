"""Reference trajectories and sliding estimation windows.

A reference is three closed-form pieces: the plateau ``y_from``, a degree-7
step, and the plateau ``y_to``; a constant has no step.  The step's
coefficients are in the local variable ``t - t_start``, so long horizons do
not lose precision to cancellation, and its first three derivatives vanish at
both ends, which keeps nominal controls that consume up to the third output
derivative continuous there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

#: highest derivative order a trajectory provides; the benchmark feedforward reads y2'''
MAX_ORDER = 3

__all__ = [
    "ReferenceTrajectory",
    "Window",
    "make_constant",
    "make_smoothstep",
]


def _polyder(coeffs: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(coeffs[i] * i for i in range(1, len(coeffs)))


def _horner(coeffs: tuple[float, ...], x):  # x a float or an array
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


## Degree-7 step profile s(tau) = 35 tau^4 - 84 tau^5 + 70 tau^6 - 20 tau^7:
## s(0)=0, s(1)=1, and s', s'', s''' vanish at both ends.
_SMOOTHSTEP7 = (0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0)


@dataclass(frozen=True)
class ReferenceTrajectory:
    """``y_from`` before ``t_start``, the degree-7 step on ``[t_start, t_end)``, ``y_to`` after.

    A step needs finite ``t_start < t_end``.  A constant is ``y_from == y_to`` with
    ``t_start = t_end = inf``: its step never starts.
    """

    y_from: float
    y_to: float
    t_start: float
    t_end: float
    # per derivative order: (head value, step coefficients in t - t_start, tail value)
    _pieces: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y_from, y_to, t_start, t_end = self.y_from, self.y_to, self.t_start, self.t_end
        if not (math.isfinite(y_from) and math.isfinite(y_to)):
            raise ConfigurationError(f"reference values must be finite, got {y_from!r} and {y_to!r}")
        if y_from == y_to and t_start == t_end == math.inf:
            coeffs = ()
        elif not (math.isfinite(t_start) and math.isfinite(t_end) and t_end > t_start):
            raise ConfigurationError(f"a step needs finite t_start < t_end, got [{t_start}, {t_end}]")
        else:
            duration = t_end - t_start
            amp = y_to - y_from
            # rescale s(tau) coefficients to the local variable (t - t_start)
            try:
                coeffs = [amp * c / duration**k for k, c in enumerate(_SMOOTHSTEP7)]
            except (OverflowError, ZeroDivisionError):  # duration**7 leaves the float range
                coeffs = [math.inf]
            if not (math.isfinite(duration) and all(map(math.isfinite, coeffs))):
                raise ConfigurationError(f"smoothstep span {duration!r} is out of range for amplitude {amp!r}")
            coeffs = (y_from, *coeffs[1:])
        pieces = [(y_from + 0.0, coeffs, y_to + 0.0)]  # + 0.0: a -0.0 plateau reads 0.0
        for _ in range(MAX_ORDER):  # a plateau's derivatives vanish
            coeffs = _polyder(coeffs)
            pieces.append((0.0, coeffs, 0.0))
        object.__setattr__(self, "_pieces", tuple(pieces))

    def eval(self, t, order: int = 0):
        """Value of the ``order``-th derivative at ``t``: a float at a float, an array at an array.

        A NaN time raises ConfigurationError: it is in no piece.
        """
        if order not in range(MAX_ORDER + 1):
            raise ConfigurationError(f"derivative order {order} not available (max_order={MAX_ORDER})")
        head, step, tail = self._pieces[int(order)]  # int: 1.0 is in the range too
        tt = np.asarray(t, dtype=float)
        if tt.ndim == 0:
            t = float(tt)
            if math.isnan(t):
                raise ConfigurationError("cannot evaluate a reference at t=nan")
            if t < self.t_start:
                return head
            return float(_horner(step, t - self.t_start)) if t < self.t_end else tail
        if math.isnan(tt.min(initial=math.inf)):  # min propagates NaN: one reduction finds any
            i = int(np.flatnonzero(np.isnan(tt))[0])
            raise ConfigurationError(f"cannot evaluate a reference at t=nan (time {i} of {tt.size})")
        out = np.full(tt.shape, tail)
        out[tt < self.t_start] = head
        on = (tt >= self.t_start) & (tt < self.t_end)  # Horner only inside the step: no overflow far out
        out[on] = _horner(step, tt[on] - self.t_start)
        return out


def make_constant(value: float) -> ReferenceTrajectory:
    """Trajectory identically equal to ``value`` on the whole real line."""
    value = float(value)
    return ReferenceTrajectory(value, value, math.inf, math.inf)


def make_smoothstep(y_from: float, y_to: float, t_start: float, t_end: float) -> ReferenceTrajectory:
    """Reference equal to ``y_from`` before ``t_start`` and ``y_to`` after ``t_end``.

    The transition is the degree-7 polynomial step whose first three
    derivatives vanish at both ends.  With ``y_from == y_to`` the result is
    simply the constant trajectory.
    """
    if not t_end > t_start:
        raise ConfigurationError(f"need t_end > t_start, got [{t_start}, {t_end}]")
    y_from = float(y_from)
    y_to = float(y_to)
    if y_from == y_to:
        return make_constant(y_from)
    return ReferenceTrajectory(y_from, y_to, t_start, t_end)


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
        if not (math.isfinite(self.T) and self.T > 0.0):
            raise ConfigurationError(f"window length must be positive, got T={self.T}")
        if sig.shape != val.shape or sig.ndim != 1:
            raise ConfigurationError("window sigma and values must be 1-d arrays of equal length")
        if len(sig) < 2:
            raise ConfigurationError("window needs at least two samples")
        if not np.isfinite(val).all():
            raise ConfigurationError("window values must be finite")
        d = np.diff(sig)
        if not np.all(d > 0.0):
            raise ConfigurationError("window sigma values must be strictly increasing")
        tol = 1e-12 * self.T
        if sig[0] != 0.0 or abs(sig[-1] - self.T) > tol or np.ptp(d) > tol:
            raise ConfigurationError("window sigma must run uniformly from 0 to T")

    def __len__(self) -> int:
        return len(self.sigma)
