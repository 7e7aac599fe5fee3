"""Plant models, the fixed-step integrator, and the bundled benchmark system.

The benchmark is a two-input, two-output flat system

    dx1/dt = x1 + x1^2 u1
    dx2/dt = x3
    dx3/dt = x4
    dx4/dt = -x4 + x3 + x2 + x1 u1 u2
    y1 = x1,  y2 = x2

whose flat outputs are the measured outputs themselves.  Note the y2 chain
is open-loop unstable (characteristic factor (s+1)^2 (s-1)), which is what
makes the closed-loop scenarios interesting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import ConfigurationError, DivergenceError
from .homeostat import ImplicitFlatRelation
from .signals import ReferenceTrajectory

__all__ = [
    "PlantModel",
    "MismatchSpec",
    "rk4_step",
    "example_plant",
    "benchmark_relations",
    "initial_state",
]

#: state magnitude beyond which a run is declared divergent
TRUST_REGION = 1e9


@dataclass(frozen=True)
class PlantModel:
    """Continuous-time plant ``dx/dt = f(t, x, u)``, ``y = output(x)``, on sequences of floats."""

    n_states: int
    n_controls: int
    n_outputs: int
    f: Callable[[float, Sequence[float], Sequence[float]], Sequence[float]]
    output: Callable[[Sequence[float]], Sequence[float]]

    def __post_init__(self):
        if min(self.n_states, self.n_controls, self.n_outputs) < 1:
            raise ConfigurationError("plant dimensions must all be at least 1")


@dataclass(frozen=True)
class MismatchSpec:
    """Deliberate plant/controller discrepancies for robustness runs.

    ``output_scaling[i]`` scales output i's contribution to the initial
    state.  A mis-weighted feedforward is a nominal-control tag of its own
    (``flat-u2-miscoeff``), not a mismatch.
    """

    output_scaling: tuple[float, ...] = (1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "output_scaling", tuple(float(s) for s in self.output_scaling))
        for s in self.output_scaling:
            if not (math.isfinite(s) and s > 0.0):
                raise ConfigurationError(f"initial scaling factors must be positive, got {s}")


def rk4_step(
    model: PlantModel, t: float, x: Sequence[float], u: Sequence[float], h: float
) -> list[float]:
    """One classical Runge-Kutta step of length ``h`` with ``u`` held constant.

    The same ``u`` is passed to all four stages (zero-order hold); each entry follows
    ``x + h/6 (((k1 + 2 k2) + 2 k3) + k4)``.  A non-finite result raises DivergenceError naming ``t``.
    """
    if not 0.0 < h < math.inf:
        raise ConfigurationError(f"integrator step must be positive and finite, got h={h}")
    f = model.f
    half = 0.5 * h
    k1 = f(t, x, u)
    k2 = f(t + half, [a + half * b for a, b in zip(x, k1)], u)
    k3 = f(t + half, [a + half * b for a, b in zip(x, k2)], u)
    k4 = f(t + h, [a + h * b for a, b in zip(x, k3)], u)
    h6 = h / 6.0
    x_new = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, x_new)):
        raise DivergenceError(f"non-finite derivative evaluation near t={t:.6g}")
    return x_new


def example_plant() -> PlantModel:
    """The bundled two-input flat benchmark plant."""

    def f(t, x, u):
        x1, x2, x3, x4 = x
        u1, u2 = u
        return (x1 + x1 * x1 * u1, x3, x4, -x4 + x3 + x2 + x1 * u1 * u2)

    def output(x):
        return (x[0], x[1])

    return PlantModel(n_states=4, n_controls=2, n_outputs=2, f=f, output=output)


def benchmark_relations() -> tuple[ImplicitFlatRelation, ImplicitFlatRelation]:
    """Implicit input/output relations of the benchmark plant.

    E1(y1', y1, u1) = y1' - y1 - y1^2 u1
    E2(y2''', ..., y2, y1', y1, u2) = y2''' + y2'' - y2' - y2 - y1 u1 u2,
    with u1 eliminated through the first relation (u1 = (y1' - y1)/y1^2).
    """

    def e1_residual(table, u):
        y1, dy1 = table[0, 0], table[0, 1]
        return dy1 - y1 - y1 * y1 * u

    def e2_residual(table, u):
        y1, dy1 = table[0, 0], table[0, 1]
        u1 = (dy1 - y1) / (y1 * y1)
        return table[1, 3] + table[1, 2] - table[1, 1] - table[1, 0] - y1 * u1 * u

    return (
        ImplicitFlatRelation(orders=(1, 0), control_index=0, residual=e1_residual),
        ImplicitFlatRelation(orders=(1, 3), control_index=1, residual=e2_residual),
    )


def initial_state(
    references: Sequence[ReferenceTrajectory],
    mismatch: MismatchSpec,
    t0: float = 0.0,
) -> list[float]:
    """Benchmark initial state seeded from the references at ``t0``.

    The measured outputs start at ``scaling_i * y_i*(t0)``; the hidden chain
    states start on the reference derivatives (x3 = dy2*/dt, x4 = d2y2*/dt2),
    so an unscaled start lies exactly on the reference trajectory.
    """
    y1_ref, y2_ref = references
    s = mismatch.output_scaling
    if len(s) != 2:
        raise ConfigurationError(f"benchmark mismatch needs 2 scaling factors, got {len(s)}")
    return [s[0] * y1_ref.eval(t0, 0), s[1] * y2_ref.eval(t0, 0), y2_ref.eval(t0, 1), y2_ref.eval(t0, 2)]
