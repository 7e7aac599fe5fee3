"""Ultra-local channel models derived from implicit input/output relations.

A flat system's input/output behaviour around a reference trajectory is
summarised per control channel by a *homeostat*:

    d^order(Dy)/dt^order = F(t) + alpha(t) * Du

where ``Dy`` and ``Du`` are deviations from the reference, ``F`` lumps every
neglected effect, and ``alpha`` is the tangent gain read off the implicit
relation E(y, dy/dt, ..., u) = 0:

    order = smallest derivative order of the regulated output on which E
            actually depends along the reference,
    alpha = - (dE/du) / (dE/dy^(order))   evaluated on the reference.

``derive_channel`` automates both steps with central finite differences,
the one way a partial is taken, on one table of the references at 32 probe
times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, HeolError, SingularChannelError
from .signals import ReferenceTrajectory

__all__ = [
    "ImplicitFlatRelation",
    "HomeostatChannel",
    "build_reference_table",
    "finite_diff_partial",
    "derive_channel",
    "nominal_u1",
    "nominal_u2",
]

#: magnitudes below this count as zero when probing partials and gains
ZERO_THRESHOLD = 1e-9


def _refuse(singular, values, t, message: str):
    """``values`` (a float or an array at times ``t``), unless ``singular`` holds somewhere: then a
    SingularChannelError whose ``message`` template reads the first such ``{value}`` and ``{t}``."""
    if np.any(singular):
        first = lambda x: float(np.broadcast_to(x, np.shape(singular))[singular][0])
        raise SingularChannelError(message.format(value=first(values), t=first(t)))
    return values


def _nonzero(values, t, message: str):
    """:func:`_refuse` where ``values`` count as zero: ``|values| <= ZERO_THRESHOLD``."""
    return _refuse(np.abs(values) <= ZERO_THRESHOLD, values, t, message)


@dataclass(frozen=True)
class ImplicitFlatRelation:
    """One scalar relation E(y-derivatives, u_j) = 0 tying outputs to control j.

    Parameters
    ----------
    orders : tuple of int
        Highest derivative of each flat output that ``residual`` reads, one
        entry per output.
    control_index : int
        Which control enters this relation.
    residual : callable(table, u) -> float
        ``table[l][k]`` is the k-th derivative of output l.  Derivation
        passes all times at once, as a trailing axis of ``table`` and ``u``;
        its partials are taken by :func:`finite_diff_partial`.
    """

    orders: tuple[int, ...]
    control_index: int
    residual: Callable[[np.ndarray, float], float]

    def __post_init__(self):
        if self.n_outputs < 1:
            raise ConfigurationError("relation needs at least one output")
        if any(o < 0 for o in self.orders):
            raise ConfigurationError("derivative orders must be non-negative")
        if not 0 <= self.control_index < self.n_outputs:
            raise ConfigurationError(
                f"control index {self.control_index} out of range for {self.n_outputs} channels"
            )

    @property
    def n_outputs(self) -> int:
        return len(self.orders)


@dataclass(frozen=True)
class HomeostatChannel:
    """Ultra-local model of one control channel: its output, its order and its gain ``alpha(t)``.

    ``alpha`` takes a float or an array of times.  A derived ``alpha`` re-checks at every evaluation that it is
    finite and nonzero; a formula or constant one checks nothing, and a run checks every feedback gain on its grid.
    """

    output_index: int
    order: int
    alpha: Callable


def build_reference_table(
    references: Sequence[ReferenceTrajectory], t, orders: Sequence[int]
) -> np.ndarray:
    """Derivative table of the references at ``t``, a float or an array of times.

    Entry ``[l, k]`` holds the k-th derivative of reference l for
    ``k <= orders[l]`` (of ``t``'s shape); unused entries stay zero.
    """
    table = np.zeros((len(references), max(orders) + 1) + np.shape(t))
    for l, ref in enumerate(references):
        for k in range(orders[l] + 1):
            table[l, k] = ref.eval(t, k)
    return table


def finite_diff_partial(
    relation: ImplicitFlatRelation,
    which: str | tuple[int, int],
    table: np.ndarray,
    u,
):
    """Central-difference partial of the residual at ``(table, u)``.

    ``which`` is ``"u"`` for the control slot or a pair ``(output, order)``
    for a derivative-table slot, with step ``max(1e-6, 1e-6 * |x|)`` around
    the current coordinate value ``x``.  A table with a trailing time axis gives
    the partial at every time; the slot is shifted in place and restored, not copied.
    """
    if which == "u":
        d = np.maximum(1e-6, 1e-6 * np.abs(u))
        return (relation.residual(table, u + d) - relation.residual(table, u - d)) / (2.0 * d)
    l, k = which
    if not (0 <= l < relation.n_outputs and 0 <= k <= relation.orders[l]):
        raise ConfigurationError(
            f"partial ({l}, {k}) outside the relation's table of orders {relation.orders}"
        )
    x = np.copy(table[l, k])
    d = np.maximum(1e-6, 1e-6 * np.abs(x))
    try:
        table[l, k] = x + d
        hi = np.copy(relation.residual(table, u))  # a residual may return a view of the table
        table[l, k] = x - d
        diff = hi - relation.residual(table, u)  # before the slot is restored under a view
    finally:
        table[l, k] = x
    return diff / (2.0 * d)


def _partial(relation, which, table, u, t):
    """Partial ``which`` at times ``t``, evaluated quietly; a non-finite value (a 0/0 in
    the relation, say) makes the channel singular there, naming the first such time."""
    with np.errstate(all="ignore"):
        d = finite_diff_partial(relation, which, table, u)
    slot = "u" if which == "u" else f"y{which[0] + 1}^({which[1]})"
    return _refuse(~np.isfinite(d), d, t, f"dE/d{slot} is not finite at t={{t:.6g}}; channel degenerated there")


def _at_first_failure(fn, times: np.ndarray):
    """``fn(times)``, or what ``fn`` raises on the shortest failing prefix of ``times``,
    whose last time is the first bad one when ``fn`` judges each time on its own."""
    try:
        return fn(times)
    except HeolError as exc:
        failure = exc
    good, bad = 0, len(times)  # fn passes on times[:good] and fails on times[:bad]
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            fn(times[:mid])
            good = mid
        except HeolError:
            bad = mid
    fn(times[:bad])
    raise failure


def derive_channel(
    relation: ImplicitFlatRelation,
    references: Sequence[ReferenceTrajectory],
    horizon: tuple[float, float],
    order_override: int | None = None,
    output_index: int | None = None,
    nominal_control: Callable | None = None,
) -> HomeostatChannel:
    """Derive the homeostat order and gain of one channel along a reference.

    The regulated output defaults to the output sharing the relation's
    control index.  ``order_override`` pins the model order instead of using
    the smallest derivative the relation depends on; ``nominal_control(t)``,
    called with an array of times, supplies the u at which partials are
    evaluated (0 when omitted, which is exact for relations affine in u).

    Raises
    ------
    ConfigurationError
        if no output derivative up to the relation's declared order matters.
    SingularChannelError
        if a partial the derivation reads is not finite (``dE/du`` is read
        first), or ``dE/dy^(order)`` vanishes, or alpha is (numerically) zero
        at a probe time, naming the first such time.
    """
    t_lo, t_hi = map(float, horizon)
    if not (t_hi > t_lo and math.isfinite(t_hi - t_lo)):  # also rejects inf and NaN ends
        raise ConfigurationError(f"horizon needs finite t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if len(references) != relation.n_outputs:
        raise ConfigurationError(
            f"relation expects {relation.n_outputs} references, got {len(references)}"
        )
    out = relation.control_index if output_index is None else output_index
    if not 0 <= out < relation.n_outputs:
        raise ConfigurationError(f"output index {out} out of range")

    refs = tuple(references)
    u_of_t = nominal_control if nominal_control is not None else (lambda t: 0.0)
    probes = np.linspace(t_lo, t_hi, 32)
    table = build_reference_table(refs, probes, relation.orders)
    u = np.broadcast_to(_at_first_failure(u_of_t, probes), probes.shape)
    d_u = _partial(relation, "u", table, u, probes)  # before any table partial: a 0/0 names dE/du

    if order_override is not None:
        if not 1 <= order_override <= relation.orders[out]:
            raise ConfigurationError(
                f"order override {order_override} outside 1..{relation.orders[out]} "
                f"for output {out}"
            )
        order = order_override
    else:
        ks = range(1, relation.orders[out] + 1)
        mags = (np.max(np.abs(_partial(relation, (out, k), table, u, probes))) for k in ks)
        order = next((k for k, mag in zip(ks, mags) if mag > ZERO_THRESHOLD), 0)
        if order == 0:
            raise ConfigurationError(
                f"residual does not depend on any derivative of output {out} "
                f"up to order {relation.orders[out]} along the reference"
            )

    def gain(table, u, d_u, t):
        den = _partial(relation, (out, order), table, u, t)
        _nonzero(den, t, f"dE/dy{out + 1}^({order}) vanishes at t={{t:.6g}}; channel degenerated there")
        return _nonzero(-d_u / den, t, "channel gain alpha is zero at t={t:.6g}; control does not act there")

    # fail at derivation time, naming the first bad probe: the probe table's prefixes stand
    # in for the probe times
    _at_first_failure(lambda t: gain(table[..., : len(t)], u[: len(t)], d_u[: len(t)], t), probes)

    def alpha(t):
        table = build_reference_table(refs, t, relation.orders)
        u = u_of_t(t)
        return gain(table, u, _partial(relation, "u", table, u, t), t)

    return HomeostatChannel(output_index=out, order=order, alpha=alpha)


def nominal_u1(y1_ref: ReferenceTrajectory, t):
    """Feedforward control of the benchmark's first channel at ``t`` (a float or an array).

    Inverts  dy1/dt = y1 + y1^2 u1  along the reference:
    ``u1 = (dy1*/dt - y1*) / y1*^2``.  Degenerates where y1* crosses zero.
    """
    return _flat_u1(y1_ref, t)[1]


def _flat_u1(y1_ref: ReferenceTrajectory, t):
    """``(y1*, u1*)`` at ``t``, from one evaluation of each of ``y1*`` and ``dy1*/dt``."""
    message = "y1* = {value!r} at t={t:.6g}: first-channel inversion degenerates at y1 = 0"
    y1 = _nonzero(y1_ref.eval(t, 0), t, message)
    return y1, (y1_ref.eval(t, 1) - y1) / (y1 * y1)


def nominal_u2(
    y1_ref: ReferenceTrajectory,
    y2_ref: ReferenceTrajectory,
    t,
    c1: float = 1.0,
    c0: float = 1.0,
):
    """Feedforward control of the benchmark's second channel at ``t`` (a float or an array).

    Inverts  y2''' + y2'' - c1 y2' - c0 y2 = y1 u1 u2  along the references;
    needs the third derivative of y2* and degenerates where ``y1* u1*``
    vanishes (i.e. where dy1*/dt = y1*).  The plant has ``c1 = c0 = 1``;
    other coefficients model a plant/controller mismatch the closed loop has
    to absorb.
    """
    y1, u1 = _flat_u1(y1_ref, t)
    beta = _nonzero(y1 * u1, t, "y1*·u1* = {value!r} at t={t:.6g}: second-channel inversion degenerates there")
    num = y2_ref.eval(t, 3) + y2_ref.eval(t, 2) - c1 * y2_ref.eval(t, 1) - c0 * y2_ref.eval(t, 0)
    return num / beta
