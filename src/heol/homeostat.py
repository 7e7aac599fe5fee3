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

from .errors import ConfigurationError, HeolError, SingularChannelError, _count, _number
from .signals import MAX_ORDER, ReferenceTrajectory

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
    if singular.any():  # a numpy bool or array of them
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
        object.__setattr__(self, "orders", tuple(_count.typed(k, f"orders[{l}]") for l, k in enumerate(self.orders)))
        object.__setattr__(self, "control_index", _count.typed(self.control_index, "control_index"))
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

    ``alpha`` takes a float or an array of times and re-checks at every evaluation that it is finite and nonzero.
    """

    output_index: int
    order: int
    alpha: Callable


def build_reference_table(
    references: Sequence[ReferenceTrajectory], t, orders: Sequence[int] | None = None
) -> np.ndarray:
    """Derivative table of the references at ``t``, a float or an array of times.

    Entry ``[l, k]`` holds the k-th derivative of reference l for ``k <= orders[l]``
    (every order by default), of ``t``'s shape; unused entries stay zero.  A
    :class:`ReferenceTrajectory` selects each time's piece once for all its orders.
    """
    orders = (MAX_ORDER,) * len(references) if orders is None else orders
    table = np.zeros((len(references), max(orders) + 1) + np.shape(t))
    for l, ref in enumerate(references):
        ks = range(orders[l] + 1)
        values = ref._eval(t, ks) if isinstance(ref, ReferenceTrajectory) else [ref.eval(t, k) for k in ks]
        table[l, : ks.stop] = values
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
    refs = tuple(references)
    # a nominal_control given here may read other references: it is called with times alone
    nominal = (lambda table, t: nominal_control(t)) if nominal_control is not None else (lambda table, t: 0.0)
    out, order, alpha, _ = _derive(relation, refs, horizon, order_override, output_index, nominal)
    return HomeostatChannel(out, order, lambda t: alpha(build_reference_table(refs, t), t))


def _derive(relation, refs, horizon, order_override, output_index, nominal, probe=None):
    """:func:`derive_channel` on the feedforward ``nominal(table, t)``: the output index, the order, the alpha
    ``alpha(table, t[, u])`` with u the feedforward at t (read off the table unless given) and ``probe``, the 32
    probe times along ``horizon`` and the table of ``refs`` there, built unless given."""
    try:
        t_lo, t_hi = (_number.typed(t, f"horizon[{i}]") for i, t in enumerate(horizon))
    except (TypeError, ValueError):  # not a pair
        raise ConfigurationError(f"horizon needs a pair (t_lo, t_hi), got {horizon!r}") from None
    if not (t_hi > t_lo and math.isfinite(t_hi - t_lo)):  # also rejects inf and NaN ends
        raise ConfigurationError(f"horizon needs finite t_lo < t_hi, got [{t_lo}, {t_hi}]")
    if len(refs) != relation.n_outputs:
        raise ConfigurationError(f"relation expects {relation.n_outputs} references, got {len(refs)}")
    out = relation.control_index if output_index is None else _count.typed(output_index, "output_index")
    if not 0 <= out < relation.n_outputs:
        raise ConfigurationError(f"output index {out} out of range")
    if probe is None:
        probes = np.linspace(t_lo, t_hi, 32)
        probe = probes, build_reference_table(refs, probes)
    probes, table = probe

    u = np.broadcast_to(_at_first_failure(lambda t: nominal(table[..., : len(t)], t), probes), probes.shape)
    d_u = _partial(relation, "u", table, u, probes)  # before any table partial: a 0/0 names dE/du

    if order_override is not None:
        order = _count.typed(order_override, "order_override")
        if not 1 <= order <= relation.orders[out]:
            raise ConfigurationError(
                f"order override {order_override} outside 1..{relation.orders[out]} "
                f"for output {out}"
            )
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

    def alpha(table, t, u=None):
        u = nominal(table, t) if u is None else u
        return gain(table, u, _partial(relation, "u", table, u, t), t)

    return out, order, alpha, probe


def _flat_inversion(orders: tuple[int, ...], control_index: int, numerator, denominator, *checks):
    """Control ``control_index``'s flat inversion ``D(table)·u = N(table)`` over a reference table of ``orders``:
    its relation ``E = N - D·u``, which never raises (E is not finite where the inversion is singular), and its
    feedforward ``N/D``, singular where the value of a ``(value(table), message)`` check is zero, in order."""

    def feedforward(table, t):
        for value, message in checks:
            _nonzero(value(table), t, message)
        return numerator(table) / denominator(table)

    residual = lambda table, u: numerator(table) - denominator(table) * u
    return ImplicitFlatRelation(orders, control_index, residual), feedforward


def _benchmark_inversions(c1: float = 1.0, c0: float = 1.0):
    """The benchmark's ``(relation, feedforward)`` per control, as :func:`nominal_u1` and :func:`nominal_u2`
    state them (``1.0 * x == x``: the plant's ``c1 = c0 = 1`` change no bit)."""
    y1_zero = (lambda tb: tb[0, 0], "y1* = {value!r} at t={t:.6g}: first-channel inversion degenerates at y1 = 0")
    n1, d1 = (lambda tb: tb[0, 1] - tb[0, 0]), (lambda tb: tb[0, 0] * tb[0, 0])
    d2 = lambda tb: tb[0, 0] * (n1(tb) / d1(tb))
    n2 = lambda tb: tb[1, 3] + tb[1, 2] - c1 * tb[1, 1] - c0 * tb[1, 0]
    u1_zero = (d2, "y1*·u1* = {value!r} at t={t:.6g}: second-channel inversion degenerates there")
    return _flat_inversion((1, 0), 0, n1, d1, y1_zero), _flat_inversion((1, 3), 1, n2, d2, y1_zero, u1_zero)


def nominal_u1(y1_ref: ReferenceTrajectory, t):
    """Feedforward control of the benchmark's first channel at ``t`` (a float or an array).

    Inverts  dy1/dt = y1 + y1^2 u1  along the reference:
    ``u1 = (dy1*/dt - y1*) / y1*^2``.  Degenerates where y1* crosses zero.
    """
    return _benchmark_inversions()[0][1](build_reference_table((y1_ref,), t, (1,)), t)


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
    relation, feedforward = _benchmark_inversions(c1, c0)[1]
    return feedforward(build_reference_table((y1_ref, y2_ref), t, relation.orders), t)
