"""Scenario configuration, the closed-loop simulation driver, and exports.

A scenario bundles a plant, one reference trajectory per flat output, one
controller channel per control, the deliberate mismatches, and the timing.
Scenarios serialise to a JSON document (keys starting with ``#`` are treated
as comments and ignored), so runs are reproducible from a single file.

A run tabulates what depends on time alone (reference, feedforward, channel
gain ``alpha``) on the whole grid before the first step, so a flatness
singularity anywhere on the horizon fails the run before the plant moves.
The loop then samples every ``h`` seconds: read outputs, step every channel
(measure deviation, estimate F, apply the iP/iPD correction on top of the
feedforward), log one record, then integrate the plant to the next sample
under zero-order hold.  Runs are bit-deterministic: repeating a run, or
truncating the horizon, reproduces records exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import mmap
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .controllers import gains_from_poles
from .errors import ConfigurationError, DivergenceError, ExportError, HeolError, _count, _number, _Rule
from .estimators import FusedEstimator, _kernel_scale
from .homeostat import (
    ZERO_THRESHOLD,
    _at_first_failure,
    _benchmark_inversions,
    _derive,
    _flat_inversion,
    _nonzero,
    _refuse,
    build_reference_table,
)
from .plant import (
    MismatchSpec,
    PlantModel,
    TRUST_REGION,
    _check_lengths,
    _finite,
    _kernel,
    _rated_plant,
    example_plant,
    initial_state,
)
from .signals import ReferenceTrajectory, make_constant, make_smoothstep

__all__ = [
    "Scenario",
    "ChannelSpec",
    "Timing",
    "SimLog",
    "Metrics",
    "builtin_scenario",
    "builtin_names",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "validate_scenario",
    "run_scenario",
    "compute_metrics",
    "export_csv",
    "export_metrics",
]


# --------------------------------------------------------------------------
# scenario-file schema
#
# Each init field of ``Timing``, ``ChannelSpec`` and ``Scenario`` carries its
# JSON key path, rule and whether it is required in its metadata (``_key``);
# its own default stands for an absent key.  Fields sharing a first key form a
# group, a sub-object.  The schema's errors name the JSON path, the shared
# ``__post_init__`` step's (``_type_fields``) the attribute.  ``#`` keys are
# comments at every depth; any other unknown key is an error.

_REQUIRED = object()


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _get(value, attr):
    return value.get(attr) if isinstance(value, dict) else getattr(value, attr)


def _instance(kind: type, what: str) -> _Rule:
    def load(value, path: str):
        if not isinstance(value, kind):
            raise ConfigurationError(f"{path} must be {what}, got {value!r}")
        return value

    return _Rule(kind, load)


_tag = _instance(str, "a string")


class _List(_Rule):
    """A JSON array of one kind, loaded as a tuple; ``typed`` types each item of a list or tuple."""

    def __init__(self, item):
        self.item = item

    def load(self, value, path: str, each=None) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{path} must be a JSON array, got {value!r}")
        each = each or self.item.load
        return tuple(each(v, f"{path}[{i}]") for i, v in enumerate(value))

    def typed(self, value, path: str) -> tuple:
        return self.load(value, path, self.item.typed)

    def dump(self, value) -> list:
        return [self.item.dump(v) for v in value]


class _Object(_Rule):
    """A JSON object built with ``make`` (``None`` for a group) from its ``(key, attribute, rule, default)``
    entries.  By default there is one per init field of dataclass ``make`` or, for the fields under one first
    key, one per group: an ``_Object(None)`` of them or ``groups[key]``, required if any of them is."""

    def __init__(self, make, entries=None, groups=None):
        self.make = self.type = make
        if entries is None:
            tree = {}  # first key -> [(attribute, rule, default)], with the second key first in a group's members
            for name, rule, default, (key, *sub) in _field_rules(make):
                tree.setdefault(key, []).append((*sub, name, rule, default))
            entries = []
            for key, members in tree.items():
                if len(members[0]) == 3:
                    entries.append((key, *members[0]))
                else:
                    required = any(default is _REQUIRED for *_, default in members)
                    group = (groups or {}).get(key) or _Object(None, members)
                    entries.append((key, None, group, _REQUIRED if required else None))
        self.fields = entries
        self.keys = frozenset(key for key, *_ in self.fields)

    def load(self, value, path: str):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{path or 'scenario'} must be a JSON object, got {value!r}")
        for key in value:
            if key not in self.keys and not (isinstance(key, str) and key.startswith("#")):
                raise ConfigurationError(f"unknown key {_at(path, key)}")
        kwargs = {}
        for key, attr, rule, default in self.fields:
            if key not in value:
                if default is _REQUIRED:
                    raise ConfigurationError(f"missing key {_at(path, key)}")
                continue
            loaded = rule.load(value[key], _at(path, key))
            if attr is None:
                kwargs.update(loaded)
            else:
                kwargs[attr] = loaded
        if self.make is None:
            return kwargs
        try:
            return self.make(**kwargs)
        except ConfigurationError as exc:
            if not path:
                raise
            raise ConfigurationError(f"{path}: {exc}") from None

    def dump(self, value) -> dict:
        out = {}
        for key, attr, rule, default in self.fields:
            v = value if attr is None else _get(value, attr)
            if v is not None and (v := rule.dump(v)) not in (default, {}):
                out[key] = v
        return out


class _Union(_Rule):
    """One of several objects, picked by the string under ``key`` (``attr`` once loaded)."""

    type = dict

    def __init__(self, key: str, attr: str, what: str, options: dict):
        self.key, self.attr, self.what, self.options = key, attr, what, options

    def load(self, value, path: str):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{path} must be a JSON object, got {value!r}")
        if self.key not in value:
            raise ConfigurationError(f"missing key {_at(path, self.key)}")
        tag = value[self.key]
        if not (isinstance(tag, str) and tag in self.options):
            raise ConfigurationError(
                f"{_at(path, self.key)}: unknown {self.what} {tag!r}; registered: {sorted(self.options)}"
            )
        return self.options[tag].load(value, path)

    def dump(self, value) -> dict:
        tag = _get(value, self.attr)
        if tag not in self.options:
            raise ConfigurationError(f"unknown {self.what} {tag!r}")
        return self.options[tag].dump(value)


def _plain(*keys, kind=_number, default=_REQUIRED):
    """Entries whose attribute is the JSON key itself."""
    return [(key, key, kind, default) for key in keys]


def _key(*path: str, rule, required: bool = False, **default):
    """A dataclass field at JSON ``path`` with ``rule``, required if it has no ``default``/``default_factory``."""
    return field(metadata={"path": path, "rule": rule, "required": required or not default}, **default)


@functools.cache
def _field_rules(cls) -> tuple:
    """``(attribute, rule, default, path)`` per init field of dataclass ``cls``; ``_REQUIRED`` if required."""
    return tuple(
        (f.name, f.metadata["rule"], _REQUIRED if f.metadata["required"] else f.default, f.metadata["path"])
        for f in fields(cls) if f.init
    )


def _type_fields(obj) -> None:
    """Type each init field of ``obj`` not at its default by its rule; a float NaN or inf is kept for range checks."""
    for name, rule, default, _ in _field_rules(type(obj)):
        if (value := getattr(obj, name)) is not default and type(value) is not rule.type:
            object.__setattr__(obj, name, rule.typed(value, name))


_REFERENCE = _Union("type", "type", "reference type", {
    "constant": _Object(dict, _plain("type", kind=_tag) + _plain("value")),
    "smoothstep": _Object(dict, _plain("type", kind=_tag) + _plain("from", "to", "t_start", "t_end")),
})


# --------------------------------------------------------------------------
# configuration types

#: Most points a run's grid or an estimator window may span: both are preallocated, so 10**7
#: points already take about a gigabyte; more is almost surely a mistyped ``h`` or ``T``.
MAX_GRID_POINTS = 10**7


def _grid_steps(span: float, h: float, name: str, misfit: str) -> int:
    """The whole number of periods ``h`` in ``span``, at most MAX_GRID_POINTS - 1: the one rule for the
    horizon and every estimator window.  A failure formats ``name`` with ``span`` and ``misfit`` with ``h``."""
    steps = span / h  # may overflow to inf for a tiny h
    if not steps + 1 <= MAX_GRID_POINTS:
        raise ConfigurationError(
            f"{name.format(span=span)} at h={h} gives {steps + 1:.6g} grid points; "
            f"at most {MAX_GRID_POINTS} are allowed"
        )
    n = int(round(steps))
    if n < 1 or abs(n * h - span) > 1e-9 * max(span, h):
        raise ConfigurationError(f"{name.format(span=span)} {misfit.format(h=h)}")
    return n


@dataclass(frozen=True)
class Timing:
    """Horizon and sampling of a run: the grid ``k*h`` for ``k = 0..n_steps``, each point one product
    rather than a running sum, so bit-reproducible and free of drift."""

    duration: float = _key("duration", rule=_number)
    h: float = _key("h", rule=_number)
    n_steps: int = field(init=False, repr=False, compare=False)  # duration / h, set at construction

    def __post_init__(self):
        _type_fields(self)
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ConfigurationError(f"sampling period must be positive, got {self.h}")
        n = _grid_steps(self.duration, self.h, "duration {span}", "is not a multiple of the sampling period {h}")
        object.__setattr__(self, "n_steps", n)

    def times(self) -> np.ndarray:
        """All ``n_steps + 1`` grid points as an array."""
        return self.h * np.arange(self.n_steps + 1)

    @property
    def n_points(self) -> int:
        return self.n_steps + 1


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative description of one controller channel, whose gains place ``pole`` (double at order 2)."""

    output: int = _key("output", rule=_count)
    order: int | None = _key("order", rule=_count, default=None)
    alpha_source: str = _key("alpha", "source", rule=_tag, default="derived")  # "derived" | "formula" | "constant"
    alpha_value: float | None = _key("alpha", "value", rule=_number, default=None)
    estimator_T: float = _key("estimator", "T", rule=_number, default=0.3)
    # required: the default only lets it follow the defaulted fields
    pole: float | None = _key("pole", "value", rule=_number, required=True, default=None)
    pole_multiplicity: int | None = _key("pole", "multiplicity", rule=_count, default=None)  # None: order sets it
    nominal: str = _key("nominal", rule=_tag, default="zero")
    saturation: tuple[float, float] | None = _key("saturation", rule=_List(_number), default=None)

    def __post_init__(self):
        if self.pole is None:
            raise ConfigurationError("channel needs a pole")
        _type_fields(self)
        if (sat := self.saturation) is not None:
            if not (len(sat) == 2 and sat[0] < sat[1]):
                raise ConfigurationError(f"saturation needs (u_min, u_max) with u_min < u_max, got {sat}")
            if not all(map(math.isfinite, sat)):
                raise ConfigurationError(f"saturation bounds must be finite, got {sat}")
        if self.alpha_source not in ("derived", "formula", "constant"):
            raise ConfigurationError(f"unknown alpha source {self.alpha_source!r}")
        if self.alpha_source != "constant" and self.alpha_value is not None:
            raise ConfigurationError(
                f"alpha.value is read by source 'constant' only, got value {self.alpha_value!r} "
                f"with source {self.alpha_source!r}"
            )
        if self.alpha_source == "constant" and not (
            self.alpha_value is not None and math.isfinite(self.alpha_value)
        ):
            raise ConfigurationError(f"alpha source 'constant' needs a finite value, got {self.alpha_value}")
        if self.alpha_source == "constant" and abs(self.alpha_value) <= ZERO_THRESHOLD:
            raise ConfigurationError(
                f"alpha.value {self.alpha_value!r} is a zero channel gain (|alpha| <= {ZERO_THRESHOLD:g})"
            )
        if self.alpha_source != "derived" and self.order is None:
            raise ConfigurationError(
                "channel order must be given explicitly unless alpha is derived"
            )
        if self.order not in (None, 1, 2):
            raise ConfigurationError(f"channel order must be 1 or 2, got {self.order}")
        if self.pole_multiplicity not in (None, 1, 2):
            raise ConfigurationError("pole multiplicity must be 1 or 2")
        if not (math.isfinite(self.estimator_T) and self.estimator_T > 0.0):
            raise ConfigurationError(f"estimator window length must be positive, got T={self.estimator_T}")
        if not (math.isfinite(self.pole) and self.pole < 0.0):  # the rule gains_from_poles applies
            raise ConfigurationError(f"pole must be a strictly negative real, got {self.pole}")


@dataclass(frozen=True)
class Scenario:
    """Complete, serialisable description of one simulation run."""

    name: str = _key("name", rule=_tag)
    plant: str = _key("plant", "name", rule=_tag)
    timing: Timing = _key("timing", rule=_Object(Timing))
    references: tuple[dict, ...] = _key("references", rule=_List(_REFERENCE))
    channels: tuple[ChannelSpec, ...] = _key("channels", rule=_List(_Object(ChannelSpec)))
    mismatch: MismatchSpec | None = _key(  # None: every output starts unscaled
        "mismatch", rule=_Object(MismatchSpec, _plain("output_scaling", kind=_List(_number))), default=None
    )
    plant_params: dict = _key("plant", "params", rule=_instance(dict, "a JSON object"), default_factory=dict)
    control_mode: str = _key("control_mode", rule=_tag, default="closed-loop")
    noise_std: float = _key("noise", "std", rule=_number, default=0.0)
    noise_seed: int = _key("noise", "seed", rule=_count, default=0)
    rms_fraction: float = _key("metrics", "rms_fraction", rule=_number, default=0.01)

    def __post_init__(self):
        _type_fields(self)
        if self.name in ("", ".", "..") or any(c in self.name for c in "/\\\0"):
            raise ConfigurationError(f"scenario name {self.name!r} is not a plain file name")
        try:
            size = len(f"{self.name}.metrics.txt".encode())
        except UnicodeEncodeError:  # a lone surrogate, as a "\ud800" JSON escape gives
            size = math.inf
        if size > 255:  # the longest file name most file systems take
            raise ConfigurationError(
                "scenario name is not a plain file name: <name>.metrics.txt must be "
                "at most 255 bytes of UTF-8"
            )
        if self.control_mode not in ("closed-loop", "feedforward"):
            raise ConfigurationError(f"unknown control mode {self.control_mode!r}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ConfigurationError(f"noise std must be finite and non-negative, got {self.noise_std}")
        if self.noise_seed < 0:
            raise ConfigurationError(f"noise seed must be non-negative, got {self.noise_seed}")
        if not 0.0 < self.rms_fraction <= 1.0:
            raise ConfigurationError(
                f"rms threshold fraction must be in (0, 1], got {self.rms_fraction}"
            )


# --------------------------------------------------------------------------
# registries


def _build_reference(spec: dict, path: str) -> ReferenceTrajectory:
    spec = _REFERENCE.load(spec, path)
    if spec["type"] == "constant":
        return make_constant(spec["value"])
    return make_smoothstep(spec["from"], spec["to"], spec["t_start"], spec["t_end"])


def _ultralocal_plant(params: dict):
    order = params.get("order", 1)
    drift = params.get("f", 0.0)
    gain = params.get("gain", 1.0)
    if order not in (1, 2):
        raise ConfigurationError(f"ultralocal plant order must be 1 or 2, got {order}")
    if gain == 0.0:
        raise ConfigurationError("ultralocal plant gain must be nonzero")

    def init(refs, mismatch):
        y0 = (mismatch.output_scaling[0] * refs[0].eval(0.0, 0), refs[0].eval(0.0, 1))
        return np.array(y0[:order])

    rates = ("x1",)[: order - 1] + ("drift + gain * u0",)  # a chain of integrators
    model = _rated_plant(rates, 1, 1, lambda x: (x[0],), drift=drift, gain=gain)
    relation, _ = _flat_inversion((order,), 0, lambda table: table[0, order], lambda table: gain)
    return model, init, (relation,), (), {}


def _benchmark_2x2_plant(params: dict):
    formulas = (_alpha_ref0_squared, _alpha_ref0_rate_ratio)
    (e1, u1), (e2, u2), (_, u2_miscoeff) = _BENCHMARK_INVERSIONS
    # the flat inversions of this plant; u2 also with miscalibrated coefficients
    nominals = {"flat-u1": u1, "flat-u2": u2, "flat-u2-miscoeff": u2_miscoeff}
    return example_plant(), initial_state, (e1, e2), formulas, nominals


#: the benchmark's (relation, feedforward) per control, then u2's with miscalibrated coefficients
_BENCHMARK_INVERSIONS = (*_benchmark_inversions(), _benchmark_inversions(1.1, 0.9)[1])


#: plant name -> (factory(params) -> (model, init_state(refs, mismatch), relations, formulas,
#: nominals), the ``params`` object, whose absent keys take the factory's defaults).
#: ``relations[j]`` is channel j's implicit relation, ``formulas[j]`` the closed form of its gain
#: ``f(table, t, u=None)`` and ``nominals[tag]`` the feedforward ``f(table, t)`` this plant registers
#: under ``tag``: both read the derivative table of the references at ``t``.  ``zero`` works on every plant.
PLANTS: dict[str, tuple[Callable, _Object]] = {
    "flat-benchmark-2x2": (_benchmark_2x2_plant, _Object(dict, [])),
    "ultralocal": (
        _ultralocal_plant,
        _Object(dict, _plain("order", kind=_count, default=None) + _plain("f", "gain", default=None)),
    ),
}

#: the feedforward tag every plant registers, and the schema default
_ZERO = {"zero": lambda table, t: 0.0}


# the benchmark's closed-form gains: alpha1 = y1*^2 and, at order 2, alpha2 = y1*'/y1* - 1
def _alpha_ref0_squared(table, t, u=None):
    # float_power rounds as float ** 2 does; y * y and np.power differ in the last bit
    return np.float_power(table[0, 0], 2.0)


def _alpha_ref0_rate_ratio(table, t, u=None):
    y = _nonzero(table[0, 0], t, "alpha formula divides by y1*={value!r} at t={t:.6g}")
    return table[0, 1] / y - 1.0


# --------------------------------------------------------------------------
# build & validate


@dataclass(frozen=True)
class _Channel:
    """One built channel, as the grid tabulation and the loop read it."""

    output: int
    order: int
    alpha: Callable  # alpha(table, t, u=None), off the reference table at t; u: the feedforward there
    nominal: Callable  # the feedforward u_nom(table, t), likewise
    k_p: float
    k_d: float | None  # None at order 1
    saturation: tuple[float, float]  # (-inf, inf) when the channel is unsaturated
    w: int  # estimator window, in sampling periods


@dataclass
class _Built:
    scenario: Scenario
    model: PlantModel
    references: tuple[ReferenceTrajectory, ...]
    channels: list[_Channel]
    x0: np.ndarray


def _registered(entries, key, what: str, plant: str):
    """``entries[key]``: a plant's relation or formula alpha (by channel) or feedforward (by tag)."""
    try:
        return entries[key]
    except LookupError:
        named = f" {key!r}; registered: {sorted(entries)}" if isinstance(entries, dict) else ""
        raise ConfigurationError(f"plant {plant!r} registers no {what}{named}") from None


def validate_scenario(scenario: Scenario) -> _Built:
    """Build every part of the scenario without running it; :func:`run_scenario` takes the result."""
    if scenario.plant not in PLANTS:
        raise ConfigurationError(f"unknown plant {scenario.plant!r}; registered: {sorted(PLANTS)}")
    factory, params = PLANTS[scenario.plant]
    plant_params = params.load(scenario.plant_params, "plant.params")
    model, init_fn, relations, formulas, nominals = factory(plant_params)
    nominals = {**_ZERO, **nominals}
    mismatch = scenario.mismatch or MismatchSpec(output_scaling=(1.0,) * model.n_outputs)

    if len(scenario.references) != model.n_outputs:
        raise ConfigurationError(
            f"plant has {model.n_outputs} outputs but {len(scenario.references)} references given"
        )
    if len(scenario.channels) != model.n_controls:
        raise ConfigurationError(
            f"plant has {model.n_controls} controls but {len(scenario.channels)} channels given"
        )
    if len(mismatch.output_scaling) != model.n_outputs:
        raise ConfigurationError(
            f"mismatch carries {len(mismatch.output_scaling)} scaling factors "
            f"for {model.n_outputs} outputs"
        )

    timing = scenario.timing
    refs = tuple(_build_reference(spec, f"references[{i}]") for i, spec in enumerate(scenario.references))
    horizon = (0.0, timing.n_steps * timing.h)
    probe = None  # the derivation's probe times and the table of refs there, which every derived channel reads

    channels, seen_outputs = [], set()
    for j, spec in enumerate(scenario.channels):
        try:
            if not 0 <= spec.output < model.n_outputs:
                raise ConfigurationError(f"output index {spec.output} out of range")
            if spec.output in seen_outputs:  # leaves another output unregulated
                raise ConfigurationError(f"two channels regulate output {spec.output}")
            seen_outputs.add(spec.output)
            nominal = _registered(nominals, spec.nominal, "nominal control", scenario.plant)

            order = spec.order
            if spec.alpha_source == "derived":
                relation = _registered(relations, j, "relation", scenario.plant)
                _, order, alpha, probe = _derive(relation, refs, horizon, spec.order, spec.output, nominal, probe)
            elif spec.alpha_source == "formula":
                alpha = _registered(formulas, j, "formula alpha", scenario.plant)
            else:
                alpha = lambda table, t, u=None, _v=spec.alpha_value: np.full(np.shape(t), _v)
            if order not in (1, 2):
                raise ConfigurationError(f"channel order {order} unsupported; estimators exist for orders 1 and 2")

            if spec.pole_multiplicity not in (None, order):
                raise ConfigurationError(
                    f"pole.multiplicity {spec.pole_multiplicity} needs an "
                    f"order-{spec.pole_multiplicity} channel, but the channel has order {order}"
                )
            gains = gains_from_poles(order, spec.pole)  # a double pole at order 2

            T, h = spec.estimator_T, timing.h
            misfit = "must be an integer multiple of the sampling period h={h}"
            w = _grid_steps(T, h, "estimator window T={span}", misfit)
            if w + 1 < 5:
                raise ConfigurationError(f"estimator window T={T} at h={h} holds {w + 1} samples; need at least 5")
            _kernel_scale(order, w * h)
            sat = spec.saturation or (-math.inf, math.inf)
            channels.append(_Channel(spec.output, order, alpha, nominal, gains.k_p, gains.k_d, sat, w))
        except HeolError as exc:
            raise type(exc)(f"channel {j + 1}: {exc}") from None

    x0 = np.asarray(init_fn(refs, mismatch), dtype=float)
    if x0.shape != (model.n_states,):
        raise ConfigurationError(
            f"initial state has shape {x0.shape}, plant needs ({model.n_states},)"
        )
    if not all(abs(v) <= TRUST_REGION for v in x0.tolist()):  # also rejects inf and NaN
        raise ConfigurationError(
            f"initial state {x0.tolist()} is outside the trust region |x| <= {TRUST_REGION:g}"
        )
    return _Built(scenario, model, refs, channels, x0)


# --------------------------------------------------------------------------
# simulation


@dataclass
class SimLog:
    """Per-grid-point record arrays of one run."""

    channel_T: tuple[float, ...]
    t: np.ndarray
    y: np.ndarray        # (N, p) measured outputs
    y_ref: np.ndarray    # (N, p)
    u: np.ndarray        # (N, m) applied controls
    u_nom: np.ndarray    # (N, m) applied feedforward samples
    dy: np.ndarray       # (N, p) y - y_ref
    du: np.ndarray       # (N, m) applied feedback corrections
    f_est: np.ndarray    # (N, m)
    f_valid: np.ndarray  # (N, m) bool
    clamped: np.ndarray  # (N, m) bool

    @property
    def n_outputs(self) -> int:
        return self.y.shape[1]

    @property
    def n_controls(self) -> int:
        return self.u.shape[1]


def _tabulate(channels: list[_Channel], feedback: bool, times: np.ndarray, h: float, tables, out: np.ndarray):
    """Column j of ``out``: channel j's feedforward at ``times + h/2`` (mid-hold, removing the hold's phase bias);
    column m + j: its alpha at ``times``; both off ``tables``, the reference tables at those times (or longer).  The
    feedforward is probed at ``times`` first, so a flatness singularity at t surfaces as such, not as a zero gain,
    and a derived alpha takes that probe as its u.  Errors name ``times[-1]``."""
    m = len(channels)
    at, mid = (table[..., : len(times)] for table in tables)
    for j, ch in enumerate(channels):
        try:
            u = ch.nominal(at, times)
            out[:, j] = ch.nominal(mid, times + 0.5 * h)
            out[:, m + j] = a = ch.alpha(at, times, u)
            if feedback:  # the run's one check of alpha; the loop applies the law unchecked
                singular = ~np.isfinite(a) | (np.abs(a) <= ZERO_THRESHOLD)
                _refuse(singular, a, times, "cannot divide by channel gain alpha={value!r}")
        except HeolError as exc:
            raise type(exc)(f"channel {j + 1} at t={times[-1]:.6g}: {exc}") from None


def run_scenario(scenario: Scenario | _Built) -> SimLog:
    """Simulate one scenario, or the run :func:`validate_scenario` built, and return its log.

    Deterministic: identical inputs produce bit-identical logs, and a run
    over a shorter horizon reproduces the corresponding prefix exactly.
    """
    log, *_ = _simulate(scenario if isinstance(scenario, _Built) else validate_scenario(scenario))
    return log


def _simulate(built: _Built):
    """``run_scenario``'s run, stepped by the caller: the log before the first sample (``dy``, ``clamped`` set
    last), then each chunk's clamp flags as it ends.  A process forked at the first yield sees each record."""
    model, channels = built.model, built.channels
    feedback = built.scenario.control_mode == "closed-loop"
    grid = built.scenario.timing
    n_pts, p, m = grid.n_points, model.n_outputs, model.n_controls
    h = grid.h

    # One time-only table on the whole grid, y_ref | u_nom | alpha, read off a reference table at
    # the grid times and one at mid-hold; the lowest channel at the first bad t fails the run.
    times = grid.times()
    table = np.empty((n_pts, p + 2 * m))
    tables = [build_reference_table(built.references, ts) for ts in (times, times + 0.5 * h)]
    table[:, :p] = tables[0][:, 0].T
    _at_first_failure(lambda ts: _tabulate(channels, feedback, ts, h, tables, table[: len(ts), p:]), times)
    del tables  # before the loop's allocations

    noise = None
    if (std := built.scenario.noise_std) > 0.0:
        with np.errstate(over="ignore"):
            noise = std * np.random.default_rng(built.scenario.noise_seed).standard_normal((n_pts, p))
        if not np.isfinite(noise).all():
            raise DivergenceError(f"measurement noise with std {std:g} overflows the float range")

    # One record row per sample, y | u | du | F_est, a list written with its chunk's rows.
    # The clamp flags go to a bytearray copied to the bool log after the run: as a float
    # column of ``log`` they would stay alive behind the views at 8 bytes each.
    log = np.frombuffer(mmap.mmap(-1, n_pts * (p + 3 * m) * 8), dtype=float).reshape(n_pts, p + 3 * m)
    unset = [0.0] * (3 * m)
    clamps = bytearray()

    # Measurement-driven state per channel.  One history holds dy at 2k and alpha*Du
    # at 2k + 1, so an estimator window is one slice and one dot.  The alpha*Du slot
    # is written at k only after the control at step k is known, so the estimate at
    # t_k reads the zero pad there and never the control applied at t_k (both kernels
    # weigh that sample by zero up to round-off anyway).  Column cu = p + j holds
    # u_nom in the table and u in the record, column ca = p + m + j alpha and du.
    # The iP/iPD law, du = -(F_est + k_p dy [+ k_d ddy]) / alpha, is bound per channel
    # and applied inline with no check of alpha: _tabulate has checked it at every grid
    # point of a feedback run.  An unsaturated channel clamps to (-inf, inf), which no
    # float leaves.
    ddys, last_dy = [0.0] * m, [0.0] * m
    tau_f = 5.0 * h  # time constant of the order-2 derivative filter
    bound = [
        (j, ch.output, ch.order == 2, ch.k_p, ch.k_d, *ch.saturation, 2 * ch.w, np.zeros(2 * n_pts),
         FusedEstimator(ch.order, ch.w * h, ch.w)._dot, p + j, p + m + j)
        for j, ch in enumerate(channels)
    ]
    # The plant's RK4 kernel, bound once per run.  One check per step stands for rk4_step's finiteness
    # check and the trust region: NaN and inf carry through a sum of |x_i|, which bounds the largest.
    step, output = _kernel(model), model.output

    simlog = SimLog(
        channel_T=tuple(ch.w * h for ch in channels),
        t=times,
        y=log[:, :p],
        y_ref=table[:, :p],
        u=log[:, p : p + m],
        u_nom=table[:, p : p + m],
        dy=np.empty((n_pts, p)),
        du=log[:, p + m : p + 2 * m],
        f_est=log[:, p + 2 * m :],
        f_valid=np.arange(n_pts)[:, None] >= np.array([ch.w for ch in channels]),
        clamped=np.empty((n_pts, m), dtype=bool),
    )
    yield simlog

    x = built.x0.tolist()
    for k0 in range(0, n_pts, _CSV_CHUNK):  # numpy is read and written once per chunk
        k1, records = min(k0 + _CSV_CHUNK, n_pts), []
        noises = noise[k0:k1].tolist() if noise is not None else None
        for k, row in enumerate(table[k0:k1].tolist(), k0):
            t, i = k * h, 2 * k  # i: this sample's dy slot in every history
            y = output(x)
            if noises is not None:
                y = [a + b for a, b in zip(y, noises[k - k0])]
            record = [*y, *unset]
            for j, out, order2, k_p, k_d, lo, hi, w2, hist, dot, cu, ca in bound:
                dy = y[out] - row[out]
                hist[i] = dy
                if order2 and k > 0:
                    # low-pass-filtered backward difference over the step from the previous point
                    dt = t - (k - 1) * h
                    ddys[j] += dt / (tau_f + dt) * ((dy - last_dy[j]) / dt - ddys[j])
                last_dy[j] = dy
                # warm-up: no full window yet
                f_est = float(dot(hist[i - w2 : i + 2])) if i >= w2 else 0.0
                u_nom, alpha = row[cu], row[ca]
                du = 0.0
                if feedback:
                    du = -(f_est + k_p * dy + k_d * ddys[j]) / alpha if order2 else -(f_est + k_p * dy) / alpha
                u = u_nom + du
                clamped = u < lo or u > hi
                if clamped:
                    u = lo if u < lo else hi
                clamps.append(clamped)
                record[cu], record[ca], record[ca + m] = u, u - u_nom, f_est
                hist[i + 1] = alpha * record[ca]
            records.append(record)

            if k < grid.n_steps:
                try:
                    x = step(t, x, record[p : p + m], h)
                except ValueError:
                    _check_lengths(model, t, x, record[p : p + m], h)
                    raise
                if not sum(map(abs, x)) <= TRUST_REGION and max(map(abs, _finite(x, t))) > TRUST_REGION:
                    raise DivergenceError(
                        f"state left the trust region (|x| > {TRUST_REGION:g}) by t={(k + 1) * h:.6g}"
                    )

        log[k0:k1] = records
        yield clamps[k0 * m :]
    _fill_log(simlog, slice(None), clamps)


def _fill_log(log: SimLog, rows: slice, flags: bytes) -> None:
    """Set ``dy = y - y_ref`` and ``clamped`` (``flags``: a byte per row and channel, or raise) at ``rows``."""
    np.subtract(log.y[rows], log.y_ref[rows], out=log.dy[rows])
    log.clamped[rows] = np.frombuffer(flags, dtype=bool).reshape(log.clamped[rows].shape)


# --------------------------------------------------------------------------
# metrics & export


@dataclass(frozen=True)
class Metrics:
    """Headline numbers of one run.

    ``rms_tail_dy`` is the RMS tracking error per output over the final 20 %
    of the records — the settled portion of the bundled scenarios.
    ``ref_range`` (max - min of each reference over the horizon) provides the
    scale against which that RMS is judged.
    """

    n_records: int
    tail_records: int
    rms_tail_dy: tuple[float, ...]
    max_abs_dy: tuple[float, ...]
    max_abs_du: tuple[float, ...]
    ref_range: tuple[float, ...]
    warmup_T: tuple[float, ...]
    rms_fraction: float


def compute_metrics(log: SimLog, rms_fraction: float = 0.01) -> Metrics:
    n = len(log.t)
    if n == 0:
        raise ConfigurationError("cannot compute metrics of an empty log")
    tail = max(1, int(round(0.2 * n)))
    dy_tail = log.dy[n - tail :]
    return Metrics(
        n_records=n,
        tail_records=tail,
        rms_tail_dy=tuple(np.sqrt(np.mean(dy_tail**2, axis=0))),
        max_abs_dy=tuple(np.max(np.abs(log.dy), axis=0)),
        max_abs_du=tuple(np.max(np.abs(log.du), axis=0)),
        ref_range=tuple(np.ptp(log.y_ref, axis=0)),
        warmup_T=log.channel_T,
        rms_fraction=rms_fraction,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


#: rows converted and written at once; bounds the export's extra memory
_CSV_CHUNK = 256


def _csv_layout(log: SimLog) -> tuple[list[np.ndarray], str, bytes]:
    """The CSV columns of ``log`` in file order, the format of one row and the header line."""

    def block(n, *fields):  # (log field, name pattern) pairs, interleaved per index
        return [(name.format(i + 1), f, i) for i in range(n) for f, name in fields]

    layout = (
        [("t", "t", None)]
        + block(log.n_outputs, ("y", "y{}"), ("y_ref", "y{}_ref"))
        + block(log.n_controls, ("u", "u{}"), ("u_nom", "u{}_nom"))
        + block(log.n_outputs, ("dy", "dy{}"))
        + block(log.n_controls, ("du", "du{}"))
        + block(log.n_controls, ("f_est", "F{}_est"))
        + block(log.n_controls, ("f_valid", "F{}_valid"))
        + block(log.n_controls, ("clamped", "clamp{}"))
    )
    columns = [getattr(log, f) if i is None else getattr(log, f)[:, i] for _, f, i in layout]
    row = ",".join("%d" if c.dtype == bool else "%.17g" for c in columns) + "\n"
    return columns, row, (",".join(name for name, _, _ in layout) + "\n").encode()


#: fewest formatted values (rows x columns) for which the forked helper pays for its fork.  With the
#: helper against without it (median of 8-10 alternating in-process pairs), 1,280 rows x 19 columns
#: (24,320 values) of a ``paper-sec4`` log took 1.03 times as long to export, 2,048 x 10 (20,480) of an
#: ultralocal log 1.05 times; 1,408 x 19 (26,752) took 0.86, 2,304 x 10 (23,040) 0.84.
_CSV_HELPER_MIN_VALUES = 24_576


def _csv_fork_helps(n_rows: int, n_columns: int) -> bool:
    """Whether a forked helper formatting every other chunk on a second CPU saves time."""
    if n_rows <= _CSV_CHUNK or n_rows * n_columns < _CSV_HELPER_MIN_VALUES:
        return False
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return False
    try:  # from Python 3.12 os.fork warns when the process has other threads
        alone = sys.version_info < (3, 12) or len(os.listdir("/proc/self/task")) == 1
    except OSError:
        alone = False
    return alone and len(os.sched_getaffinity(0)) > 1


#: the unsigned integer view that compares bit patterns, per column dtype; a column of any other dtype is
#: formatted row by row
_CSV_BITS = {np.dtype(np.float64): np.uint64, np.dtype(bool): np.uint8}


def _csv_chunk(columns, row: str, k: int) -> bytes:
    """The CSV text of the rows ``k .. k + _CSV_CHUNK - 1``.

    A float64 or bool column whose rows here hold one bit pattern is formatted once, into the chunk's
    copy of ``row``; only the other columns are stacked and formatted per row.  Equal bits give equal
    text (``-0.0`` never joins a run of ``0.0``), so the bytes are those of formatting every field.
    """
    fields, varying = row[:-1].split(","), []
    for i, c in enumerate(columns):
        seg = c[k : k + _CSV_CHUNK]
        if (view := _CSV_BITS.get(c.dtype)) is not None:
            bits = seg.view(view)
            if bits[-1] == bits[0] and (bits == bits[0]).all():
                fields[i] %= seg[0].item()
                continue
        varying.append(seg)
    text = (",".join(fields) + "\n") * len(seg)
    if varying:
        text %= tuple(np.column_stack(varying).ravel().tolist())
    return text.encode()


def _csv_helper(inherited, write_fd: int, columns, row: str, starts, ready=None) -> None:
    """The forked helper: close the parent's pipe ends ``inherited``, send the text of the chunks at
    ``starts`` through ``write_fd``, each one prefixed by its length (given ``ready``, held until ``ready(k)``
    has returned for each), then leave through ``os._exit`` (no ``atexit`` hook, no parent's file flushed)."""
    code = 1
    try:
        for end in inherited:
            end.close()
        texts = (_csv_chunk(columns, row, k) for k in starts)
        if ready is not None:  # the parent reads no block while its loop runs
            texts = [ready(k) or _csv_chunk(columns, row, k) for k in starts]
        with open(write_fd, "wb") as out:
            for text in texts:
                out.write(len(text).to_bytes(8, "little"))
                out.write(text)
        code = 0
    finally:
        os._exit(code)


def _csv_block(blocks, path: Path, k: int) -> bytes:
    """The helper's next block: the text of the chunk at row ``k``."""
    head = blocks.read(8)
    if len(head) == 8:
        text = blocks.read(size := int.from_bytes(head, "little"))
        if len(text) == size:
            return text
    raise ExportError(f"failed to write {path}: its formatting helper sent no text for row {k}")


def _csv_fork(columns, row: str, starts, inherited=(), ready=None):
    """Fork the helper that formats the chunks at ``starts``: the read end of its pipe and its pid, or
    ``(None, 0)`` where no pipe or process is to spare (EMFILE, EAGAIN, ENOMEM) and this process formats
    every chunk."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None, 0
    blocks = open(read_fd, "rb")
    try:
        if (helper := os.fork()) == 0:
            _csv_helper([blocks, *inherited], write_fd, columns, row, starts, ready)
    except OSError:
        blocks.close()
        return None, 0
    finally:
        os.close(write_fd)
    return blocks, helper


def export_csv(log: SimLog, destination) -> Path:
    """Write the run log as CSV with full float precision (17 significant digits).

    Chunk ``i`` of ``_CSV_CHUNK`` rows is formatted by worker ``i % workers``: this process, and on a log of
    ``_CSV_HELPER_MIN_VALUES`` values or more with a second CPU free, a forked helper that sends its text back
    through a pipe; only this process writes the file, in row order.  A float64 or bool column holding one bit
    pattern over a chunk is formatted once (``_csv_chunk``), so the bytes are those of formatting every field.
    ``heol run`` forks its helper before the run instead (``_write_csv``); neither helper starts Python.
    """
    return _write_csv(log, Path(destination))


def _write_csv(log: SimLog, path: Path, steps=None) -> Path:
    """``export_csv``, or given ``steps`` (``_simulate`` of ``log`` past its first yield) ``heol run``'s: step
    the run, then make the directory and write the file.  A run forks the helper, where it pays, before the
    first sample, to fill and format every chunk as the loop announces it with its clamp flags, by a pipe."""

    def ready(k):  # in a run's helper: wait until the loop has ended the chunk at k (EOF if the run failed)
        _fill_log(log, slice(k, k + _CSV_CHUNK), chunks.read(log.clamped[k : k + _CSV_CHUNK].size))

    columns, row, header = _csv_layout(log)
    starts = range(0, len(log.t), _CSV_CHUNK)
    theirs, blocks, helper = starts[1::2] if steps is None else starts, None, 0
    try:
        with contextlib.ExitStack() as announcing:
            # forked before the file is opened, so the helper holds none of its data
            if steps is None and _csv_fork_helps(len(log.t), len(columns)):
                blocks, helper = _csv_fork(columns, row, theirs)
            elif steps is not None and _csv_fork_helps(len(log.t), len(columns)):
                with contextlib.suppress(OSError), open((fds := os.pipe())[0], "rb") as chunks:
                    announce = announcing.enter_context(open(fds[1], "wb"))
                    blocks, helper = _csv_fork(columns, row, theirs, [announce], ready)
            for flags in steps or ():
                if helper:
                    announce.write(flags)
                    announce.flush()
        if steps is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(header)
            for k in starts:
                fh.write(_csv_block(blocks, path, k) if helper and k in theirs else _csv_chunk(columns, row, k))
    except OSError as exc:
        raise ExportError(f"failed to write {path}: {exc}") from exc
    finally:
        if blocks is not None:
            blocks.close()  # before the wait, so that a helper blocked on a full pipe leaves on EPIPE
        if helper:
            try:
                code = os.waitstatus_to_exitcode(os.waitpid(helper, 0)[1])
            except ChildProcessError:  # reaped by the embedding program; the blocks read above decide
                code = 0
    if helper and code:
        raise ExportError(f"failed to write {path}: its formatting helper exited with code {code}")
    return path


def export_metrics(metrics: Metrics, destination) -> Path:
    """Write metrics as a flat ``key = value`` text file."""
    path = Path(destination)
    lines = [
        f"n_records = {metrics.n_records}",
        f"tail_records = {metrics.tail_records}",
        f"rms_fraction = {_fmt(metrics.rms_fraction)}",
    ]
    for key in ("rms_tail_dy", "max_abs_dy", "max_abs_du", "ref_range", "warmup_T"):
        lines += [f"{key}{i + 1} = {_fmt(v)}" for i, v in enumerate(getattr(metrics, key))]
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ExportError(f"failed to write {path}: {exc}") from exc
    return path


# --------------------------------------------------------------------------
# (de)serialisation

_PLANT = _Union("name", "plant", "plant", {
    name: _Object(None, [
        ("name", "plant", _tag, _REQUIRED),
        ("params", "plant_params", params, None),
    ])
    for name, (_, params) in PLANTS.items()
})

_SCENARIO = _Object(Scenario, groups={"plant": _PLANT})


def scenario_from_dict(data: dict) -> Scenario:
    """Scenario of a parsed JSON document; any deviation from the schema raises ConfigurationError."""
    return _SCENARIO.load(data, "")


def scenario_to_dict(s: Scenario) -> dict:
    """JSON document of ``s``, leaving out keys at their default."""
    return _SCENARIO.dump(s)


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file (``#``-prefixed keys are comments)."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file {p}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # undecodable, malformed or too deep
        raise ConfigurationError(f"scenario file {p} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"scenario file {p} must hold a JSON object")
    return scenario_from_dict(data)


# --------------------------------------------------------------------------
# built-in scenarios


# Each built-in is a scenario document, read by the same schema as a file.
# paper-sec4 is the closed-loop regression: smoothstep references, a scaled
# initial output, and a mis-weighted second feedforward the loop has to absorb.
_SEC4 = {
    "name": "paper-sec4",
    "plant": {"name": "flat-benchmark-2x2"},
    "timing": {"duration": 150.0, "h": 0.01},
    "references": [
        {"type": "smoothstep", "from": 1.0, "to": 2.0, "t_start": 10.0, "t_end": 40.0},
        {"type": "smoothstep", "from": 1.0, "to": 2.0, "t_start": 50.0, "t_end": 80.0},
    ],
    "channels": [
        {"output": 0, "order": 1, "alpha": {"source": "formula"}, "pole": {"value": -1.0}, "nominal": "flat-u1"},
        {"output": 1, "order": 2, "alpha": {"source": "formula"}, "pole": {"value": -0.15, "multiplicity": 2},
         "nominal": "flat-u2-miscoeff"},
    ],
    "mismatch": {"output_scaling": [1.1, 1.0]},
}

_BUILTINS = {
    "paper-sec4": _SEC4,
    # Pure-feedforward companion with zero mismatch.  References are held
    # constant: the y2 chain is open-loop unstable, so over 150 s any
    # reference motion would amplify round-off beyond every tolerance and
    # say nothing about the feedforward itself.  At an equilibrium the
    # flat inversion is exact and the run must track perfectly.
    "paper-sec4-nominal": {
        **{key: value for key, value in _SEC4.items() if key != "mismatch"},
        "name": "paper-sec4-nominal",
        "references": [{"type": "constant", "value": 1.0}] * 2,
        "channels": [_SEC4["channels"][0], {**_SEC4["channels"][1], "nominal": "flat-u2"}],
        "control_mode": "feedforward",
    },
}


def builtin_scenario(name: str) -> Scenario:
    """Return a built-in scenario by name (see :func:`builtin_names`)."""
    if name not in _BUILTINS:
        raise ConfigurationError(f"unknown built-in scenario {name!r}; available: {builtin_names()}")
    return scenario_from_dict(_BUILTINS[name])


def builtin_names() -> list[str]:
    return list(_BUILTINS)
