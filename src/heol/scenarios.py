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
under zero-order hold.  That loop is generated as source and compiled once per process for each
structure (the output count, each channel's output, order 2 or not and saturation or not, feedback
or not, noise or not, the plant's rate text or Python ``f``), with channels and RK4 stages unrolled,
outputs read as their declared states and no per-sample test of that structure; a run's gains, bounds,
windows, histories, dots and plant parameters are its arguments, so a sweep compiles one loop.
Runs are bit-deterministic: repeating a run, or truncating the horizon,
reproduces records exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import linecache
import math
import mmap
import os
import re
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .controllers import _pole, gains_from_poles
from .errors import ConfigurationError, DivergenceError, ExportError, HeolError, _count, _number, _positive, _Rule
from .estimators import FusedEstimator, _window_scale
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
    _block,
    _finite,
    _names,
    _rated_plant,
    _rk4,
    example_plant,
    rk4_step,
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


def _instance(kind: type, what: str) -> _Rule:
    def load(value, path: str):
        if not isinstance(value, kind):
            raise ConfigurationError(f"{path} must be {what}, got {value!r}")
        return value

    return _Rule(kind, load)


_tag = _instance(str, "a string")
_json_object = _instance(dict, "a JSON object")


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
    key, one per group: an ``_Object(None)`` of them, required if any of them is."""

    def __init__(self, make, entries=None):
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
                    entries.append((key, None, _Object(None, members), _REQUIRED if required else None))
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
            v = value if attr is None else getattr(value, attr)
            if v is not None and (v := rule.dump(v)) not in (default, {}):
                out[key] = v
        return out


class _Union(_Rule):
    """One of several objects, picked by the string under ``key``."""

    def __init__(self, key: str, what: str, options: dict):
        self.key, self.what, self.options = key, what, options

    def load(self, value, path: str):  # value is a dict: Scenario types references as JSON objects first
        if self.key not in value:
            raise ConfigurationError(f"missing key {_at(path, self.key)}")
        tag = value[self.key]
        if not (isinstance(tag, str) and tag in self.options):
            raise ConfigurationError(
                f"{_at(path, self.key)}: unknown {self.what} {tag!r}; registered: {sorted(self.options)}"
            )
        return self.options[tag].load(value, path)


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
    """Type and range-check each init field of ``obj`` not at its default by its rule."""
    for name, rule, default, _ in _field_rules(type(obj)):
        if (value := getattr(obj, name)) is not default and (rule.checks or type(value) is not rule.type):
            object.__setattr__(obj, name, rule.typed(value, name))


_REFERENCE = _Union("type", "reference type", {
    "constant": _Object(dict, _plain("type", kind=_tag) + _plain("value")),
    "smoothstep": _Object(dict, _plain("type", kind=_tag) + _plain("from", "to", "t_start", "t_end")),
})


# --------------------------------------------------------------------------
# configuration types

#: Most points a run's grid or an estimator window may span: both are preallocated, and a run keeps
#: about 235 bytes per point, so 10**7 points take about 2.3 GB (``heol run``'s CSV helper holds about
#: 2.4 GB of text more); more is almost surely a mistyped ``h`` or ``T``.
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


# the range of each number of a channel, a scenario and its ultralocal plant; also ``compute_metrics``' rms_fraction
_channel_order = _count.where(lambda k: k in (1, 2), "channel order must be 1 or 2, got {}")
_alpha_source = _tag.where(lambda s: s in ("derived", "formula", "constant"), "unknown alpha source {!r}")
_alpha_value = _number.where(math.isfinite, "alpha source 'constant' needs a finite value, got {}").where(
    lambda a: abs(a) > ZERO_THRESHOLD, f"alpha.value {{!r}} is a zero channel gain (|alpha| <= {ZERO_THRESHOLD:g})"
)
_estimator_T = _number.where(_positive, "estimator window length must be positive, got T={}")
_multiplicity = _count.where(lambda k: k in (1, 2), "pole multiplicity must be 1 or 2")
_control_mode = _tag.where(lambda mode: mode in ("closed-loop", "feedforward"), "unknown control mode {!r}")
_noise_std = _number.where(lambda std: 0.0 <= std < math.inf, "noise std must be finite and non-negative, got {}")
_noise_seed = _count.where(lambda seed: seed >= 0, "noise seed must be non-negative, got {}")
_rms_fraction = _number.where(lambda f: 0.0 < f <= 1.0, "rms threshold fraction must be in (0, 1], got {}")
_ultralocal_order = _count.where(lambda k: k in (1, 2), "ultralocal plant order must be 1 or 2, got {}")
_ultralocal_gain = _number.where(lambda gain: gain != 0.0, "ultralocal plant gain must be nonzero")


@dataclass(frozen=True)
class Timing:
    """Horizon and sampling of a run: the grid ``k*h`` for ``k = 0..n_steps``, each point one product
    rather than a running sum, so bit-reproducible and free of drift."""

    duration: float = _key("duration", rule=_number.where(_positive, "duration must be positive, got {}"))
    h: float = _key("h", rule=_number.where(_positive, "sampling period must be positive, got {}"))
    n_steps: int = field(init=False, repr=False, compare=False)  # duration / h, set at construction

    def __post_init__(self):
        _type_fields(self)
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
    order: int | None = _key("order", rule=_channel_order, default=None)
    alpha_source: str = _key("alpha", "source", rule=_alpha_source, default="derived")
    alpha_value: float | None = _key("alpha", "value", rule=_alpha_value, default=None)
    estimator_T: float = _key("estimator", "T", rule=_estimator_T, default=0.3)
    # required: the default only lets it follow the defaulted fields
    pole: float | None = _key("pole", "value", rule=_pole, required=True, default=None)
    pole_multiplicity: int | None = _key("pole", "multiplicity", rule=_multiplicity, default=None)  # None: the order
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
        if self.alpha_source != "constant" and self.alpha_value is not None:
            raise ConfigurationError(
                f"alpha.value is read by source 'constant' only, got value {self.alpha_value!r} "
                f"with source {self.alpha_source!r}"
            )
        if self.alpha_source == "constant" and self.alpha_value is None:
            raise ConfigurationError("alpha source 'constant' needs a finite value, got None")
        if self.alpha_source != "derived" and self.order is None:
            raise ConfigurationError(
                "channel order must be given explicitly unless alpha is derived"
            )


@dataclass(frozen=True)
class Scenario:
    """Complete, serialisable description of one simulation run.  Made from a file or in Python, it looks its
    plant up in ``PLANTS`` and loads the plant's parameters and each reference by the schema when it is built."""

    name: str = _key("name", rule=_tag)
    plant: str = _key("plant", "name", rule=_tag)
    timing: Timing = _key("timing", rule=_Object(Timing))
    references: tuple[dict, ...] = _key("references", rule=_List(_json_object))
    channels: tuple[ChannelSpec, ...] = _key("channels", rule=_List(_Object(ChannelSpec)))
    mismatch: MismatchSpec | None = _key(  # None: every output starts unscaled
        "mismatch", rule=_Object(MismatchSpec, _plain("output_scaling", kind=_List(_number))), default=None
    )
    plant_params: dict = _key("plant", "params", rule=_json_object, default_factory=dict)
    control_mode: str = _key("control_mode", rule=_control_mode, default="closed-loop")
    noise_std: float = _key("noise", "std", rule=_noise_std, default=0.0)
    noise_seed: int = _key("noise", "seed", rule=_noise_seed, default=0)
    rms_fraction: float = _key("metrics", "rms_fraction", rule=_rms_fraction, default=0.01)

    def __post_init__(self):
        _type_fields(self)
        object.__setattr__(self, "plant_params", _plant(self.plant)[1].load(self.plant_params, "plant.params"))
        refs = tuple(_REFERENCE.load(spec, f"references[{i}]") for i, spec in enumerate(self.references))
        object.__setattr__(self, "references", refs)
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


# --------------------------------------------------------------------------
# registries


def _build_reference(spec: dict) -> ReferenceTrajectory:
    if spec["type"] == "constant":
        return make_constant(spec["value"])
    return make_smoothstep(spec["from"], spec["to"], spec["t_start"], spec["t_end"])


def _ultralocal_plant(params: dict):
    order = _ultralocal_order.typed(params.get("order", 1), "order")
    drift = params.get("f", 0.0)
    gain = _ultralocal_gain.typed(params.get("gain", 1.0), "gain")
    rates = ("x1",)[: order - 1] + ("drift + gain * u0",)  # a chain of integrators: x = (y, y') to its order
    model = _rated_plant(rates, 1, 1, lambda x: (x[0],), drift=drift, gain=gain)
    relation, _ = _flat_inversion((order,), 0, lambda table: table[0, order], lambda table: gain)
    return model, ((0, 0), (0, 1))[:order], (relation,), (), {}


def _benchmark_2x2_plant(params: dict):
    formulas = (_alpha_ref0_squared, _alpha_ref0_rate_ratio)
    (e1, u1), (e2, u2), (_, u2_miscoeff) = _BENCHMARK_INVERSIONS
    # the flat inversions of this plant; u2 also with miscalibrated coefficients
    nominals = {"flat-u1": u1, "flat-u2": u2, "flat-u2-miscoeff": u2_miscoeff}
    return example_plant(), ((0, 0), (1, 0), (1, 1), (1, 2)), (e1, e2), formulas, nominals  # x = (y1, y2, y2', y2'')


#: the benchmark's (relation, feedforward) per control, then u2's with miscalibrated coefficients
_BENCHMARK_INVERSIONS = (*_benchmark_inversions(), _benchmark_inversions(1.1, 0.9)[1])


#: plant name -> (factory(params) -> (model, state, relations, formulas, nominals), the ``params`` object,
#: whose absent keys take the factory's defaults).  A ``Scenario`` looks its plant up here when it is built
#: and loads its ``plant_params`` by that object, so a plant registered after import is read from a file too.
#: ``state[i] == (l, k)`` states that state i is the k-th derivative of flat output l: a run starts it on
#: reference l's k-th derivative at t = 0, times output l's mismatch scaling when k = 0, and the loop reads
#: output l as its ``(l, 0)`` state, which every output must have and the model's ``output`` must read.
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


def _plant(name: str) -> tuple[Callable, _Object]:
    """``PLANTS[name]``, or ConfigurationError naming the registered plants."""
    if name not in PLANTS:
        raise ConfigurationError(f"plant.name: unknown plant {name!r}; registered: {sorted(PLANTS)}")
    return PLANTS[name]


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
    outputs: tuple[int, ...]  # the plant's state that output l is, its declared (l, 0)


def _registered(entries, key, what: str, plant: str):
    """``entries[key]``: a plant's relation or formula alpha (by channel) or feedforward (by tag)."""
    try:
        return entries[key]
    except LookupError:
        named = f" {key!r}; registered: {sorted(entries)}" if isinstance(entries, dict) else ""
        raise ConfigurationError(f"plant {plant!r} registers no {what}{named}") from None


def validate_scenario(scenario: Scenario) -> _Built:
    """Build every part of the scenario without running it; :func:`run_scenario` takes the result.  The
    scenario checked its plant, plant parameters and references when it was made: this loads none again."""
    model, state, relations, formulas, nominals = _plant(scenario.plant)[0](scenario.plant_params)
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
    refs = tuple(map(_build_reference, scenario.references))
    horizon = (0.0, timing.n_steps * timing.h)
    probe = None  # every derived channel's probe times and table of refs, as deep as the plant's relations read

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
                derived = _derive(relation, refs, horizon, spec.order, spec.output, nominal, probe, relations)
                _, order, alpha, probe = derived
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
            _window_scale(order, w * h)
            sat = spec.saturation or (-math.inf, math.inf)
            channels.append(_Channel(spec.output, order, alpha, nominal, gains.k_p, gains.k_d, sat, w))
        except HeolError as exc:
            raise type(exc)(f"channel {j + 1}: {exc}") from None

    if len(state) != model.n_states:  # the declaration is checked before x0 reads reference l of each (l, k)
        raise ConfigurationError(f"initial state has shape ({len(state)},), plant needs ({model.n_states},)")
    for l, k in state:
        if not 0 <= l < model.n_outputs:
            raise ConfigurationError(f"plant {scenario.plant!r}: its state (l, k) = ({l}, {k}) in {state} names "
                                     f"output {l}, but the plant has n_outputs={model.n_outputs}")
    at = [float(i) for i in range(1, model.n_states + 1)]  # distinct, so each output shows the state it reads
    read = list(model.output(at))
    for l in range(max(model.n_outputs, len(read))):
        if (l, 0) not in state or read[l : l + 1] != [at[state.index((l, 0))]]:
            raise ConfigurationError(f"plant {scenario.plant!r}: output {l} is not its declared state (l, k) = "
                                     f"({l}, 0) in {state}: at x = {at}, its output reads {read}")
    x0 = np.array([(mismatch.output_scaling[l] if k == 0 else 1.0) * refs[l].eval(0.0, k) for l, k in state])
    if not all(abs(v) <= TRUST_REGION for v in x0.tolist()):  # also rejects inf and NaN
        raise ConfigurationError(
            f"initial state {x0.tolist()} is outside the trust region |x| <= {TRUST_REGION:g}"
        )
    return _Built(scenario, model, refs, channels, x0, tuple(state.index((l, 0)) for l in range(model.n_outputs)))


# --------------------------------------------------------------------------
# simulation


@dataclass
class SimLog:
    """Per-grid-point record arrays of one run; ``dy`` and ``du`` are not stored but subtracted on each read, the
    same IEEE subtraction of the same doubles as the loop's.  ``y_ref`` and ``u_nom`` view one ``(N, p + m)`` table
    that holds nothing else."""

    channel_T: tuple[float, ...]
    t: np.ndarray
    y: np.ndarray        # (N, p) measured outputs
    y_ref: np.ndarray    # (N, p)
    u: np.ndarray        # (N, m) applied controls
    u_nom: np.ndarray    # (N, m) applied feedforward samples
    f_est: np.ndarray    # (N, m)
    f_valid: np.ndarray  # (N, m) bool
    clamped: np.ndarray  # (N, m) bool

    dy = property(lambda self: _difference(self.y, self.y_ref), doc="(N, p) y - y_ref, computed on each read")
    du = property(lambda self: _difference(self.u, self.u_nom), doc="(N, m) applied feedback corrections u - u_nom")

    @property
    def n_outputs(self) -> int:
        return self.y.shape[1]

    @property
    def n_controls(self) -> int:
        return self.u.shape[1]


def _difference(a, b):
    """``a - b`` elementwise, silent as the loop's Python floats are where it overflows or meets ``inf - inf``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a - b


def _tabulate(channels: list[_Channel], feedback: bool, times: np.ndarray, h: float, tables, nominals, alphas):
    """Column j of ``nominals``: channel j's feedforward at ``times + h/2`` (mid-hold, removing the hold's phase
    bias); column j of ``alphas``: its alpha at ``times``; both in their first ``len(times)`` rows, off ``tables``,
    the reference tables at those times (or longer).  The feedforward is probed at ``times`` first, so a flatness
    singularity at t surfaces as such, not as a zero gain, and a derived alpha takes that probe as its u.  Errors
    name ``times[-1]``."""
    at, mid = (table[..., : len(times)] for table in tables)
    for j, ch in enumerate(channels):
        try:
            u = ch.nominal(at, times)
            nominals[: len(times), j] = ch.nominal(mid, times + 0.5 * h)
            alphas[: len(times), j] = a = ch.alpha(at, times, u)
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
    """``run_scenario``'s run, stepped by the caller: the log before the first sample, then each chunk's end
    row once every row before it is final.  A process forked at the first yield reads those rows.  The log's
    ``y_ref`` and ``u_nom`` view ``table`` and its other floats the shared mapping (``dy`` and ``du`` are read off
    both); it keeps no view of ``extra``, the columns the loop reads and the log does not: alpha, the noise and the
    filter's dt and lp."""
    model, channels = built.model, built.channels
    feedback = built.scenario.control_mode == "closed-loop"
    grid = built.scenario.timing
    n_pts, p, m = grid.n_points, model.n_outputs, model.n_controls
    h = grid.h

    # y_ref | u_nom (the table the log keeps) and each channel's alpha on the whole grid, read off a reference table
    # at the grid times and one at mid-hold; the lowest channel at the first bad t fails the run.
    times = grid.times()
    table, alphas = np.empty((n_pts, p + m)), np.empty((n_pts, m))
    tables = [build_reference_table(built.references, ts) for ts in (times, times + 0.5 * h)]
    table[:, :p] = tables[0][:, 0].T
    _at_first_failure(lambda ts: _tabulate(channels, feedback, ts, h, tables, table[:, p:], alphas), times)
    del tables  # before the loop's allocations

    # Every per-sample column the log drops, in one array: alpha, each output's noise, then, if a channel has order 2,
    # its filter's step dt = t_k - t_(k-1) and gain lp = dt / (tau_f + dt), tau_f = 5h, in the loop's float operations.
    noisy, order2 = (std := built.scenario.noise_std) > 0.0, any(ch.order == 2 for ch in channels)
    extra = np.empty((n_pts, m + p * noisy + 2 * order2))
    extra[:, :m] = alphas
    del alphas
    if noisy:
        with np.errstate(over="ignore"):
            extra[:, m : m + p] = std * np.random.default_rng(built.scenario.noise_seed).standard_normal((n_pts, p))
        if not np.isfinite(extra[:, m : m + p]).all():
            raise DivergenceError(f"measurement noise with std {std:g} overflows the float range")
    if order2:  # in place: t_(k-1) is the grid's (k - 1) * h, and the unread row 0 takes t_(-1) = -h
        dt, lp = extra[:, -2], extra[:, -1]
        np.subtract(times[1:], times[:-1], out=dt[1:])
        dt[0] = h
        np.divide(dt, np.add(dt, 5.0 * h, out=lp), out=lp)

    # One shared mapping holds every per-sample column, a float row y | u | F_est per sample, then the clamp
    # flags, a byte per row and channel; the loop writes all of a chunk's rows before its yield.
    r, at = p + 2 * m, n_pts * (p + 2 * m) * 8  # the floats per row, the flags' first byte
    shared = mmap.mmap(-1, at + n_pts * m)
    log = np.frombuffer(shared, dtype=float, count=at // 8).reshape(n_pts, r)

    # Each channel's history holds dy at 2k and alpha*Du at 2k + 1, so the estimator window ending at sample k is
    # row k - w of one strided view of it, and an estimate one dot (a window longer than the run has neither view
    # nor weights: it never estimates).  ``_loop`` compiles the loop per structure; per-run values are its arguments.
    rates = getattr(model.f, "rates", None)
    params = model.f.params if rates else {"f": model.f}  # a Python f is called at each stage
    plant, structure, values = (rates, tuple(params), built.outputs, model.n_states), [], [*params.values()]
    for ch in channels:
        hist, saturated = np.zeros(2 * n_pts), ch.saturation != (-math.inf, math.inf)
        windows = sliding_window_view(hist, 2 * ch.w + 2)[::2] if ch.w < n_pts else None
        structure.append((ch.output, ch.order == 2, saturated))
        values += [ch.k_p, *[ch.k_d][: ch.order - 1], *ch.saturation[: 2 * saturated], ch.w, memoryview(hist),
                   windows, FusedEstimator(ch.order, ch.w * h, ch.w)._dot if ch.w < n_pts else None]
    loop = _loop(p, tuple(structure), feedback, noisy, plant)

    simlog = SimLog(
        channel_T=tuple(ch.w * h for ch in channels),
        t=times,
        y=log[:, :p],
        y_ref=table[:, :p],
        u=log[:, p : p + m],
        u_nom=table[:, p : p + m],
        f_est=log[:, p + m :],
        f_valid=np.arange(n_pts)[:, None] >= np.array([ch.w for ch in channels]),
        clamped=np.frombuffer(shared, dtype=bool, offset=at).reshape(n_pts, m),
    )
    yield simlog

    # numpy is read and written once per chunk
    for k0, k1, records, clamps in loop(h, table, extra, model, built.x0.tolist(), *values):
        log[k0:k1] = np.fromiter(records, float, (k1 - k0) * r).reshape(k1 - k0, r)
        if clamps:  # else no channel saturates, and the mapping's zero bytes stand
            shared[at + k0 * m : at + k1 * m] = bytes(clamps)
        yield k1


@functools.cache
def _loop(p: int, channels: tuple, feedback: bool, noisy: bool, plant: tuple) -> Callable:
    """``loop(h, table, extra, model, x, *values)``, compiled once per structure: ``p`` outputs, each channel's
    ``(output, order == 2, saturated)``, feedback or not, noise or not, and ``plant``: its ``(rates, parameter names,
    each output's state, n_states)``, whose one parameter is ``f`` if it has no rates.  ``values`` holds those
    parameters, then per channel ``k_p``, ``k_d`` at order 2, the bounds if saturated, ``w``, the history's
    memoryview, its windows (row ``k - w`` ends at sample k) and the dot.  Per chunk it reads the rows of ``table``
    (y_ref | u_nom) and of ``extra`` (alpha, each output's noise if noisy, then the filter's dt and lp if a channel has
    order 2) as one list, and yields ``(k0, k1, records, clamps)``: the rows' y | u | F_est as one flat list (the log
    reads dy and du off y and u), and their clamp flags if a channel saturates.  Each line of the source ends with
    its layer's tag (rows, measure, estimate, law, clamp, history, record, step or trust), and linecache holds the
    source under a file name unique to the structure, so a traceback shows the line and opcodes count per layer.

    Each sample, channels unrolled: read the outputs (plus noise), filter dy's backward difference at order 2, estimate
    F once the window is full (its alpha*Du slot at k is still zero, so the estimate never reads the control applied at
    t_k), apply the iP/iPD law du = -(F_est + k_p dy [+ k_d ddy]) / alpha unchecked (``_tabulate`` checked alpha),
    clamp, then step the plant under zero-order hold by ``_rk4``'s stages inline on the locals ``x0..`` (retaking
    the step by ``rk4_step`` names a Python ``f``'s wrong count), binding ``t = k * h`` only if a stage reads it.  One
    check per step stands for the finiteness check and the trust region: ``-TRUST_REGION <= x_i <= TRUST_REGION`` for
    every i, which NaN fails too.  A feedforward run keeps ``u = u_nom + 0.0``, so a ``-0.0`` feedforward logs ``+0.0``.
    """
    m, order2 = len(channels), [j for j, (_, second, _) in enumerate(channels) if second]
    tag = lambda layer, lines: [f"{line}  # {layer}".replace("\n", f"  # {layer}\n") for line in lines]

    (rates, parameters, outputs, n), control, flags = plant, [], []
    stages, new = _rk4(rates, n)
    params, x = "".join(", " + name for name in parameters), f"[{_names('x', n)}]"
    measure = tag("measure", [f"y{o} = x{i} + z{o}" for o, i in enumerate(outputs)] if noisy else [])
    y = [f"y{o}" if noisy else f"x{i}" for o, i in enumerate(outputs)]  # output o, off its state
    if rates is None:  # a Python f may return the wrong count of rates
        stages = [_block("try:", f"u = [{_names('u', m)}]", *stages),
                  _block("except ValueError:", f"rk4_step(model, t, {x}, u, h)", "raise")]
    timed = any(re.search(r"\bt\b", line) for line in stages)  # a Python f, or a rate reading t
    step = tag("step", ["t = k * h"] * timed + [*stages, f"{_names('x', n)} = {', '.join(new)}"])
    for j, (out, second, saturated) in enumerate(channels):
        params += f", k_p{j}" + f", k_d{j}" * second + f", lo{j}, hi{j}" * saturated + f", w{j}, hv{j}, win{j}, dot{j}"
        measure += tag("measure", [f"dy{j} = {y[out]} - ref{out}"]) + tag("history", [f"hv{j}[i] = dy{j}"])
        law = f"-(f{j} + k_p{j} * dy{j}" + f" + k_d{j} * ddy{j}" * second + f") / a{j}" if feedback else "0.0"
        control += tag("estimate", [f"f{j} = float(dot{j}(win{j}[k - w{j}])) if k >= w{j} else 0.0"])
        control += tag("law", [f"u{j} = un{j} + {law}"])
        if saturated:
            control += tag("clamp", [f"c{j} = u{j} < lo{j} or u{j} > hi{j}",
                                     f"if c{j}: u{j} = lo{j} if u{j} < lo{j} else hi{j}"])
        control += tag("history", [f"hv{j}[i + 1] = a{j} * (u{j} - un{j})"])
        flags.append(f"c{j}" if saturated else "False")
    if order2:  # dy's backward difference over the last step, low-pass-filtered with time constant tau_f = 5h
        filtered = [f"ddy{j} += lp * ((dy{j} - last{j}) / dt - ddy{j})" for j in order2]
        measure += tag("measure", [_block("if k:", *filtered), *[f"last{j} = dy{j}" for j in order2]])
    control += tag("record", [f"records += ({', '.join(y)}, {_names('u', m)}, {_names('f', m)})"]
                   + [f"clamps += ({', '.join(flags)},)"] * (flags != ["False"] * m))
    columns = [_names("ref", p), _names("un", m), _names("a", m)] + [f"z{o}" for o in range(p * noisy)]
    rows = ", ".join(columns + ["dt", "lp"] * bool(order2))  # a row of table | extra
    inside = " and ".join(f"{-TRUST_REGION!r} <= x{i} <= {TRUST_REGION!r}" for i in range(n))
    step += tag("trust", [_block(f"if not ({inside}):", f"_finite({x}, k * h)",
                                 'raise DivergenceError("state left the trust region (|x| > %g) by t=%.6g" % '
                                 "(TRUST_REGION, (k + 1) * h))")])
    source = _block(
        f"def loop(h, table, extra, model, x{params}):  # rows",
        *tag("rows", ["half, h6 = 0.5 * h, h / 6.0", f"{x} = x", "n_pts = len(table)", "k_last = n_pts - 1"]),
        *tag("measure", [f"ddy{j} = last{j} = 0.0" for j in order2]),
        _block("for k0 in range(0, n_pts, _CSV_CHUNK):  # rows",
               "k1, records, clamps = min(k0 + _CSV_CHUNK, n_pts), [], []  # rows",
               _block(f"for k, [{rows}] in zip(range(k0, k1), "
                      "np.concatenate((table[k0:k1], extra[k0:k1]), axis=1).tolist()):  # rows",
                      "i = 2 * k  # history", *measure, *control, _block("if k < k_last:  # step", *step)),
               "yield k0, k1, records, clamps  # rows"),
    )
    namespace = {"_CSV_CHUNK": _CSV_CHUNK, "rk4_step": rk4_step, "_finite": _finite, "np": np,
                 "TRUST_REGION": TRUST_REGION, "DivergenceError": DivergenceError}
    name = f"<sample loop {(p, channels, feedback, noisy, plant)}>"
    linecache.cache[name] = len(source), None, source.splitlines(True), name
    exec(compile(source, name, "exec"), namespace)
    return namespace["loop"]


# --------------------------------------------------------------------------
# metrics & export


@dataclass(frozen=True)
class Metrics:
    """Headline numbers of one run, declared in the order ``export_metrics`` writes them.

    ``rms_tail_dy`` is the RMS tracking error per output over the final 20 %
    of the records — the settled portion of the bundled scenarios.
    ``ref_range`` (max - min of each reference over the horizon) provides the
    scale against which that RMS is judged.  A tuple holds one number per
    output, or per channel for ``warmup_T``.
    """

    n_records: int
    tail_records: int
    rms_fraction: float
    rms_tail_dy: tuple[float, ...]
    max_abs_dy: tuple[float, ...]
    max_abs_du: tuple[float, ...]
    ref_range: tuple[float, ...]
    warmup_T: tuple[float, ...]


def compute_metrics(log: SimLog, rms_fraction: float = 0.01) -> Metrics:
    n = len(log.t)
    if n == 0:
        raise ConfigurationError("cannot compute metrics of an empty log")
    tail = max(1, int(round(0.2 * n)))
    dy = log.dy
    # Per column: max and ptp of a strided (N, p) view along axis 0 cost ten times as much, for the same values.
    # The mean stays an axis-0 reduction, because the bits of its pairwise sum can depend on the layout.
    return Metrics(
        n_records=n,
        tail_records=tail,
        rms_tail_dy=tuple(np.sqrt(np.mean(dy[n - tail :] ** 2, axis=0))),
        max_abs_dy=tuple(np.max(np.abs(column)) for column in dy.T),
        max_abs_du=tuple(np.max(np.abs(column)) for column in log.du.T),
        ref_range=tuple(np.ptp(column) for column in log.y_ref.T),
        warmup_T=log.channel_T,
        rms_fraction=_rms_fraction.typed(rms_fraction, "rms_fraction"),
    )


#: rows the loop writes at once, and ``export_csv`` formats and writes at once, which bounds its extra memory;
#: ``heol run``'s helper holds every chunk's text until the loop ends (3.6 MB on paper-sec4)
_CSV_CHUNK = 256


def _csv_layout(log: SimLog) -> tuple[list[tuple[np.ndarray, ...]], str, bytes]:
    """The CSV columns of ``log`` in file order, the format of one row and the header line.  A column is a tuple:
    a stored column or, for ``dy`` and ``du``, the two that ``_csv_chunk`` subtracts per chunk."""

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
    stored = {"dy": ("y", "y_ref"), "du": ("u", "u_nom")}
    columns = [tuple(getattr(log, g) if i is None else getattr(log, g)[:, i] for g in stored.get(f, (f,)))
               for _, f, i in layout]
    row = ",".join("%d" if c.dtype == bool else "%.17g" for c, *_ in columns) + "\n"
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

    A ``dy`` or ``du`` column is subtracted here, so a helper forked before the run reads it once the loop wrote the
    chunk.  A float64 or bool column whose rows here hold one bit pattern is formatted once, into the chunk's copy of
    ``row``; only the other columns are stacked and formatted per row.  Equal bits give equal text (``-0.0`` never
    joins a run of ``0.0``), so the bytes are those of formatting every field.
    """
    fields, varying = row[:-1].split(","), []
    with np.errstate(over="ignore", invalid="ignore"):  # once per chunk, for ``_difference``'s silent subtraction
        for i, (c, *minus) in enumerate(columns):
            seg = c[k : k + _CSV_CHUNK]
            if minus:  # a dy or du column
                seg = seg - minus[0][k : k + _CSV_CHUNK]
            if (view := _CSV_BITS.get(seg.dtype)) is not None:
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
    first sample, to format every chunk once the loop announces it finished, by a byte down a pipe."""

    def ready(k):  # in a run's helper: wait for the byte that ends the chunk at k (EOF: the run failed)
        if not chunks.read(1):
            raise EOFError(f"the run ended before row {k}")

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
            for _ in steps or ():
                if helper:
                    announce.write(b"\x01")
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
    """Write metrics as a flat text file: one ``key = value`` line per number, in ``Metrics``' field order, a tuple
    field's numbers keyed ``key1``, ``key2``, …, each number with 17 significant digits as in the CSV."""
    path = Path(destination)
    lines = []
    for f in fields(metrics):
        value = getattr(metrics, f.name)
        if isinstance(value, tuple):
            lines += ["%s%d = %.17g" % (f.name, i, v) for i, v in enumerate(value, 1)]
        else:
            lines.append("%s = %.17g" % (f.name, value))
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ExportError(f"failed to write {path}: {exc}") from exc
    return path


# --------------------------------------------------------------------------
# (de)serialisation

_SCENARIO = _Object(Scenario)


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
