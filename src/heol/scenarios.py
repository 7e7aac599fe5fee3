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

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .controllers import gains_from_poles
from .errors import (
    ConfigurationError,
    DivergenceError,
    ExportError,
    HeolError,
)
from .estimators import FusedEstimator, _kernel_scale
from .homeostat import (
    ZERO_THRESHOLD,
    ImplicitFlatRelation,
    _at_first_failure,
    _nonzero,
    _refuse,
    derive_channel,
    nominal_u1,
    nominal_u2,
)
from .plant import (
    MismatchSpec,
    PlantModel,
    TRUST_REGION,
    _check_lengths,
    _finite,
    _kernel,
    _rated_plant,
    benchmark_relations,
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

    duration: float
    h: float
    n_steps: int = field(init=False, repr=False, compare=False)  # duration / h, set at construction

    def __post_init__(self):
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

    output: int
    order: int | None = None
    alpha_source: str = "derived"          # "derived" | "formula" | "constant"
    alpha_value: float | None = None
    estimator_T: float = 0.3
    pole: float | None = None  # required: the default only lets it follow the defaulted fields
    pole_multiplicity: int | None = None  # None: the channel order sets it
    nominal: str = "zero"
    saturation: tuple[float, float] | None = None

    def __post_init__(self):
        if self.pole is None:
            raise ConfigurationError("channel needs a pole")
        # the schema's number rules, for a spec built in Python rather than loaded
        for name, kind in (("output", _count), ("order", _count), ("pole", _number)):
            if (value := getattr(self, name)) is not None:
                object.__setattr__(self, name, kind.load(value, name))
        if (sat := self.saturation) is not None:
            sat = tuple(_number.load(v, f"saturation[{i}]") for i, v in enumerate(sat))
            if not (len(sat) == 2 and sat[0] < sat[1]):
                raise ConfigurationError(
                    f"saturation needs (u_min, u_max) with u_min < u_max, got {self.saturation}"
                )
            object.__setattr__(self, "saturation", sat)
        # a value other than a float is loaded by the same rule; a NaN, inf or non-positive float fails below
        if not (self.alpha_value is None or isinstance(self.alpha_value, float)):
            object.__setattr__(self, "alpha_value", _number.load(self.alpha_value, "alpha_value"))
        if not isinstance(self.estimator_T, float):
            object.__setattr__(self, "estimator_T", _number.load(self.estimator_T, "estimator_T"))
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


@dataclass(frozen=True)
class Scenario:
    """Complete, serialisable description of one simulation run."""

    name: str
    plant: str
    timing: Timing
    references: tuple[dict, ...]
    channels: tuple[ChannelSpec, ...]
    mismatch: MismatchSpec | None = None  # None: every output starts unscaled
    plant_params: dict = field(default_factory=dict)
    control_mode: str = "closed-loop"
    noise_std: float = 0.0
    noise_seed: int = 0
    rms_fraction: float = 0.01

    def __post_init__(self):
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
# scenario-file schema
#
# Each JSON object declares its keys once as ``(key, attribute, kind,
# default)``, walked by both ``scenario_from_dict`` and ``scenario_to_dict``.
# The default is the value an absent key stands for, ``None`` (left unset)
# or ``_REQUIRED``.  A group (attribute ``None``) is a sub-object whose
# keys are attributes of the enclosing dataclass.  ``#`` keys are comments at
# every depth; any other unknown key is an error.

_REQUIRED = object()


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _get(value, attr):
    return value.get(attr) if isinstance(value, dict) else getattr(value, attr)


class _Leaf:
    """A JSON scalar checked by ``load(value, path)``."""

    dump = staticmethod(lambda value: value)

    def __init__(self, load):
        self.load = load


@_Leaf
def _number(value, path: str) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigurationError(f"{path} must be a finite number, got {value!r}")


@_Leaf
def _count(value, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigurationError(f"{path} must be an integer, got {value!r}")


def _typed(kind: type, what: str) -> _Leaf:
    def load(value, path: str):
        if not isinstance(value, kind):
            raise ConfigurationError(f"{path} must be {what}, got {value!r}")
        return value

    return _Leaf(load)


_tag = _typed(str, "a string")


class _List:
    """A JSON array of one kind, loaded as a tuple."""

    def __init__(self, item):
        self.item = item

    def load(self, value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigurationError(f"{path} must be a JSON array, got {value!r}")
        return tuple(self.item.load(v, f"{path}[{i}]") for i, v in enumerate(value))

    def dump(self, value) -> list:
        return [self.item.dump(v) for v in value]


class _Object:
    """A JSON object: its declared keys, built with ``make`` (``None`` for a group)."""

    def __init__(self, make, fields):
        self.make = make
        self.fields = fields
        self.keys = frozenset(key for key, *_ in fields)

    def load(self, value, path: str):
        if not isinstance(value, dict):
            raise ConfigurationError(f"{path or 'scenario'} must be a JSON object, got {value!r}")
        for key in value:
            if key not in self.keys and not (isinstance(key, str) and key.startswith("#")):
                raise ConfigurationError(f"unknown key {_at(path, key)}")
        kwargs = {}
        for key, attr, kind, default in self.fields:
            if key in value:
                loaded = kind.load(value[key], _at(path, key))
            elif default is _REQUIRED:
                raise ConfigurationError(f"missing key {_at(path, key)}")
            elif default is None:
                continue
            else:
                loaded = default
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
        for key, attr, kind, default in self.fields:
            v = value if attr is None else _get(value, attr)
            if v is not None and (v := kind.dump(v)) not in (default, {}):
                out[key] = v
        return out


class _Union:
    """One of several objects, picked by the string under ``key`` (``attr`` once loaded)."""

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
    """Fields whose attribute is the JSON key itself."""
    return [(key, key, kind, default) for key in keys]


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
    residual = lambda table, u: table[0, order] - gain * u
    relation = ImplicitFlatRelation(orders=(order,), control_index=0, residual=residual)
    return model, init, (relation,), (), {}


def _benchmark_2x2_plant(params: dict):
    formulas = (_alpha_ref0_squared, _alpha_ref0_rate_ratio)
    nominals = {  # the flat inversions of this plant; u2 also with miscalibrated coefficients
        "flat-u1": lambda refs: (lambda t: nominal_u1(refs[0], t)),
        "flat-u2": lambda refs: (lambda t: nominal_u2(refs[0], refs[1], t)),
        "flat-u2-miscoeff": lambda refs: (lambda t: nominal_u2(refs[0], refs[1], t, 1.1, 0.9)),
    }
    return example_plant(), initial_state, benchmark_relations(), formulas, nominals


#: plant name -> (factory(params) -> (model, init_state(refs, mismatch), relations, formulas,
#: nominals), the ``params`` object, whose absent keys take the factory's defaults).
#: ``relations[j]`` is channel j's implicit relation and ``formulas[j]`` the closed form of its
#: gain, and ``nominals[tag]`` the feedforward this plant registers under ``tag``; both are
#: factories refs -> f(t) taking a float or an array of times.  ``zero`` works on every plant.
PLANTS: dict[str, tuple[Callable, _Object]] = {
    "flat-benchmark-2x2": (_benchmark_2x2_plant, _Object(dict, [])),
    "ultralocal": (
        _ultralocal_plant,
        _Object(dict, _plain("order", kind=_count, default=None) + _plain("f", "gain", default=None)),
    ),
}

#: the feedforward tag every plant registers, and the schema default
_ZERO = {"zero": lambda refs: (lambda t: 0.0)}


# the benchmark's closed-form gains: alpha1 = y1*^2 and, at order 2, alpha2 = y1*'/y1* - 1
def _alpha_ref0_squared(refs):
    ref = refs[0]
    # float_power rounds as float ** 2 does; y * y and np.power differ in the last bit
    return lambda t: np.float_power(ref.eval(t, 0), 2.0)


def _alpha_ref0_rate_ratio(refs):
    ref = refs[0]

    def alpha(t):
        y = _nonzero(ref.eval(t, 0), t, "alpha formula divides by y1*={value!r} at t={t:.6g}")
        return ref.eval(t, 1) / y - 1.0

    return alpha


# --------------------------------------------------------------------------
# build & validate


@dataclass(frozen=True)
class _Channel:
    """One built channel, as the grid tabulation and the loop read it."""

    output: int
    order: int
    alpha: Callable  # alpha(t), at a float or an array of times
    nominal: Callable  # the feedforward u_nom(t), likewise
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
    """``entries[key]`` of a plant's ``relations`` or ``formulas`` (by channel) or ``nominals`` (by tag)."""
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

    channels, seen_outputs = [], set()
    for j, spec in enumerate(scenario.channels):
        try:
            if not 0 <= spec.output < model.n_outputs:
                raise ConfigurationError(f"output index {spec.output} out of range")
            if spec.output in seen_outputs:  # leaves another output unregulated
                raise ConfigurationError(f"two channels regulate output {spec.output}")
            seen_outputs.add(spec.output)
            nominal = _registered(nominals, spec.nominal, "nominal control", scenario.plant)(refs)

            order = spec.order
            if spec.alpha_source == "derived":
                derived = derive_channel(
                    _registered(relations, j, "relation", scenario.plant),
                    refs,
                    horizon,
                    order_override=spec.order,
                    output_index=spec.output,
                    nominal_control=nominal,
                )
                order, alpha = derived.order, derived.alpha
            elif spec.alpha_source == "formula":
                alpha = _registered(formulas, j, "formula alpha", scenario.plant)(refs)
            else:
                alpha = lambda t, _v=spec.alpha_value: np.full(np.shape(t), _v)
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


def _tabulate(channels: list[_Channel], feedback: bool, times: np.ndarray, h: float, out: np.ndarray):
    """Column j of ``out``: channel j's feedforward at ``times + h/2`` (mid-hold, removing the hold's
    phase bias); column m + j: its alpha at ``times``.  The feedforward is probed at ``times`` first,
    so a flatness singularity at t surfaces as such, not as a zero gain.  Errors name ``times[-1]``."""
    m = len(channels)
    for j, ch in enumerate(channels):
        try:
            ch.nominal(times)
            out[:, j] = ch.nominal(times + 0.5 * h)
            out[:, m + j] = a = ch.alpha(times)
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
    built = scenario if isinstance(scenario, _Built) else validate_scenario(scenario)
    model, channels = built.model, built.channels
    feedback = built.scenario.control_mode == "closed-loop"
    grid = built.scenario.timing
    n_pts, p, m = grid.n_points, model.n_outputs, model.n_controls
    h = grid.h

    # One time-only table on the whole grid, y_ref | u_nom | alpha, read as one list per
    # sample; the lowest channel at the first bad t fails the run.
    times = grid.times()
    table = np.empty((n_pts, p + 2 * m))
    for i, ref in enumerate(built.references):
        table[:, i] = ref.eval(times, 0)
    _at_first_failure(lambda ts: _tabulate(channels, feedback, ts, h, table[: len(ts), p:]), times)

    noise = None
    if (std := built.scenario.noise_std) > 0.0:
        with np.errstate(over="ignore"):
            noise = std * np.random.default_rng(built.scenario.noise_seed).standard_normal((n_pts, p))
        if not np.isfinite(noise).all():
            raise DivergenceError(f"measurement noise with std {std:g} overflows the float range")

    # One record row per sample, y | u | du | F_est, written as one list.  The clamp
    # flags go to a bytearray read as the bool log after the run: as a float column
    # of ``log`` they would stay alive behind the views at 8 bytes each.
    log = np.empty((n_pts, p + 3 * m))
    record = [0.0] * (p + 3 * m)
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

    x = built.x0.tolist()
    for k in range(n_pts):
        t, i = k * h, 2 * k  # i: this sample's dy slot in every history
        y = output(x)
        if noise is not None:
            y = [a + b for a, b in zip(y, noise[k].tolist())]
        record[:p] = y
        row = table[k].tolist()
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
        log[k] = record

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

    y, u, du, f_est = log[:, :p], log[:, p : p + m], log[:, p + m : p + 2 * m], log[:, p + 2 * m :]
    return SimLog(
        channel_T=tuple(ch.w * h for ch in channels),
        t=times,
        y=y,
        y_ref=table[:, :p],
        u=u,
        u_nom=table[:, p : p + m],
        dy=y - table[:, :p],
        du=du,
        f_est=f_est,
        f_valid=np.arange(n_pts)[:, None] >= np.array([ch.w for ch in channels]),
        clamped=np.frombuffer(clamps, dtype=bool).reshape(n_pts, m),
    )


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


def _csv_layout(n_outputs: int, n_controls: int) -> list[tuple[str, str, int | None]]:
    """(column name, log field, column index) of every CSV column, in file order."""

    def block(n, *fields):  # (log field, name pattern) pairs, interleaved per index
        return [(name.format(i + 1), f, i) for i in range(n) for f, name in fields]

    return (
        [("t", "t", None)]
        + block(n_outputs, ("y", "y{}"), ("y_ref", "y{}_ref"))
        + block(n_controls, ("u", "u{}"), ("u_nom", "u{}_nom"))
        + block(n_outputs, ("dy", "dy{}"))
        + block(n_controls, ("du", "du{}"))
        + block(n_controls, ("f_est", "F{}_est"))
        + block(n_controls, ("f_valid", "F{}_valid"))
        + block(n_controls, ("clamped", "clamp{}"))
    )


def export_csv(log: SimLog, destination) -> Path:
    """Write the run log as CSV with full float precision (17 significant digits)."""
    path = Path(destination)
    layout = _csv_layout(log.n_outputs, log.n_controls)
    columns = [getattr(log, f) if i is None else getattr(log, f)[:, i] for _, f, i in layout]
    row = ",".join("%d" if c.dtype == bool else "%.17g" for c in columns) + "\n"
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(name for name, _, _ in layout) + "\n")
            for k in range(0, len(log.t), _CSV_CHUNK):
                chunk = np.column_stack([c[k : k + _CSV_CHUNK] for c in columns])
                fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))
    except OSError as exc:
        raise ExportError(f"failed to write {path}: {exc}") from exc
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


_REFERENCE = _Union("type", "type", "reference type", {
    "constant": _Object(dict, _plain("type", kind=_tag) + _plain("value")),
    "smoothstep": _Object(dict, _plain("type", kind=_tag) + _plain("from", "to", "t_start", "t_end")),
})

_PLANT = _Union("name", "plant", "plant", {
    name: _Object(None, [
        ("name", "plant", _tag, _REQUIRED),
        ("params", "plant_params", params, None),
    ])
    for name, (_, params) in PLANTS.items()
})

_CHANNEL = _Object(ChannelSpec, [
    ("output", "output", _count, _REQUIRED),
    ("order", "order", _count, None),
    ("alpha", None, _Object(None, [
        ("source", "alpha_source", _tag, "derived"),
        ("value", "alpha_value", _number, None),
    ]), None),
    ("estimator", None, _Object(None, [("T", "estimator_T", _number, 0.3)]), None),
    ("pole", None, _Object(None, [
        ("value", "pole", _number, _REQUIRED),
        ("multiplicity", "pole_multiplicity", _count, None),
    ]), _REQUIRED),
    ("nominal", "nominal", _tag, "zero"),
    ("saturation", "saturation", _List(_number), None),
])

_SCENARIO = _Object(Scenario, [
    ("name", "name", _tag, _REQUIRED),
    ("plant", None, _PLANT, _REQUIRED),
    ("timing", "timing", _Object(Timing, _plain("duration", "h")), _REQUIRED),
    ("references", "references", _List(_REFERENCE), _REQUIRED),
    ("channels", "channels", _List(_CHANNEL), _REQUIRED),
    ("mismatch", "mismatch", _Object(MismatchSpec, _plain("output_scaling", kind=_List(_number))), None),
    ("control_mode", "control_mode", _tag, "closed-loop"),
    ("noise", None, _Object(None, [
        ("std", "noise_std", _number, 0.0),
        ("seed", "noise_seed", _count, 0),
    ]), None),
    ("metrics", None, _Object(None, [("rms_fraction", "rms_fraction", _number, 0.01)]), None),
])


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
