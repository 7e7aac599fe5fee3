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

from .controllers import (
    ChannelController,
    Gains,
    _check_alpha,
    channel_step,
    gains_from_poles,
)
from .errors import (
    ConfigurationError,
    DivergenceError,
    EmptyLogError,
    ExportError,
    HeolError,
)
from .estimators import EstimatorConfig, FusedEstimator
from .homeostat import (
    HomeostatChannel,
    derive_channel,
    nominal_u1,
    nominal_u2,
)
from .plant import (
    MismatchSpec,
    PlantModel,
    TRUST_REGION,
    benchmark_relations,
    example_plant,
    initial_state,
    rk4_step,
)
from .signals import ReferenceTrajectory, TimeGrid, make_constant, make_smoothstep

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

#: Largest grid a run may have: the logs are preallocated, so 10**7 points
#: already take about a gigabyte; more is almost surely a mistyped ``h``.
MAX_GRID_POINTS = 10**7


@dataclass(frozen=True)
class Timing:
    """Horizon and sampling of a run."""

    duration: float
    h: float
    t0: float = 0.0
    substeps: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.duration) and self.duration > 0.0):
            raise ConfigurationError(f"duration must be positive, got {self.duration}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ConfigurationError(f"sampling period must be positive, got {self.h}")
        if self.substeps < 1:
            raise ConfigurationError(f"substep divisor must be >= 1, got {self.substeps}")

    def grid(self) -> TimeGrid:
        n = int(round(self.duration / self.h))
        if n + 1 > MAX_GRID_POINTS:
            raise ConfigurationError(
                f"duration {self.duration} at h={self.h} gives {n + 1} grid points; "
                f"at most {MAX_GRID_POINTS} are allowed"
            )
        if n < 1 or abs(n * self.h - self.duration) > 1e-9 * max(self.duration, self.h):
            raise ConfigurationError(
                f"duration {self.duration} is not a multiple of the sampling period {self.h}"
            )
        return TimeGrid(t0=self.t0, h=self.h, n_steps=n)


@dataclass(frozen=True)
class ChannelSpec:
    """Declarative description of one controller channel."""

    output: int
    order: int | None = None
    alpha_source: str = "derived"          # "derived" | "formula" | "constant"
    alpha_tag: str | None = None
    alpha_value: float | None = None
    estimator_T: float = 0.3
    estimator_rule: str = "simpson"
    k_p: float | None = None
    k_d: float | None = None
    pole: float | None = None
    pole_multiplicity: int = 1
    nominal: str = "zero"
    saturation: tuple[float, float] | None = None
    tau_f: float | None = None

    def __post_init__(self):
        if (self.k_p is None) == (self.pole is None):
            raise ConfigurationError(
                "channel needs exactly one of explicit gains (k_p[, k_d]) or a pole"
            )
        if self.alpha_source not in ("derived", "formula", "constant"):
            raise ConfigurationError(f"unknown alpha source {self.alpha_source!r}")
        if self.alpha_source == "formula" and self.alpha_tag is None:
            raise ConfigurationError("alpha source 'formula' needs an alpha tag")
        if self.alpha_source == "constant" and not (
            self.alpha_value is not None and math.isfinite(self.alpha_value)
        ):
            raise ConfigurationError(f"alpha source 'constant' needs a finite value, got {self.alpha_value}")
        if self.alpha_source != "derived" and self.order is None:
            raise ConfigurationError(
                "channel order must be given explicitly unless alpha is derived"
            )
        if self.pole is not None and self.pole_multiplicity not in (1, 2):
            raise ConfigurationError("pole multiplicity must be 1 or 2")


@dataclass(frozen=True)
class Scenario:
    """Complete, serialisable description of one simulation run."""

    name: str
    plant: str
    timing: Timing
    references: tuple[dict, ...]
    channels: tuple[ChannelSpec, ...]
    mismatch: MismatchSpec = MismatchSpec()
    plant_params: dict = field(default_factory=dict)
    control_mode: str = "closed-loop"
    allow_shared_outputs: bool = False
    noise_std: float = 0.0
    noise_seed: int = 0
    rms_fraction: float = 0.01

    def __post_init__(self):
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


def _build_reference(spec: dict) -> ReferenceTrajectory:
    kind = spec.get("type")
    if kind == "constant":
        return make_constant(float(spec["value"]))
    if kind == "smoothstep":
        return make_smoothstep(
            float(spec["from"]), float(spec["to"]), float(spec["t_start"]), float(spec["t_end"])
        )
    raise ConfigurationError(f"unknown reference type {kind!r}")


def _ultralocal_plant(params: dict):
    order = int(params.get("order", 1))
    drift = float(params.get("f", 0.0))
    gain = float(params.get("gain", 1.0))
    if order not in (1, 2):
        raise ConfigurationError(f"ultralocal plant order must be 1 or 2, got {order}")
    if gain == 0.0:
        raise ConfigurationError("ultralocal plant gain must be nonzero")

    if order == 1:

        def f(t, x, u):
            return np.array([drift + gain * u[0]])

        def output(x):
            return np.array([x[0]])

        def init(refs, mismatch, t0):
            return np.array([mismatch.output_scaling[0] * refs[0].eval(t0, 0)])

        model = PlantModel(1, 1, 1, f, output)
    else:

        def f(t, x, u):
            return np.array([x[1], drift + gain * u[0]])

        def output(x):
            return np.array([x[0]])

        def init(refs, mismatch, t0):
            return np.array([mismatch.output_scaling[0] * refs[0].eval(t0, 0), refs[0].eval(t0, 1)])

        model = PlantModel(2, 1, 1, f, output)

    from .homeostat import ImplicitFlatRelation

    relation = ImplicitFlatRelation(
        n_outputs=1,
        orders=(order,),
        control_index=0,
        residual=lambda table, u: table[0, order] - gain * u,
    )
    return model, init, (relation,)


def _benchmark_plant(params: dict):
    relations = benchmark_relations(analytic_partials=bool(params.get("analytic_partials", False)))
    return example_plant(), initial_state, relations


#: plant name -> factory(params) -> (model, init_state(refs, mismatch, t0), relations)
PLANTS: dict[str, Callable] = {
    "flat-benchmark-2x2": _benchmark_plant,
    "ultralocal": _ultralocal_plant,
}

#: feedforward formula tags
NOMINAL_CONTROLS: dict[str, Callable] = {
    "zero": lambda refs: (lambda t: 0.0),
    "flat-u1": lambda refs: (lambda t: nominal_u1(refs[0], t)),
    "flat-u2": lambda refs: (lambda t: nominal_u2(refs[0], refs[1], t)),
    "flat-u2-miscoeff": lambda refs: (lambda t: nominal_u2(refs[0], refs[1], t, 1.1, 0.9)),
}

#: mismatch tag -> nominal-tag replacements it induces
CONTROL_PERTURBATIONS: dict[str, dict[str, str]] = {
    "u2-coeff-1.1-0.9": {"flat-u2": "flat-u2-miscoeff"},
}


def _alpha_ref0_squared(refs):
    ref = refs[0]
    return lambda t: ref.eval(t, 0) ** 2


def _alpha_ref0_rate_ratio(refs):
    ref = refs[0]

    def alpha(t):
        y = ref.eval(t, 0)
        if abs(y) <= 1e-9:
            from .errors import SingularChannelError

            raise SingularChannelError(f"alpha formula divides by y1*={y!r} at t={t:.6g}")
        return ref.eval(t, 1) / y - 1.0

    return alpha


#: closed-form channel gain tags
ALPHA_FORMULAS: dict[str, Callable] = {
    "ref0-squared": _alpha_ref0_squared,
    "ref0-rate-ratio-minus-1": _alpha_ref0_rate_ratio,
}


# --------------------------------------------------------------------------
# build & validate


@dataclass
class _Built:
    model: PlantModel
    references: tuple[ReferenceTrajectory, ...]
    controllers: list[ChannelController]
    x0: np.ndarray
    grid: TimeGrid


def _build(scenario: Scenario) -> _Built:
    if scenario.plant not in PLANTS:
        raise ConfigurationError(
            f"unknown plant {scenario.plant!r}; registered: {sorted(PLANTS)}"
        )
    model, init_fn, relations = PLANTS[scenario.plant](scenario.plant_params)

    if len(scenario.references) != model.n_outputs:
        raise ConfigurationError(
            f"plant has {model.n_outputs} outputs but {len(scenario.references)} references given"
        )
    if len(scenario.channels) != model.n_controls:
        raise ConfigurationError(
            f"plant has {model.n_controls} controls but {len(scenario.channels)} channels given"
        )
    if len(scenario.mismatch.output_scaling) != model.n_outputs:
        raise ConfigurationError(
            f"mismatch carries {len(scenario.mismatch.output_scaling)} scaling factors "
            f"for {model.n_outputs} outputs"
        )

    grid = scenario.timing.grid()
    refs = tuple(_build_reference(spec) for spec in scenario.references)
    horizon = (grid.t0, grid.t(grid.n_steps))

    seen_outputs: set[int] = set()
    for spec in scenario.channels:
        if not 0 <= spec.output < model.n_outputs:
            raise ConfigurationError(f"channel output index {spec.output} out of range")
        if spec.output in seen_outputs and not scenario.allow_shared_outputs:
            # Sharing an output is almost always a config typo, but it can be
            # meant: the benchmark homeostat can be read with both channels
            # watching the first output.  ``allow_shared_outputs`` opts in.
            raise ConfigurationError(
                f"two channels regulate output {spec.output}; "
                "set allow_shared_outputs if this is intended"
            )
        seen_outputs.add(spec.output)

    perturb = {}
    if scenario.mismatch.control_perturbation is not None:
        tag = scenario.mismatch.control_perturbation
        if tag not in CONTROL_PERTURBATIONS:
            raise ConfigurationError(
                f"unknown control perturbation {tag!r}; registered: {sorted(CONTROL_PERTURBATIONS)}"
            )
        perturb = CONTROL_PERTURBATIONS[tag]

    controllers = []
    for j, spec in enumerate(scenario.channels):
        nominal_tag = perturb.get(spec.nominal, spec.nominal)
        if nominal_tag not in NOMINAL_CONTROLS:
            raise ConfigurationError(
                f"unknown nominal control {nominal_tag!r}; registered: {sorted(NOMINAL_CONTROLS)}"
            )
        nominal = NOMINAL_CONTROLS[nominal_tag](refs)

        if spec.alpha_source == "derived":
            if relations is None or j >= len(relations):
                raise ConfigurationError(
                    f"plant {scenario.plant!r} registers no relation for channel {j + 1}"
                )
            channel = derive_channel(
                relations[j],
                refs,
                horizon,
                order_override=spec.order,
                output_index=spec.output,
                nominal_control=nominal,
            )
        else:
            if spec.alpha_source == "formula":
                if spec.alpha_tag not in ALPHA_FORMULAS:
                    raise ConfigurationError(
                        f"unknown alpha formula {spec.alpha_tag!r}; registered: {sorted(ALPHA_FORMULAS)}"
                    )
                alpha = ALPHA_FORMULAS[spec.alpha_tag](refs)
            else:
                value = float(spec.alpha_value)
                alpha = lambda t, _v=value: _v
            channel = HomeostatChannel(output_index=spec.output, order=int(spec.order), alpha=alpha)

        if spec.k_p is not None:
            gains = Gains(k_p=spec.k_p, k_d=spec.k_d)
        elif spec.pole_multiplicity == 2 or channel.order == 2:
            gains = gains_from_poles(2, spec.pole)
        else:
            gains = gains_from_poles(1, spec.pole)

        estimator = EstimatorConfig(T=spec.estimator_T, rule=spec.estimator_rule)
        estimator.validate_against(grid.h)

        controllers.append(
            ChannelController(
                channel=channel,
                gains=gains,
                estimator=estimator,
                nominal_control=nominal,
                saturation=spec.saturation,
                tau_f=spec.tau_f,
                feedback=scenario.control_mode == "closed-loop",
            )
        )

    x0 = init_fn(refs, scenario.mismatch, grid.t0)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n_states,):
        raise ConfigurationError(
            f"initial state has shape {x0.shape}, plant needs ({model.n_states},)"
        )
    return _Built(model=model, references=refs, controllers=controllers, x0=x0, grid=grid)


def validate_scenario(scenario: Scenario) -> None:
    """Build every part of the scenario without running it."""
    _build(scenario)


# --------------------------------------------------------------------------
# simulation


@dataclass
class SimLog:
    """Per-grid-point record arrays of one run."""

    scenario_name: str
    grid: TimeGrid
    channel_outputs: tuple[int, ...]
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


def run_scenario(scenario: Scenario) -> SimLog:
    """Simulate one scenario and return its log.

    Deterministic: identical inputs produce bit-identical logs, and a run
    over a shorter horizon reproduces the corresponding prefix exactly.
    """
    built = _build(scenario)
    model, refs, controllers, grid = built.model, built.references, built.controllers, built.grid
    n_pts, p, m = grid.n_points, model.n_outputs, model.n_controls

    noise = None
    if scenario.noise_std > 0.0:
        rng = np.random.default_rng(scenario.noise_seed)
        noise = scenario.noise_std * rng.standard_normal((n_pts, p))

    log_y = np.empty((n_pts, p))
    log_yref = np.empty((n_pts, p))
    log_u = np.empty((n_pts, m))
    log_unom = np.empty((n_pts, m))
    log_du = np.empty((n_pts, m))
    log_fest = np.empty((n_pts, m))
    log_fvalid = np.zeros((n_pts, m), dtype=bool)
    log_clamp = np.zeros((n_pts, m), dtype=bool)

    # Time-only signals, once per grid point.  The feedforward is sampled at
    # t + h/2, mid-hold, which removes the hold's first-order phase bias,
    # after a probe at t itself: a flatness singularity at t then surfaces as
    # such, naming t, and not as a zero-gain error.
    alpha = np.empty((n_pts, m))
    for k in range(n_pts):
        t = grid.t(k)
        for i, ref in enumerate(refs):
            log_yref[k, i] = ref.eval(t, 0)
        for j, ctrl in enumerate(controllers):
            try:
                ctrl.nominal_control(t)
                log_unom[k, j] = ctrl.nominal_control(t + 0.5 * grid.h)
                alpha[k, j] = a = ctrl.channel.alpha(t)
                if ctrl.feedback:
                    _check_alpha(a)
            except HeolError as exc:
                raise type(exc)(f"channel {j + 1} at t={t:.6g}: {exc}") from None

    # Measurement-driven state per channel.  adus[j, k] is written only after
    # the control at step k is known, so the estimate at t_k reads the zero
    # pad there and never the control applied at t_k (both kernels weigh
    # that sample by zero up to round-off anyway).
    windows = [ctrl.estimator.validate_against(grid.h) for ctrl in controllers]
    estimators = [
        FusedEstimator(ctrl.channel.order, w * grid.h, w, ctrl.estimator.rule)
        for ctrl, w in zip(controllers, windows)
    ]
    tau_f = [5.0 * grid.h if ctrl.tau_f is None else ctrl.tau_f for ctrl in controllers]
    dys = np.zeros((m, n_pts))
    adus = np.zeros((m, n_pts))
    ddys = [0.0] * m

    h_sub = grid.h / scenario.timing.substeps
    x = built.x0.copy()

    for k in range(n_pts):
        t = grid.t(k)
        y = model.output(x)
        if noise is not None:
            y = y + noise[k]
        log_y[k] = y
        y_k, ref_k, unom_k, alpha_k = (
            y.tolist(), log_yref[k].tolist(), log_unom[k].tolist(), alpha[k].tolist()
        )

        for j, ctrl in enumerate(controllers):
            out = ctrl.channel.output_index
            dy = y_k[out] - ref_k[out]
            dys[j, k] = dy
            if ctrl.channel.order == 2 and k > 0:
                # low-pass-filtered backward difference
                dt = t - grid.t(k - 1)
                ddys[j] += dt / (tau_f[j] + dt) * ((dy - dys[j, k - 1]) / dt - ddys[j])
            w = windows[j]
            f_est = 0.0  # warm-up: no full window yet
            if k >= w:
                f_est = estimators[j].estimate(dys[j, k - w : k + 1], adus[j, k - w : k + 1], t).value
                log_fvalid[k, j] = True
            u_j, log_clamp[k, j] = channel_step(ctrl, f_est, dy, ddys[j], unom_k[j], alpha_k[j])
            du = u_j - unom_k[j]
            adus[j, k] = alpha_k[j] * du
            log_u[k, j] = u_j
            log_du[k, j] = du
            log_fest[k, j] = f_est

        if k < grid.n_steps:
            for s in range(scenario.timing.substeps):
                x = rk4_step(model, t + s * h_sub, x, log_u[k], h_sub)
            if np.max(np.abs(x)) > TRUST_REGION:
                raise DivergenceError(
                    f"state left the trust region (|x| > {TRUST_REGION:g}) by t={grid.t(k + 1):.6g}"
                )

    return SimLog(
        scenario_name=scenario.name,
        grid=grid,
        channel_outputs=tuple(c.channel.output_index for c in controllers),
        channel_T=tuple(w * grid.h for w in windows),
        t=grid.times(),
        y=log_y,
        y_ref=log_yref,
        u=log_u,
        u_nom=log_unom,
        dy=log_y - log_yref,
        du=log_du,
        f_est=log_fest,
        f_valid=log_fvalid,
        clamped=log_clamp,
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
        raise EmptyLogError("cannot compute metrics of an empty log")
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


def csv_header(n_outputs: int, n_controls: int) -> list[str]:
    cols = ["t"]
    for i in range(n_outputs):
        cols += [f"y{i + 1}", f"y{i + 1}_ref"]
    for j in range(n_controls):
        cols += [f"u{j + 1}", f"u{j + 1}_nom"]
    cols += [f"dy{i + 1}" for i in range(n_outputs)]
    cols += [f"du{j + 1}" for j in range(n_controls)]
    cols += [f"F{j + 1}_est" for j in range(n_controls)]
    cols += [f"F{j + 1}_valid" for j in range(n_controls)]
    cols += [f"clamp{j + 1}" for j in range(n_controls)]
    return cols


def export_csv(log: SimLog, destination) -> Path:
    """Write the run log as CSV with full float precision (17 significant digits)."""
    path = Path(destination)
    p, m = log.n_outputs, log.n_controls
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(csv_header(p, m)) + "\n")
            for k in range(len(log.t)):
                row = [_fmt(log.t[k])]
                for i in range(p):
                    row += [_fmt(log.y[k, i]), _fmt(log.y_ref[k, i])]
                for j in range(m):
                    row += [_fmt(log.u[k, j]), _fmt(log.u_nom[k, j])]
                row += [_fmt(log.dy[k, i]) for i in range(p)]
                row += [_fmt(log.du[k, j]) for j in range(m)]
                row += [_fmt(log.f_est[k, j]) for j in range(m)]
                row += ["1" if log.f_valid[k, j] else "0" for j in range(m)]
                row += ["1" if log.clamped[k, j] else "0" for j in range(m)]
                fh.write(",".join(row) + "\n")
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
    for i, v in enumerate(metrics.rms_tail_dy):
        lines.append(f"rms_tail_dy{i + 1} = {_fmt(v)}")
    for i, v in enumerate(metrics.max_abs_dy):
        lines.append(f"max_abs_dy{i + 1} = {_fmt(v)}")
    for j, v in enumerate(metrics.max_abs_du):
        lines.append(f"max_abs_du{j + 1} = {_fmt(v)}")
    for i, v in enumerate(metrics.ref_range):
        lines.append(f"ref_range{i + 1} = {_fmt(v)}")
    for j, v in enumerate(metrics.warmup_T):
        lines.append(f"warmup_T{j + 1} = {_fmt(v)}")
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise ExportError(f"failed to write {path}: {exc}") from exc
    return path


# --------------------------------------------------------------------------
# (de)serialisation


def _strip_comments(obj):
    if isinstance(obj, dict):
        return {k: _strip_comments(v) for k, v in obj.items() if not str(k).startswith("#")}
    if isinstance(obj, list):
        return [_strip_comments(v) for v in obj]
    return obj


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"{what} must be a JSON object, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    """``value`` as an int; booleans and non-integral numbers are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return value


def _channel_from_dict(d: dict) -> ChannelSpec:
    d = _object(d, "channel entry")
    alpha = _object(d.get("alpha", {"source": "derived"}), "channel alpha")
    gains = None if d.get("gains") is None else _object(d["gains"], "channel gains")
    pole = None if d.get("pole") is None else _object(d["pole"], "channel pole")
    est = _object(d.get("estimator", {}), "channel estimator")
    sat = d.get("saturation")
    return ChannelSpec(
        output=_integer(d["output"], "channel output"),
        order=None if d.get("order") is None else _integer(d["order"], "channel order"),
        alpha_source=alpha.get("source", "derived"),
        alpha_tag=alpha.get("tag"),
        alpha_value=None if alpha.get("value") is None else float(alpha["value"]),
        estimator_T=float(est.get("T", 0.3)),
        estimator_rule=est.get("rule", "simpson"),
        k_p=None if gains is None else float(gains["kp"]),
        k_d=None if gains is None or gains.get("kd") is None else float(gains["kd"]),
        pole=None if pole is None else float(pole["value"]),
        pole_multiplicity=1 if pole is None else _integer(pole.get("multiplicity", 1), "pole multiplicity"),
        nominal=d.get("nominal", "zero"),
        saturation=None if sat is None else tuple(float(v) for v in sat),
        tau_f=None if d.get("tau_f") is None else float(d["tau_f"]),
    )


def _channel_to_dict(c: ChannelSpec) -> dict:
    d: dict = {"output": c.output}
    if c.order is not None:
        d["order"] = c.order
    alpha: dict = {"source": c.alpha_source}
    if c.alpha_tag is not None:
        alpha["tag"] = c.alpha_tag
    if c.alpha_value is not None:
        alpha["value"] = c.alpha_value
    d["alpha"] = alpha
    d["estimator"] = {"T": c.estimator_T, "rule": c.estimator_rule}
    if c.k_p is not None:
        d["gains"] = {"kp": c.k_p, **({"kd": c.k_d} if c.k_d is not None else {})}
    else:
        d["pole"] = {"value": c.pole, "multiplicity": c.pole_multiplicity}
    d["nominal"] = c.nominal
    if c.saturation is not None:
        d["saturation"] = list(c.saturation)
    if c.tau_f is not None:
        d["tau_f"] = c.tau_f
    return d


def scenario_from_dict(data: dict) -> Scenario:
    d = _strip_comments(data)
    try:
        timing_d = _object(d.get("timing", {}), "timing")
        mism_d = _object(d.get("mismatch", {}), "mismatch")
        noise_d = _object(d.get("noise") or {}, "noise")
        refs = tuple(dict(r) for r in d["references"])
        plant_d = _object(d["plant"], "plant")
        shared = d.get("allow_shared_outputs", False)
        if not isinstance(shared, bool):
            raise ConfigurationError(f"allow_shared_outputs must be true or false, got {shared!r}")
        return Scenario(
            name=str(d["name"]),
            plant=str(plant_d["name"]),
            plant_params=dict(plant_d.get("params", {})),
            timing=Timing(
                duration=float(timing_d["duration"]),
                h=float(timing_d["h"]),
                t0=float(timing_d.get("t0", 0.0)),
                substeps=_integer(timing_d.get("substeps", 1), "timing substeps"),
            ),
            references=refs,
            channels=tuple(_channel_from_dict(c) for c in d["channels"]),
            mismatch=MismatchSpec(
                output_scaling=tuple(
                    float(s) for s in mism_d.get("output_scaling", [1.0] * len(refs))
                ),
                control_perturbation=mism_d.get("control_perturbation"),
            ),
            control_mode=d.get("control_mode", "closed-loop"),
            allow_shared_outputs=shared,
            noise_std=float(noise_d.get("std", 0.0)),
            noise_seed=_integer(noise_d.get("seed", 0), "noise seed"),
            rms_fraction=float(_object(d.get("metrics", {}), "metrics").get("rms_fraction", 0.01)),
        )
    except KeyError as exc:
        raise ConfigurationError(f"scenario config missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed scenario config: {exc}") from None


def scenario_to_dict(s: Scenario) -> dict:
    d: dict = {
        "name": s.name,
        "plant": {"name": s.plant, **({"params": s.plant_params} if s.plant_params else {})},
        "timing": {
            "t0": s.timing.t0,
            "duration": s.timing.duration,
            "h": s.timing.h,
            "substeps": s.timing.substeps,
        },
        "references": [dict(r) for r in s.references],
        "channels": [_channel_to_dict(c) for c in s.channels],
        "mismatch": {
            "output_scaling": list(s.mismatch.output_scaling),
            "control_perturbation": s.mismatch.control_perturbation,
        },
        "control_mode": s.control_mode,
        "metrics": {"rms_fraction": s.rms_fraction},
    }
    if s.allow_shared_outputs:
        d["allow_shared_outputs"] = True
    if s.noise_std > 0.0:
        d["noise"] = {"std": s.noise_std, "seed": s.noise_seed}
    return d


def load_scenario(path) -> Scenario:
    """Load a scenario from a JSON file (``#``-prefixed keys are comments)."""
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file {p}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"scenario file {p} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"scenario file {p} must hold a JSON object")
    return scenario_from_dict(data)


# --------------------------------------------------------------------------
# built-in scenarios


def _sec4_channels() -> tuple[ChannelSpec, ChannelSpec]:
    return (
        ChannelSpec(
            output=0,
            order=1,
            alpha_source="formula",
            alpha_tag="ref0-squared",
            estimator_T=0.3,
            pole=-1.0,
            pole_multiplicity=1,
            nominal="flat-u1",
        ),
        ChannelSpec(
            output=1,
            order=2,
            alpha_source="formula",
            alpha_tag="ref0-rate-ratio-minus-1",
            estimator_T=0.3,
            pole=-0.15,
            pole_multiplicity=2,
            nominal="flat-u2",
        ),
    )


def builtin_scenario(name: str) -> Scenario:
    """Return a built-in scenario by name (see :func:`builtin_names`)."""
    if name == "paper-sec4":
        # Closed-loop regression: smoothstep references, scaled initial output,
        # and mis-weighted second feedforward the loop has to absorb.
        return Scenario(
            name="paper-sec4",
            plant="flat-benchmark-2x2",
            timing=Timing(duration=150.0, h=0.01),
            references=(
                {"type": "smoothstep", "from": 1.0, "to": 2.0, "t_start": 10.0, "t_end": 40.0},
                {"type": "smoothstep", "from": 1.0, "to": 2.0, "t_start": 50.0, "t_end": 80.0},
            ),
            channels=_sec4_channels(),
            mismatch=MismatchSpec(
                output_scaling=(1.1, 1.0), control_perturbation="u2-coeff-1.1-0.9"
            ),
        )
    if name == "paper-sec4-nominal":
        # Pure-feedforward companion with zero mismatch.  References are held
        # constant: the y2 chain is open-loop unstable, so over 150 s any
        # reference motion would amplify round-off beyond every tolerance and
        # say nothing about the feedforward itself.  At an equilibrium the
        # flat inversion is exact and the run must track perfectly.
        return Scenario(
            name="paper-sec4-nominal",
            plant="flat-benchmark-2x2",
            timing=Timing(duration=150.0, h=0.01),
            references=(
                {"type": "constant", "value": 1.0},
                {"type": "constant", "value": 1.0},
            ),
            channels=_sec4_channels(),
            mismatch=MismatchSpec(output_scaling=(1.0, 1.0), control_perturbation=None),
            control_mode="feedforward",
        )
    raise ConfigurationError(f"unknown built-in scenario {name!r}; available: {builtin_names()}")


def builtin_names() -> list[str]:
    return ["paper-sec4", "paper-sec4-nominal"]
