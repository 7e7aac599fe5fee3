"""Workload generator and output checks.

Each workload is a list of scenarios built from the seed, written to JSON
through ``scenario_to_dict``, read back and validated before any timing.
The program under test only ever sees these generated files.

The seed feeds only the sweep's noise seeds: ``sec4`` and ``sec4-derived``
are the same for every seed, so their outputs can be pinned.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from heol.plant import MismatchSpec
from heol.scenarios import (
    ChannelSpec,
    Scenario,
    SimLog,
    Timing,
    builtin_scenario,
    compute_metrics,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from heol.signals import make_constant, make_smoothstep

SEC4 = "sec4"
SEC4_DERIVED = "sec4-derived"
SWEEP = "ultralocal-sweep"
WORKLOADS = (SEC4, SEC4_DERIVED, SWEEP)

# The sweep: order-2 ultra-local plant y'' = F + u with F = SWEEP_F known
# exactly, so the estimator error can be measured against the truth.
SWEEP_F = 0.5
SWEEP_T = (0.05, 0.2, 0.5, 1.0)
SWEEP_NOISE_SEEDS = 4
SWEEP_NOISE_STD = 1e-3
SWEEP_DURATION = 3.0
SWEEP_H = 1e-3
SWEEP_POLE = -5.0

# Pinned outputs of the full-horizon runs.  A mismatching CSV digest is
# counted (``digest_match``), not failed: a change may alter the numbers if
# it says so.  The tracking error is a correctness check.
PINS = {
    SEC4: {
        "track_rms": 3.2513024270102e-4,
        "track_rtol": 1e-6,
        "f_err_max": 2e-3,
        "digest": "fb3f57cd54e051cdfe22b6680b57b30525f33caa5f8d12433410f7e03b6c3cf3",
    },
    SEC4_DERIVED: {
        "track_rms": 3.2513024266499e-4,
        "track_rtol": 1e-6,
        "f_err_max": 2e-3,
        "digest": "3bd4d0616def969f13c2ec428a661141d72f000f89354e2066d653988607ff5a",
    },
    SWEEP: {
        # Noise std is 1e-3, so a settled loop tracks to a few times that.
        "track_max": 5e-3,
        # Tail mean of F_est must be within this share of the true F ...
        "f_tail_rtol": 0.03,
        # ... for windows at least this long; shorter ones are noise-bound.
        "f_tail_min_T": 0.2,
        # Upper limit of RMS(F_est - F) per window length T.
        "f_err_max": {0.05: 4.0, 0.2: 0.15, 0.5: 0.08, 1.0: 0.06},
    },
}


def _sec4(derived: bool, horizon: float) -> Scenario:
    base = builtin_scenario("paper-sec4")
    d = scenario_to_dict(base)
    if derived:
        d["name"] = "paper-sec4-derived"
        for channel in d["channels"]:
            channel["alpha"] = {"source": "derived"}
    d["timing"]["duration"] = base.timing.duration * horizon
    return scenario_from_dict(d)


def _sweep(seed: int, horizon: float) -> list[Scenario]:
    noise_seeds = np.random.SeedSequence(seed).generate_state(SWEEP_NOISE_SEEDS)
    out = []
    for T in SWEEP_T:
        for noise_seed in noise_seeds:
            out.append(
                Scenario(
                    name=f"ultralocal-T{T:g}-n{int(noise_seed)}",
                    plant="ultralocal",
                    plant_params={"order": 2, "f": SWEEP_F, "gain": 1.0},
                    timing=Timing(duration=SWEEP_DURATION * horizon, h=SWEEP_H),
                    references=({"type": "constant", "value": 1.0},),
                    channels=(
                        ChannelSpec(
                            output=0,
                            order=2,
                            alpha_source="constant",
                            alpha_value=1.0,
                            estimator_T=T,
                            pole=SWEEP_POLE,
                            pole_multiplicity=2,
                            nominal="zero",
                        ),
                    ),
                    mismatch=MismatchSpec(output_scaling=(1.0,)),
                    noise_std=SWEEP_NOISE_STD,
                    noise_seed=int(noise_seed),
                )
            )
    return out


def build(workload: str, seed: int, horizon: float = 1.0) -> list[Scenario]:
    """Scenarios of ``workload``; ``horizon`` scales every duration."""
    if workload == SEC4:
        return [_sec4(False, horizon)]
    if workload == SEC4_DERIVED:
        return [_sec4(True, horizon)]
    if workload == SWEEP:
        return _sweep(seed, horizon)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def write(scenarios: list[Scenario], directory: Path) -> list[Path]:
    """Write each scenario as JSON, checking it round-trips and validates."""
    paths = []
    for scenario in scenarios:
        path = directory / f"{scenario.name}.json"
        path.write_text(json.dumps(scenario_to_dict(scenario), indent=1))
        back = scenario_from_dict(json.loads(path.read_text()))
        if back != scenario:
            raise RuntimeError(f"{path.name} does not round-trip through JSON")
        validate_scenario(back)
        paths.append(path)
    return paths


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclasses.dataclass
class Outcome:
    """What the checks found in one run's log."""

    ok: bool
    reason: str
    track_rms: float
    f_err_sq: float
    f_err_n: int


def _f_true(scenario: Scenario, log: SimLog) -> np.ndarray:
    """True lumped disturbance F of the first channel at every sample.

    On the sweep F is the plant's drift.  On the benchmark plant the first
    output obeys y1' = y1 + y1^2 u1, so with the gain alpha1 = y1*^2 along
    the reference, F1 = y1' - y1*' - alpha1 du1 follows from the log alone
    (the runs carry no measurement noise).
    """
    if scenario.plant == "ultralocal":
        return np.full(len(log.t), float(scenario.plant_params["f"]))
    r = scenario.references[0]
    if r["type"] == "smoothstep":
        y1_ref = make_smoothstep(r["from"], r["to"], r["t_start"], r["t_end"])
    else:
        y1_ref = make_constant(r["value"])
    y1, u1, du1 = log.y[:, 0], log.u[:, 0], log.du[:, 0]
    rate = np.array([y1_ref.eval(t, 1) for t in log.t])
    return y1 + y1 * y1 * u1 - rate - log.y_ref[:, 0] ** 2 * du1


def _violation(scenario: Scenario, log: SimLog, track: float, f_rms: float, pins: dict) -> str:
    """Why the run leaves the tolerance ``pins`` holds, or "" if it does not."""
    if "track_rms" in pins:
        if not math.isclose(track, pins["track_rms"], rel_tol=pins["track_rtol"], abs_tol=0.0):
            return f"track_rms {track!r} != pinned {pins['track_rms']!r}"
        if f_rms > pins["f_err_max"]:
            return f"RMS(F_est - F) {f_rms:.3g} > {pins['f_err_max']:g}"
        return ""
    T = scenario.channels[0].estimator_T
    n = len(log.t)
    tail_mean = float(np.mean(log.f_est[n - max(1, round(0.2 * n)) :, 0]))
    if track > pins["track_max"]:
        return f"track_rms {track:.3g} > {pins['track_max']:g}"
    if T >= pins["f_tail_min_T"] and abs(tail_mean - SWEEP_F) > pins["f_tail_rtol"] * SWEEP_F:
        return f"tail-mean F_est {tail_mean:.4g} not within {pins['f_tail_rtol']:.0%} of {SWEEP_F}"
    if f_rms > pins["f_err_max"][T]:
        return f"RMS(F_est - F) {f_rms:.3g} > {pins['f_err_max'][T]:g} at T={T:g}"
    return ""


def check(scenario: Scenario, log: SimLog, pins: dict | None) -> Outcome:
    """Check one run's log for non-finite values and against ``pins``."""
    arrays = (log.y, log.y_ref, log.u, log.u_nom, log.dy, log.du, log.f_est)
    track = float(max(compute_metrics(log, scenario.rms_fraction).rms_tail_dy))
    valid = log.f_valid[:, 0]
    err = log.f_est[valid, 0] - _f_true(scenario, log)[valid]
    f_err_sq, f_err_n = float(np.sum(err * err)), int(err.size)
    f_rms = math.sqrt(f_err_sq / f_err_n) if f_err_n else math.inf
    if not all(np.all(np.isfinite(a)) for a in arrays):
        reason = "non-finite value in the log"
    else:
        reason = _violation(scenario, log, track, f_rms, pins) if pins else ""
    return Outcome(not reason, reason, track, f_err_sq, f_err_n)
