"""A plain-loop oracle for the simulation loop, and the property that the loop matches it.

:func:`oracle_run` steps the paper's per-sample equations one sample at a time and
keeps no grid table: each reference by scalar ``eval(t, 0)``, the feedforward at
``t + h/2`` and ``alpha`` at ``[t]``, each off the reference table at that one time,
the order-2 derivative filter, a fresh array of the interleaved ``dy``/``alpha*Du``
window for the estimator, the iP/iPD law and the zero rule for ``alpha`` written out
here, then ``rk4_step``.  The property draws scenarios over both plants, both orders,
the three alpha sources, saturation, noise, control mode and short horizons, and requires
:func:`run_scenario` to give the oracle's log bit for bit, or to raise the same
error class.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heol.errors import DivergenceError, HeolError, SingularChannelError
from heol.estimators import FusedEstimator
from heol.homeostat import build_reference_table
from heol.plant import TRUST_REGION, rk4_step
from heol.scenarios import (
    SimLog,
    builtin_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)

LOG_FIELDS = ("t", "y", "y_ref", "u", "u_nom", "dy", "du", "f_est", "f_valid", "clamped")


def check_gain(alpha):
    """The zero rule: a feedback law cannot divide by a non-finite alpha or one within 1e-9 of zero."""
    if not math.isfinite(alpha) or abs(alpha) <= 1e-9:
        raise SingularChannelError(f"cannot divide by channel gain alpha={alpha!r}")


def ip_law(ch, feedback, f_est, dy, ddy, u_nom, alpha):
    """The iP (order 1) or iPD (order 2) law at one sample, clamped: ``(u, clamped)``."""
    du = 0.0
    if feedback:
        if ch.order == 1:
            du = -(f_est + ch.k_p * dy) / alpha
        else:
            du = -(f_est + ch.k_p * dy + ch.k_d * ddy) / alpha
    u = u_nom + du
    lo, hi = ch.saturation
    if u < lo:
        return lo, True
    if u > hi:
        return hi, True
    return u, False


def oracle_run(scenario) -> SimLog:
    built = validate_scenario(scenario)
    model, chans, refs = built.model, built.channels, built.references
    grid, std = built.scenario.timing, built.scenario.noise_std
    feedback = built.scenario.control_mode == "closed-loop"
    h, n, p = grid.h, grid.n_points, model.n_outputs
    at = lambda reader, t: reader(build_reference_table(refs, t), t)  # noqa: E731
    for k in range(n):  # a singular time-only signal anywhere fails the run before the plant moves
        for ch in chans:
            at(ch.nominal, k * h), at(ch.nominal, k * h + 0.5 * h)
            if feedback:
                check_gain(at(ch.alpha, np.array([k * h]))[0])
    rng = np.random.default_rng(built.scenario.noise_seed)
    fused = [FusedEstimator(ch.order, ch.w * h, ch.w) for ch in chans]
    dys, adus, ddy, last = [[] for _ in chans], [[] for _ in chans], [0.0] * len(chans), [0.0] * len(chans)
    x, rows = built.x0.tolist(), []
    for k in range(n):
        t = k * h
        y = list(model.output(x))
        if std > 0.0:
            y = [a + b for a, b in zip(y, (std * rng.standard_normal(p)).tolist())]
        y_ref = [ref.eval(t, 0) for ref in refs]
        row = {"y": y, "y_ref": y_ref, "dy": [a - b for a, b in zip(y, y_ref)], "f_valid": [k >= ch.w for ch in chans]}
        for j, ch in enumerate(chans):
            w = ch.w
            dy = y[ch.output] - y_ref[ch.output]
            if ch.order == 2 and k > 0:
                dt = t - (k - 1) * h
                ddy[j] += dt / (5.0 * h + dt) * ((dy - last[j]) / dt - ddy[j])
            dys[j].append(dy)
            last[j] = dy
            window = [v for pair in zip(dys[j][k - w :], adus[j][k - w :] + [0.0]) for v in pair]
            f_est = fused[j].estimate(np.array(window)) if k >= w else 0.0
            u_nom, alpha = at(ch.nominal, t + 0.5 * h), at(ch.alpha, np.array([t]))[0]
            u, clamped = ip_law(ch, feedback, f_est, dy, ddy[j], u_nom, alpha)
            adus[j].append(alpha * (u - u_nom))
            for key, value in zip(("u", "u_nom", "du", "f_est", "clamped"), (u, u_nom, u - u_nom, f_est, clamped)):
                row.setdefault(key, []).append(value)
        rows.append(row)
        if k < grid.n_steps:
            x = rk4_step(model, t, x, row["u"], h)
            if max(map(abs, x)) > TRUST_REGION:
                raise DivergenceError(f"state left the trust region by t={(k + 1) * h:.6g}")
    arrays = {key: np.array([row[key] for row in rows], dtype=bool if key in ("f_valid", "clamped") else float)
              for key in LOG_FIELDS[1:]}
    own = {key: arrays.pop(key) for key in ("dy", "du")}
    log = SimLog(channel_T=tuple(ch.w * h for ch in chans), t=np.array([k * h for k in range(n)]), **arrays)
    for key, column in own.items():  # the log's derived deviations are the oracle's own, bit for bit
        assert getattr(log, key).tobytes() == column.tobytes(), key
    return log


# ------------------------------------------------------------- the property


@st.composite
def scenario_documents(draw):
    """Short runs of either plant; some of them singular or divergent on purpose."""
    benchmark = draw(st.booleans())
    steps = draw(st.integers(5, 60))

    def reference():
        if draw(st.booleans()):
            return {"type": "constant", "value": draw(st.sampled_from((1.0, 1.5, 0.8, -0.6, 0.0)))}
        start = draw(st.sampled_from((0.0, 0.05, 0.2)))
        return {"type": "smoothstep", "from": draw(st.sampled_from((1.0, 0.9, -1.0))),
                "to": draw(st.sampled_from((2.0, 1.2, 0.0, -0.5))), "t_start": start,
                "t_end": start + draw(st.sampled_from((0.1, 0.3, 2.0)))}

    def channel(j, order, nominals):
        source = draw(st.sampled_from(("derived", "formula", "constant")))
        spec = {"output": j, "alpha": {"source": source}, "pole": {"value": draw(st.sampled_from((-1.0, -0.15, -4.0)))},
                "estimator": {"T": 0.01 * draw(st.integers(4, 20))}, "nominal": draw(st.sampled_from(nominals))}
        if source == "constant":
            spec["alpha"]["value"] = draw(st.sampled_from((1.0, -2.0, 0.5)))
        if source != "derived" or draw(st.booleans()):
            spec["order"] = order if source == "derived" else draw(st.sampled_from((order, 1, 2)))
        if draw(st.booleans()):
            spec["saturation"] = draw(st.sampled_from(([-0.9, 0.0], [-1.0, 1.0], [0.0, 5.0])))
        return spec

    if benchmark:
        plant, refs = {"name": "flat-benchmark-2x2"}, [reference(), reference()]
        channels = [channel(0, 1, ("flat-u1", "zero")), channel(1, 2, ("flat-u2", "flat-u2-miscoeff", "zero"))]
    else:
        order = draw(st.sampled_from((1, 2)))
        plant = {"name": "ultralocal", "params": {"order": order, "f": draw(st.sampled_from((0.0, 0.5, -3.0)))}}
        refs, channels = [reference()], [channel(0, order, ("zero",))]
    scaling = [draw(st.sampled_from((1.0, 1.1, 0.7))) for _ in refs]
    return {
        "name": "oracle", "plant": plant, "timing": {"duration": 0.01 * steps, "h": 0.01},
        "references": refs, "channels": channels, "mismatch": {"output_scaling": scaling},
        "control_mode": draw(st.sampled_from(("closed-loop", "feedforward"))),
        "noise": {"std": draw(st.sampled_from((0.0, 0.0, 1e-3, 0.05))), "seed": draw(st.integers(0, 3))},
    }


def _outcome(run, scenario):
    try:
        return run(scenario)
    except HeolError as exc:
        return type(exc)


@settings(max_examples=120, deadline=None)
@given(doc=scenario_documents())
def test_run_matches_plain_loop_oracle(doc):
    try:
        scenario = scenario_from_dict(doc)
    except HeolError:  # rejected at load: no run to compare
        return
    got, want = _outcome(run_scenario, scenario), _outcome(oracle_run, scenario)
    if isinstance(got, type) or isinstance(want, type):
        assert got is want
        return
    assert got.channel_T == want.channel_T
    for name in LOG_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def test_feedforward_on_a_negative_zero_nominal_logs_positive_zero():
    # y2* = 0 makes flat-u2 -0.0; off feedback the control is u_nom + 0.0, which is +0.0
    doc = scenario_to_dict(builtin_scenario("paper-sec4-nominal"))
    doc.update(timing={"duration": 1.0, "h": 0.01},
               references=[{"type": "constant", "value": 1.0}, {"type": "constant", "value": 0.0}])
    scenario = scenario_from_dict(doc)
    got = run_scenario(scenario)
    assert np.signbit(got.u_nom[:, 1]).all() and not np.signbit(got.u[:, 1]).any()
    want = oracle_run(scenario)
    for name in LOG_FIELDS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
