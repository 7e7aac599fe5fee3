"""Scenario configuration, the simulation loop, metrics, and exports."""

import dataclasses
import errno
import functools
import json
import math
import os
import re
import signal
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heol.scenarios as heol_scenarios
from heol.errors import (
    ConfigurationError,
    DivergenceError,
    ExportError,
    SingularChannelError,
)
from heol.homeostat import ImplicitFlatRelation, derive_channel
from heol.plant import MismatchSpec, benchmark_relations, rk4_step
from heol.scenarios import (
    PLANTS,
    ChannelSpec,
    Scenario,
    SimLog,
    Timing,
    builtin_names,
    builtin_scenario,
    compute_metrics,
    export_csv,
    export_metrics,
    load_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from heol.signals import make_constant

from conftest import _count_forks, _fail_in_the_helper, _two_cpus, ultralocal_scenario

REPO = Path(__file__).resolve().parents[1]


def make_log(dy_column):
    """Synthetic single-channel SimLog with the given deviation column."""
    dy = np.asarray(dy_column, dtype=float).reshape(-1, 1)
    n = len(dy)
    grid = Timing(duration=0.01 * max(n - 1, 1), h=0.01)
    y_ref = np.ones((n, 1))
    zeros = np.zeros((n, 1))
    return SimLog(
        channel_T=(0.3,),
        t=grid.times()[:n],
        y=y_ref + dy,
        y_ref=y_ref,
        u=zeros.copy(),
        u_nom=zeros.copy(),
        dy=dy,
        du=zeros.copy(),
        f_est=zeros.copy(),
        f_valid=np.zeros((n, 1), dtype=bool),
        clamped=np.zeros((n, 1), dtype=bool),
    )


# ------------------------------------------------------------- configuration


def test_timing_grid_requires_integer_step_count():
    assert Timing(duration=1.5, h=0.01).n_steps == 150
    with pytest.raises(ConfigurationError, match="duration 1.0 is not a multiple of the sampling period 0.3"):
        Timing(duration=1.0, h=0.3)
    with pytest.raises(ConfigurationError, match="duration must be positive"):
        Timing(duration=-1.0, h=0.01)


def test_numpy_scalars_pass_the_number_rules():
    assert Timing(duration=np.float32(1.5), h=0.5) == Timing(duration=1.5, h=0.5)
    seeded = dataclasses.replace(builtin_scenario("paper-sec4"), noise_seed=np.int64(3))
    assert type(seeded.noise_seed) is int and seeded.noise_seed == 3
    assert ChannelSpec(output=np.int64(1), order=1, alpha_source="formula", pole=-1.0).output == 1
    # the schema's count rule loads an integral float as an int, in a file and in Python alike
    assert type(ChannelSpec(output=0, pole=-1.0, pole_multiplicity=2.0).pole_multiplicity) is int


def test_channel_spec_requires_a_pole():
    with pytest.raises(ConfigurationError, match="^channel needs a pole$"):
        ChannelSpec(output=0, order=1, alpha_source="constant", alpha_value=1.0)


def test_channel_spec_alpha_source_validation():
    with pytest.raises(ConfigurationError):
        ChannelSpec(output=0, order=1, pole=-1.0, alpha_source="constant")  # no value
    with pytest.raises(ConfigurationError):
        ChannelSpec(output=0, order=1, pole=-1.0, alpha_source="magic")
    with pytest.raises(ConfigurationError):
        ChannelSpec(output=0, pole=-1.0, alpha_source="constant", alpha_value=1.0)  # no order
    with pytest.raises(ConfigurationError):
        ChannelSpec(output=0, order=1, pole=-1.0, pole_multiplicity=3)
    with pytest.raises(ConfigurationError, match="alpha.value is read by source 'constant' only"):
        ChannelSpec(output=0, order=1, pole=-1.0, alpha_source="formula", alpha_value=3.0)
    # a gain the run would divide by fails when the channel is declared, in any control mode
    for value in (0.0, -0.0, 1e-300, -1e-9):
        with pytest.raises(ConfigurationError, match="is a zero channel gain"):
            ChannelSpec(output=0, order=1, pole=-1.0, alpha_source="constant", alpha_value=value)


def test_scenario_field_validation():
    base = ultralocal_scenario(1.0)
    with pytest.raises(ConfigurationError):
        dataclasses.replace(base, control_mode="open")
    with pytest.raises(ConfigurationError):
        dataclasses.replace(base, noise_std=-0.1)
    with pytest.raises(ConfigurationError):
        dataclasses.replace(base, rms_fraction=0.0)


def test_validate_scenario_checks_structure():
    base = ultralocal_scenario(1.0)
    validate_scenario(base)

    with pytest.raises(ConfigurationError):
        validate_scenario(dataclasses.replace(base, plant="no-such-plant"))

    two_channels = dataclasses.replace(base, channels=base.channels * 2)
    with pytest.raises(ConfigurationError) as err:
        validate_scenario(two_channels)
    assert "1" in str(err.value) and "2" in str(err.value)  # p = m rule, both counts

    bad_output = dataclasses.replace(
        base, channels=(dataclasses.replace(base.channels[0], output=3),)
    )
    with pytest.raises(ConfigurationError):
        validate_scenario(bad_output)


def test_validate_scenario_checks_registry_tags():
    base = builtin_scenario("paper-sec4")
    bad_nominal = dataclasses.replace(
        base,
        channels=(dataclasses.replace(base.channels[0], nominal="no-such-ff"), base.channels[1]),
    )
    with pytest.raises(ConfigurationError):
        validate_scenario(bad_nominal)


def test_shared_outputs_are_rejected():
    base = builtin_scenario("paper-sec4")
    ch = (base.channels[0], dataclasses.replace(base.channels[1], output=0))
    with pytest.raises(ConfigurationError, match="^channel 2: two channels regulate output 0$"):
        validate_scenario(dataclasses.replace(base, channels=ch))


def test_builtin_registry():
    names = builtin_names()
    assert "paper-sec4" in names
    assert "paper-sec4-nominal" in names
    for name in names:
        validate_scenario(builtin_scenario(name))
    with pytest.raises(ConfigurationError):
        builtin_scenario("no-such-scenario")


# -------------------------------------------------------------- simulation


def test_run_produces_one_record_per_grid_point():
    log = run_scenario(ultralocal_scenario(1.0, duration=2.0))
    assert len(log.t) == 201
    assert log.y.shape == (201, 1)
    assert log.u.shape == (201, 1)
    assert np.all(np.diff(log.t) > 0)
    assert log.t[0] == 0.0 and log.t[-1] == pytest.approx(2.0, abs=1e-12)


def test_closed_loop_absorbs_initial_deviation():
    log = run_scenario(ultralocal_scenario(2.0, dy0=0.5, drift=1.0, duration=6.0))
    assert abs(log.dy[0, 0]) == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(log.dy[-50:, 0])) < 1e-3


LOG_FIELDS = ("t", "y", "y_ref", "u", "u_nom", "dy", "du", "f_est", "f_valid", "clamped")


def test_runs_are_bit_deterministic():
    s = ultralocal_scenario(1.0, duration=3.0)
    a, b = run_scenario(s), run_scenario(s)
    for name in LOG_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_prefix_truncation_reproduces_log_prefix():
    s_full = ultralocal_scenario(1.0, duration=6.0, drift=2.0)
    s_half = dataclasses.replace(s_full, timing=Timing(duration=3.0, h=0.01))
    full, half = run_scenario(s_full), run_scenario(s_half)
    n = len(half.t)
    for name in ("t", "y", "u", "dy", "du", "f_est"):
        np.testing.assert_array_equal(getattr(full, name)[:n], getattr(half, name))


@settings(max_examples=25, deadline=None)
@given(
    order=st.sampled_from((1, 2)),
    w=st.integers(4, 40),
    seed=st.integers(0, 2**32 - 1),
    saturation=st.none() | st.tuples(st.floats(-3.0, -0.1), st.floats(0.0, 3.0)),
    control_mode=st.sampled_from(("closed-loop", "feedforward")),
    n_short=st.integers(1, 150),
    n_extra=st.integers(1, 150),
)
def test_runs_are_deterministic_and_prefix_causal(
    order, w, seed, saturation, control_mode, n_short, n_extra
):
    def run(n):
        log = run_scenario(
            ultralocal_scenario(
                4.0,
                order=order,
                k_d=4.0 if order == 2 else None,
                drift=0.5,
                duration=n * 0.01,
                estimator_T=w * 0.01,
                control_mode=control_mode,
                noise_std=1e-3,
                noise_seed=seed,
                saturation=saturation,
            )
        )
        return {name: getattr(log, name) for name in LOG_FIELDS}

    n = n_short + n_extra
    long, again, short = run(n), run(n), run(n_short)
    for name in LOG_FIELDS:
        assert again[name].tobytes() == long[name].tobytes(), name
        assert short[name].tobytes() == long[name][: n_short + 1].tobytes(), name


def test_noise_is_seeded_and_reproducible():
    s = ultralocal_scenario(1.0, duration=2.0, noise_std=1e-3, noise_seed=42)
    a, b = run_scenario(s), run_scenario(s)
    np.testing.assert_array_equal(a.y, b.y)

    other = dataclasses.replace(s, noise_seed=43)
    assert not np.array_equal(run_scenario(other).y, a.y)

    # noise draws are consumed per record, so prefixes still reproduce
    half = dataclasses.replace(s, timing=Timing(duration=1.0, h=0.01))
    np.testing.assert_array_equal(run_scenario(half).y, a.y[:101])


def test_zero_mismatch_benchmark_tracks_to_integration_error():
    base = builtin_scenario("paper-sec4")
    clean = dataclasses.replace(
        base,
        name="paper-sec4-clean",
        channels=(base.channels[0], dataclasses.replace(base.channels[1], nominal="flat-u2")),
        mismatch=MismatchSpec(output_scaling=(1.0, 1.0)),
    )
    log = run_scenario(clean)
    assert np.max(np.abs(log.dy)) <= 1e-4


def test_reference_crossing_zero_names_channel_and_time():
    base = builtin_scenario("paper-sec4")
    crossing = dataclasses.replace(
        base,
        name="crossing",
        timing=Timing(duration=5.0, h=0.01),
        references=(
            {"type": "smoothstep", "from": 1.0, "to": -1.0, "t_start": 1.0, "t_end": 3.0},
            {"type": "constant", "value": 1.0},
        ),
        channels=(base.channels[0], dataclasses.replace(base.channels[1], nominal="flat-u2")),
        mismatch=MismatchSpec(output_scaling=(1.0, 1.0)),
    )
    with pytest.raises(SingularChannelError) as err:
        run_scenario(crossing)
    msg = str(err.value)
    assert msg.startswith("channel 1 at t=2")
    assert "np." not in msg  # values print as Python floats

    # Channel 2 singular from t=0, earlier than channel 1: channel 2 is named.
    # A scenario cannot declare so small a constant gain, so it goes into the built run.
    built = validate_scenario(crossing)
    tiny = lambda table, t, u=None: np.full(np.shape(t), 1e-12)
    built.channels[1] = dataclasses.replace(built.channels[1], alpha=tiny)
    with pytest.raises(SingularChannelError) as err:
        run_scenario(built)
    assert str(err.value) == "channel 2 at t=0: cannot divide by channel gain alpha=1e-12"

    # Both singular at t=2 (channel 1's gain y1*^2, channel 2's feedforward
    # probe): channel 1 is named.
    both = (
        dataclasses.replace(base.channels[0], nominal="zero"),
        dataclasses.replace(base.channels[1], nominal="flat-u1"),
    )
    with pytest.raises(SingularChannelError) as err:
        run_scenario(dataclasses.replace(crossing, channels=both))
    msg = str(err.value)
    assert msg.startswith("channel 1 at t=2: cannot divide by channel gain alpha=")
    assert "np." not in msg


def test_open_loop_sec4_leaves_the_trust_region():
    # Without feedback nothing corrects the mismatches, and the open-loop
    # unstable y2 chain runs away; the trust-region guard must catch it.
    open_loop = dataclasses.replace(builtin_scenario("paper-sec4"), control_mode="feedforward")
    with pytest.raises(DivergenceError) as err:
        run_scenario(open_loop)
    assert str(err.value) == "state left the trust region (|x| > 1e+09) by t=24.99"


@pytest.mark.parametrize(
    "rates, message",
    [
        (lambda x, u: (x[1], math.nan), "non-finite derivative evaluation near t=0.5"),
        (lambda x, u: (1e12, math.nan), "non-finite derivative evaluation near t=0.5"),
        (lambda x, u: (1e12, u[0]), "state left the trust region (|x| > 1e+09) by t=0.51"),
    ],
    ids=["second-state-nan", "nan-before-trust-region", "trust-region"],
)
def test_divergence_checks_name_the_first_fault_in_order(monkeypatch, rates, message):
    # Only the last RK4 stage of the step from t=0.5 (at t=0.51) sees the faulty rates, so the
    # first of them leaves x0 finite and makes x1 NaN, which a trust region of max(|x|) misses;
    # a state both NaN and outside the trust region is named non-finite, with the step's start.
    with pytest.raises(DivergenceError) as err:
        run_scenario(_order2_ultralocal_with_late_rates(monkeypatch, rates))
    assert str(err.value) == message


def test_a_run_names_a_plant_returning_too_many_rates(monkeypatch):
    with pytest.raises(ConfigurationError) as err:
        run_scenario(_order2_ultralocal_with_late_rates(monkeypatch, lambda x, u: (x[1], u[0], 0.0), after=-1.0))
    assert str(err.value) == "plant has n_states=2, but f returned 3 entries at t=0"


@pytest.mark.parametrize("through", ["run_scenario", "rk4_step"])
def test_a_late_stage_returning_too_many_rates_is_named(monkeypatch, through):
    # From t=0.507 on, f returns three rates: of the step from t=0.5, only its last stage (t=0.51) sees them
    built = validate_scenario(_order2_ultralocal_with_late_rates(monkeypatch, lambda x, u: (x[1], u[0], 0.0)))
    with pytest.raises(ConfigurationError) as err:
        if through == "rk4_step":
            rk4_step(built.model, 0.5, [1.0, 0.0], [0.0], 0.01)
        else:
            run_scenario(built)
    assert str(err.value) == "plant has n_states=2, but f returned 3 entries at t=0.51"


def _order2_ultralocal_with_late_rates(monkeypatch, rates, after=0.507):
    """An order-2 ultralocal run whose plant ``f``, a Python function, is ``rates(x, u)`` beyond t = ``after``."""
    factory, params = PLANTS["ultralocal"]

    def faulty(plant_params):
        model, *rest = factory(plant_params)
        f = lambda t, x, u: rates(x, u) if t > after else model.f(t, x, u)  # noqa: E731
        return (dataclasses.replace(model, f=f), *rest)

    monkeypatch.setitem(PLANTS, "ultralocal", (faulty, params))
    return ultralocal_scenario(4.0, order=2, k_d=4.0, drift=0.5, duration=2.0)


# ------------------------------------------------------------------ metrics


def test_metrics_of_zero_deviation():
    m = compute_metrics(make_log(np.zeros(100)))
    assert m.rms_tail_dy == (0.0,)
    assert m.max_abs_dy == (0.0,)


def test_metrics_of_constant_deviation():
    m = compute_metrics(make_log(np.full(10, 2.0)))
    assert m.rms_tail_dy[0] == pytest.approx(2.0, abs=1e-15)
    assert m.max_abs_dy[0] == 2.0


def test_metrics_tail_spike():
    dy = np.zeros(500)
    dy[-1] = 3.0
    m = compute_metrics(make_log(dy))
    assert m.tail_records == 100
    assert m.rms_tail_dy[0] == pytest.approx(0.3, abs=1e-12)
    assert m.max_abs_dy[0] == 3.0


def test_metrics_reject_empty_log():
    with pytest.raises(ConfigurationError, match="cannot compute metrics of an empty log"):
        compute_metrics(make_log(np.zeros(0)))


# ------------------------------------------------------------------- export


def test_csv_header_column_order(tmp_path):
    short = dataclasses.replace(builtin_scenario("paper-sec4"), timing=Timing(duration=0.1, h=0.01))
    path = export_csv(run_scenario(short), tmp_path / "short.csv")
    assert path.read_text().splitlines()[0].split(",") == [
        "t",
        "y1", "y1_ref", "y2", "y2_ref",
        "u1", "u1_nom", "u2", "u2_nom",
        "dy1", "dy2", "du1", "du2",
        "F1_est", "F2_est",
        "F1_valid", "F2_valid",
        "clamp1", "clamp2",
    ]


def test_csv_empty_log_writes_header_only(tmp_path):
    path = export_csv(make_log(np.zeros(0)), tmp_path / "empty.csv")
    lines = path.read_text().splitlines()
    assert lines == ["t,y1,y1_ref,u1,u1_nom,dy1,du1,F1_est,F1_valid,clamp1"]


def test_csv_single_record_is_two_lines(tmp_path):
    path = export_csv(make_log([0.25]), tmp_path / "one.csv")
    assert len(path.read_text().splitlines()) == 2


def test_csv_round_trips_at_full_precision(tmp_path):
    log = run_scenario(ultralocal_scenario(1.0, duration=1.0, drift=0.3))
    path = export_csv(log, tmp_path / "run.csv")
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    n_float = 1 + 4 + 2  # t, y/y_ref/u/u_nom, dy/du ... then f_est, then flags
    for row_text in lines[1:]:
        row = row_text.split(",")
        assert len(row) == len(header)
        for tok in row[:-2]:  # all but the boolean flags
            assert format(float(tok), ".17g") == tok
        assert row[-2] in ("0", "1") and row[-1] in ("0", "1")
    # spot-check a value against the in-memory log
    k = len(lines) // 2
    assert float(lines[k].split(",")[1]) == log.y[k - 1, 0]


def _oracle_csv(log) -> bytes:
    """The log as CSV, one ``format(x, ".17g")`` per field, columns spelled out in order."""
    p, m = log.n_outputs, log.n_controls
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731
    header = ["t"]
    for i in range(1, p + 1):
        header += [f"y{i}", f"y{i}_ref"]
    for j in range(1, m + 1):
        header += [f"u{j}", f"u{j}_nom"]
    header += [f"dy{i}" for i in range(1, p + 1)]
    for pattern in ("du{}", "F{}_est", "F{}_valid", "clamp{}"):
        header += [pattern.format(j) for j in range(1, m + 1)]
    lines = [",".join(header)]
    for k in range(len(log.t)):
        row = [fmt(log.t[k])]
        for i in range(p):
            row += [fmt(log.y[k, i]), fmt(log.y_ref[k, i])]
        for j in range(m):
            row += [fmt(log.u[k, j]), fmt(log.u_nom[k, j])]
        row += [fmt(log.dy[k, i]) for i in range(p)]
        row += [fmt(log.du[k, j]) for j in range(m)]
        row += [fmt(log.f_est[k, j]) for j in range(m)]
        row += ["1" if log.f_valid[k, j] else "0" for j in range(m)]
        row += ["1" if log.clamped[k, j] else "0" for j in range(m)]
        lines.append(",".join(row))
    return "".join(line + "\n" for line in lines).encode()


_AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, np.inf, -np.inf, np.nan, 0.1, 1 / 3]


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    n=st.integers(0, 600),
    drawn=st.lists(st.floats(), max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_bytes_equal_per_field_oracle(tmp_path_factory, p, m, n, drawn, seed):
    # 0-600 records cross the export's row-chunk boundaries.
    rng = np.random.default_rng(seed)
    pool = np.array(_AWKWARD_FLOATS + drawn)

    def floats(cols):
        values = rng.standard_normal((n, cols)) * 10.0 ** rng.integers(-300, 300, (n, cols))
        return np.where(rng.random((n, cols)) < 0.3, rng.choice(pool, (n, cols)), values)

    log = SimLog(
        channel_T=(0.3,) * m,
        t=floats(1)[:, 0],
        y=floats(p),
        y_ref=floats(p),
        u=floats(m),
        u_nom=floats(m),
        dy=floats(p),
        du=floats(m),
        f_est=floats(m),
        f_valid=rng.random((n, m)) < 0.5,
        clamped=rng.random((n, m)) < 0.5,
    )
    path = export_csv(log, tmp_path_factory.getbasetemp() / "oracle.csv")
    assert path.read_bytes() == _oracle_csv(log)


_CHUNK = heol_scenarios._CSV_CHUNK

#: ``_AWKWARD_FLOATS`` and a NaN whose payload differs from ``np.nan``'s
_RUN_VALUES = np.array(_AWKWARD_FLOATS + [np.array(0x7FF8000000000001, np.uint64).view(np.float64)])


def _piecewise_constant_log(rng, n: int, p: int, m: int) -> SimLog:
    """A log of ``n`` records whose columns are runs of 1-600 repeats of one value, so that runs both
    fill and straddle the export's 256-row chunks.  Every ``y_ref`` and ``clamped`` column, and a
    quarter of the others, holds one value over the whole log; ``y1`` holds a run of ``0.0`` with one
    ``-0.0`` inside it."""

    def runs(cols, pool, whole_log=False):
        out = np.empty((n, cols), pool.dtype)
        for j in range(cols):
            if whole_log or rng.random() < 0.25:
                out[:, j] = rng.choice(pool)
            else:
                lengths = rng.integers(1, 601, n + 1)
                out[:, j] = np.repeat(rng.choice(pool, n + 1), lengths)[:n]
        return out

    flags = np.array([False, True])
    y = runs(p, _RUN_VALUES)
    if n:  # the zero run fills the chunk at ``start``
        start = _CHUNK * rng.integers(-(-n // _CHUNK))
        y[start : start + 300, 0] = 0.0
        y[rng.integers(start, min(start + _CHUNK, n)), 0] = -0.0
    return SimLog(
        channel_T=(0.3,) * m,
        t=runs(1, _RUN_VALUES)[:, 0],
        y=y,
        y_ref=runs(p, _RUN_VALUES, whole_log=True),
        u=runs(m, _RUN_VALUES),
        u_nom=runs(m, _RUN_VALUES),
        dy=runs(p, _RUN_VALUES),
        du=runs(m, _RUN_VALUES),
        f_est=runs(m, _RUN_VALUES),
        f_valid=runs(m, flags),
        clamped=runs(m, flags, whole_log=True),
    )


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(1, 2),
    m=st.integers(1, 2),
    n=st.integers(0, 1100),
    seed=st.integers(0, 2**32 - 1),
)
def test_csv_bytes_of_piecewise_constant_logs_equal_per_field_oracle(tmp_path_factory, p, m, n, seed):
    # a column holding one bit pattern over a chunk is formatted once for it; -0.0 and 0.0 stay apart
    log = _piecewise_constant_log(np.random.default_rng(seed), n, p, m)
    path = export_csv(log, tmp_path_factory.getbasetemp() / "runs.csv")
    assert path.read_bytes() == _oracle_csv(log)


def test_piecewise_constant_csv_bytes_do_not_depend_on_the_formatting_helper(tmp_path, monkeypatch):
    log = _piecewise_constant_log(np.random.default_rng(25), 2600, 2, 2)  # 11 chunks, 49,400 values
    forks, helpers = _count_forks(monkeypatch), _two_cpus(monkeypatch)
    shared = export_csv(log, tmp_path / "shared.csv").read_bytes()
    assert len(forks) == helpers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alone = export_csv(log, tmp_path / "alone.csv").read_bytes()
    assert len(forks) == helpers
    assert shared == alone == _oracle_csv(log)


@pytest.mark.parametrize("y_dtype", [object, np.float64])
def test_csv_bytes_of_other_dtypes_equal_per_field_oracle(tmp_path, y_dtype):
    # float32, int64 and object columns go row by row, whichever columns beside them are constant
    n, rng = 700, np.random.default_rng(7)
    log = _piecewise_constant_log(rng, n, 2, 1)
    for field in ("u", "u_nom", "dy", "du", "f_est", "f_valid", "clamped"):
        getattr(log, field)[:_CHUNK] = getattr(log, field)[0]  # the first chunk stacks only t, y and y_ref
    ints = np.repeat(rng.choice([0, -3, 2**53 + 1, -(2**62)], 7), 100)
    y = np.full((n, 2), 0.1, dtype=y_dtype)
    if y_dtype is object:
        y[::3, 1] = -7  # a Python int
    log = dataclasses.replace(
        log,
        t=np.linspace(0.0, 7.0, n, dtype=np.float32),
        y=y,
        y_ref=np.column_stack([ints, ints[::-1]]),
    )
    path = export_csv(log, tmp_path / "dtypes.csv")
    assert path.read_bytes() == _oracle_csv(log)


def _awkward_log(n: int) -> SimLog:
    """A log of ``n`` records, two outputs and two controls, 30 % of its floats from ``_AWKWARD_FLOATS``."""
    rng = np.random.default_rng(n)

    def floats(cols):
        values = rng.standard_normal((n, cols)) * 10.0 ** rng.integers(-300, 300, (n, cols))
        return np.where(rng.random((n, cols)) < 0.3, rng.choice(_AWKWARD_FLOATS, (n, cols)), values)

    return SimLog(
        channel_T=(0.3, 0.3),
        t=floats(1)[:, 0],
        y=floats(2),
        y_ref=floats(2),
        u=floats(2),
        u_nom=floats(2),
        dy=floats(2),
        du=floats(2),
        f_est=floats(2),
        f_valid=rng.random((n, 2)) < 0.5,
        clamped=rng.random((n, 2)) < 0.5,
    )


@functools.cache
def _awkward_csv(n: int) -> tuple[SimLog, bytes]:
    """``_awkward_log(n)`` and its oracle CSV, built once per size and shared read-only."""
    log = _awkward_log(n)
    return log, _oracle_csv(log)


def test_csv_bytes_do_not_depend_on_the_formatting_helper(tmp_path, monkeypatch):
    log, oracle = _awkward_csv(2000)  # 8 chunks of 256 rows
    forks, helpers = _count_forks(monkeypatch), _two_cpus(monkeypatch)
    assert not heol_scenarios._csv_fork_helps(256, 1000)  # a single chunk, however wide
    export_csv(_awkward_log(768), tmp_path / "short.csv")
    assert forks == []  # 768 rows x 19 columns: too few values to pay for a fork (``_CSV_HELPER_MIN_VALUES``)
    shared = export_csv(log, tmp_path / "shared.csv").read_bytes()
    assert len(forks) == helpers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    alone = export_csv(log, tmp_path / "alone.csv").read_bytes()
    assert len(forks) == helpers  # none on one CPU
    assert shared == alone == oracle


@pytest.mark.parametrize("fault", ["missing-directory", "helper-raises"])
def test_a_failing_export_leaves_no_process(tmp_path, monkeypatch, fault):
    destination = tmp_path / "out.csv"
    if fault == "missing-directory":
        destination = tmp_path / "missing" / "out.csv"
    else:
        if not _two_cpus(monkeypatch):
            pytest.skip("other threads run on Python 3.12+, so no formatting helper")
        _fail_in_the_helper(monkeypatch)
    with pytest.raises(ExportError, match=re.escape(str(destination))):
        export_csv(_awkward_csv(2000)[0], destination)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_an_export_without_a_spare_process_formats_alone(tmp_path, monkeypatch, call):
    def refused(*args):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    (log, oracle), _ = _awkward_csv(2000), _two_cpus(monkeypatch)
    open_fds = len(os.listdir("/dev/fd"))
    monkeypatch.setattr(os, call, refused)
    assert export_csv(log, tmp_path / "out.csv").read_bytes() == oracle
    assert len(os.listdir("/dev/fd")) == open_fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_export_survives_an_ignored_sigchld(tmp_path, monkeypatch):
    # with SIGCHLD ignored the kernel reaps the helper, and waiting for it raises ChildProcessError
    (log, oracle), helpers = _awkward_csv(2000), _two_cpus(monkeypatch)
    if not helpers:
        pytest.skip("other threads run on Python 3.12+, so no formatting helper")
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert export_csv(log, tmp_path / "out.csv").read_bytes() == oracle
        _fail_in_the_helper(monkeypatch)
        with pytest.raises(ExportError, match="its formatting helper sent no text for row 256$"):
            export_csv(log, tmp_path / "failed.csv")
    finally:
        signal.signal(signal.SIGCHLD, previous)


def test_metrics_file_is_flat_key_value_text(tmp_path):
    log = run_scenario(ultralocal_scenario(1.0, duration=1.0))
    path = export_metrics(compute_metrics(log), tmp_path / "m.txt")
    text = path.read_text()
    for key in ("n_records", "rms_tail_dy1", "max_abs_dy1", "max_abs_du1", "warmup_T1"):
        assert f"{key} = " in text


# ------------------------------------------------------------ serialisation


def test_builtin_scenarios_round_trip_through_dict():
    for name in builtin_names():
        s = builtin_scenario(name)
        assert scenario_from_dict(scenario_to_dict(s)) == s


def test_comment_keys_are_ignored():
    d = scenario_to_dict(builtin_scenario("paper-sec4"))
    d["# purpose"] = "regression workload"
    d["timing"]["# note"] = "matches the published run"
    d["channels"][0]["# why"] = "first output, first-order model"
    assert scenario_from_dict(d) == builtin_scenario("paper-sec4")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
TAGS = st.text(max_size=12)
GAINS = FINITE.filter(lambda v: abs(v) > 1e-9)


def _or_default(default, values):
    return st.just(default) | values


@st.composite
def channel_specs(draw, output):
    source = draw(st.sampled_from(["derived", "formula", "constant"]))
    return ChannelSpec(
        output=output,
        order=draw((st.none() if source == "derived" else st.nothing()) | st.sampled_from([1, 2])),
        alpha_source=source,
        alpha_value=draw(GAINS) if source == "constant" else None,
        estimator_T=draw(_or_default(0.3, POSITIVE)),
        pole=draw(st.floats(min_value=-10.0, max_value=-0.01)),
        pole_multiplicity=draw(st.sampled_from([None, 1, 2])),
        nominal=draw(_or_default("zero", TAGS)),
        saturation=draw(st.none() | st.tuples(FINITE, FINITE).filter(lambda s: s[0] < s[1])),
    )


REFERENCES = st.fixed_dictionaries({"type": st.just("constant"), "value": FINITE}) | st.fixed_dictionaries(
    {"type": st.just("smoothstep"), "from": FINITE, "to": FINITE, "t_start": FINITE, "t_end": FINITE}
)
PLANT_PARAMS = {
    "flat-benchmark-2x2": st.just({}),
    "ultralocal": st.fixed_dictionaries(
        {}, optional={"order": st.sampled_from([1, 2]), "f": FINITE, "gain": FINITE}
    ),
}


NAMES = st.text(max_size=12).map(lambda s: "".join(c for c in s if c not in "/\\\0")).filter(
    lambda s: s not in ("", ".", "..")
)


@st.composite
def scenarios(draw):
    plant = draw(st.sampled_from(sorted(PLANT_PARAMS)))
    n = 2 if plant == "flat-benchmark-2x2" else 1
    h = draw(POSITIVE)
    return Scenario(
        name=draw(NAMES),
        plant=plant,
        plant_params=draw(PLANT_PARAMS[plant]),
        timing=Timing(duration=draw(st.integers(1, 10**4)) * h, h=h),
        references=tuple(draw(st.lists(REFERENCES, min_size=n, max_size=n))),
        channels=tuple(draw(channel_specs(i)) for i in range(n)),
        mismatch=draw(st.none() | st.builds(MismatchSpec, st.tuples(*[POSITIVE] * n))),
        control_mode=draw(st.sampled_from(["closed-loop", "feedforward"])),
        noise_std=draw(_or_default(0.0, POSITIVE)),
        noise_seed=draw(_or_default(0, st.integers(min_value=0, max_value=2**64))),
        rms_fraction=draw(_or_default(0.01, st.floats(min_value=1e-6, max_value=1.0))),
    )


def _sprinkle(node, rnd):
    """Add ``#`` comment keys and explicit defaults at random depths."""
    if isinstance(node, list):
        for item in node:
            _sprinkle(item, rnd)
    elif isinstance(node, dict):
        for value in list(node.values()):
            _sprinkle(value, rnd)
        if rnd.random() < 0.5:
            node[f"# {rnd.randrange(10)}"] = rnd.choice([None, "note", [1, {"unknown": 2}]])
        if "timing" in node and rnd.random() < 0.5:
            node.setdefault("control_mode", "closed-loop")
            node.setdefault("metrics", {"rms_fraction": 0.01})
        if "output" in node and rnd.random() < 0.5:
            node.setdefault("estimator", {}).setdefault("T", 0.3)
            node.setdefault("nominal", "zero")


@settings(max_examples=60, deadline=None)
@given(scenarios(), st.randoms(use_true_random=False))
def test_scenario_round_trips_through_json(s, rnd):
    d = json.loads(json.dumps(scenario_to_dict(s)))
    _sprinkle(d, rnd)
    assert scenario_from_dict(d) == s


def test_every_configuration_field_declares_its_json_path_and_rule():
    # a field without them would be unreachable from a scenario file
    for cls in (Timing, ChannelSpec, Scenario):
        for f in dataclasses.fields(cls):
            if f.init:
                assert f.metadata.get("path") and f.metadata.get("rule"), f"{cls.__name__}.{f.name}"


#: values every constructor must type or refuse with a ConfigurationError
ODD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, "a", None, True, 1.5, np.float64(2.0), np.int64(2), np.float32(math.nan)]
)
VALID_FIELDS = {
    Timing: {"duration": st.sampled_from([1.0, 2]), "h": st.sampled_from([0.01, 0.5])},
    ChannelSpec: {
        "output": st.integers(0, 1),
        "order": st.sampled_from([None, 1, 2]),
        "alpha_source": st.sampled_from(["derived", "formula", "constant"]),
        "alpha_value": st.none() | GAINS,
        "estimator_T": st.just(0.3),
        "pole": st.just(-1.0),
        "pole_multiplicity": st.sampled_from([None, 1, 2]),
        "nominal": st.just("zero"),
        "saturation": st.none() | st.just((-1.0, 1.0)),
    },
    Scenario: {
        "name": st.just("s"),
        "plant": st.just("ultralocal"),
        "timing": st.just(Timing(duration=1.0, h=0.01)),
        "channels": st.just((ChannelSpec(output=0, order=1, alpha_source="constant", alpha_value=1.0, pole=-1.0),)),
        "control_mode": st.sampled_from(["closed-loop", "feedforward"]),
        "noise_std": st.sampled_from([0.0, 1e-3]),
        "noise_seed": st.sampled_from([0, 7]),
        "rms_fraction": st.just(0.01),
    },
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(VALID_FIELDS, key=lambda cls: cls.__name__)), st.data())
def test_constructors_type_each_field_or_raise_configuration_errors(cls, data):
    # references, plant_params and mismatch keep checks of their own and are left at valid values
    kwargs = {name: data.draw(valid | ODD_VALUES, label=name) for name, valid in VALID_FIELDS[cls].items()}
    if cls is Scenario:
        kwargs["references"] = ({"type": "constant", "value": 1.0},)
    try:
        built = cls(**kwargs)
    except ConfigurationError:
        return
    for f in dataclasses.fields(cls):  # a built object holds each scalar as its rule loads it
        value, kind = getattr(built, f.name), getattr(f.metadata.get("rule"), "type", None)
        assert value is None or kind is None or type(value) is kind, f.name


def test_missing_and_malformed_keys_are_configuration_errors():
    good = scenario_to_dict(builtin_scenario("paper-sec4"))
    for key in ("name", "plant", "timing", "references", "channels"):
        bad = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ConfigurationError):
            scenario_from_dict(bad)
    # integers must be integral JSON numbers and tags strings; unknown keys
    # (timing.t0, tau_f, gains, alpha.tag, estimator.rule and
    # allow_shared_outputs among them), a channel without a pole, keys
    # the alpha source does not read, a zero constant gain, a pole
    # multiplicity other than the channel order, a channel order other than 1
    # or 2 and names leaving the output directory fail too.  Each message names the key
    # at fault, and an object's own checks are prefixed with its JSON path.
    derived_without_order = {
        "output": 1,
        "alpha": {"source": "derived"},  # derives order 1
        "pole": {"value": -0.15, "multiplicity": 2},
        "nominal": "flat-u2-miscoeff",
    }
    without_pole = {k: v for k, v in good["channels"][0].items() if k != "pole"}
    for path, value, named in [
        (("timing", "duration"), "hundred and fifty", "timing.duration"),
        (("timing", "t0"), 0.0, "unknown key timing.t0"),
        (("channels", 0, "tau_f"), 0.05, "unknown key channels[0].tau_f"),
        (("channels", 0, "gains"), {"kp": 1.0}, "unknown key channels[0].gains"),
        (("channels", 0), without_pole, "missing key channels[0].pole"),
        (("timing", "dt"), 0.01, "timing.dt"),
        (("timing", "substeps"), 1, "timing.substeps"),
        (("mismatch", "control_perturbation"), "u2-coeff-1.1-0.9", "mismatch.control_perturbation"),
        (("channels", 0, "estimator"), {"T": "0.3"}, "channels[0].estimator.T"),
        (
            ("plant",),
            {"name": "flat-benchmark-2x2", "params": {"analytic_partials": "yes"}},
            "unknown key plant.params.analytic_partials",
        ),
        (("name",), {"first": "paper"}, "name"),
        (("name",), "../escape", "scenario name"),
        (("channels", 0, "output"), 1.7, "channels[0].output"),
        (("channels", 0, "order"), True, "channels[0].order"),
        (("channels", 1, "pole", "multiplicity"), 2.5, "channels[1].pole.multiplicity"),
        (("channels", 1, "pole", "multiplicity"), 1, "channel 2: pole.multiplicity 1 needs an order-1 channel"),
        (("channels", 1, "estimator"), {"T": -1}, "channels[1]: estimator window length must be positive"),
        (("timing", "duration"), 150.005, "timing: duration 150.005 is not a multiple"),
        (("noise",), {"std": 1e-3, "seed": 0.5}, "noise.seed"),
        (("noise",), {"std": 1e-3, "seed": False}, "noise.seed"),
        (("noise",), {"std": 1e-3, "seed": -1}, "noise seed"),
        (("allow_shared_outputs",), False, "unknown key allow_shared_outputs"),
        (("channels", 0, "alpha"), {"source": "formula", "tag": "ref0-squared"}, "unknown key channels[0].alpha.tag"),
        (("channels", 1, "estimator"), {"T": 0.3, "rule": "simpson"}, "unknown key channels[1].estimator.rule"),
        (("channels", 0, "alpha"), {"source": "formula", "value": 3}, "alpha.value"),
        (("channels", 1, "alpha"), {"source": "constant", "value": 0}, "channels[1]: alpha.value 0.0 is a zero"),
        (("channels", 0, "alpha"), {"source": "derived", "value": 3}, "alpha.value"),
        (("channels", 0, "pole", "multiplicity"), 2, "channel 1: pole.multiplicity 2 needs an order-2 channel"),
        (("channels", 1), derived_without_order, "channel 2: pole.multiplicity 2 needs an order-2 channel"),
        (("channels", 1, "order"), 0, "channels[1]: channel order must be 1 or 2, got 0"),
        (("channels", 1, "order"), -1, "channels[1]: channel order must be 1 or 2, got -1"),
        (("channels", 1, "order"), 3, "channels[1]: channel order must be 1 or 2, got 3"),
    ]:
        mangled = json.loads(json.dumps(good))
        *parents, key = path
        target = mangled
        for part in parents:
            target = target[part]
        target[key] = value
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            validate_scenario(scenario_from_dict(mangled))
    # formula alpha is the plant's closed form of the channel's gain; ultralocal registers none
    formula = scenario_to_dict(ultralocal_scenario(1.0))
    formula["channels"][0]["alpha"] = {"source": "formula"}
    with pytest.raises(ConfigurationError, match="^channel 1: plant 'ultralocal' registers no formula alpha$"):
        validate_scenario(scenario_from_dict(formula))
    integral = json.loads(json.dumps(good))
    integral["channels"][0]["output"] = 0.0
    assert scenario_from_dict(integral) == builtin_scenario("paper-sec4")


def _ultralocal_with(key, value):
    d = {**scenario_to_dict(ultralocal_scenario(1.0)), key: value}
    return lambda: validate_scenario(scenario_from_dict(d))


def _sec4_with(**changes):
    return lambda: dataclasses.replace(builtin_scenario("paper-sec4"), **changes)


def _relation(orders, control_index=0):
    return lambda: ImplicitFlatRelation(orders, control_index, residual=lambda tb, u: 0.0)


def _derive_first_benchmark_channel(n_refs, horizon=(0.0, 10.0), **options):
    refs = (make_constant(1.0),) * n_refs
    return lambda: derive_channel(benchmark_relations()[0], refs, horizon, **options)


@pytest.mark.parametrize(
    "build, message",
    [
        (_relation(()), "relation needs at least one output"),
        (_relation((-1,)), "derivative orders must be non-negative"),
        (_relation((1,), control_index=1), "control index 1 out of range for 1 channels"),
        (_derive_first_benchmark_channel(1), "relation expects 2 references, got 1"),
        (_derive_first_benchmark_channel(2, output_index=2), "output index 2 out of range"),
        (_relation((1,), control_index=0.5), "control_index must be an integer, got 0.5"),
        (_relation((1.5,)), "orders[0] must be an integer, got 1.5"),
        (_relation((1, "1")), "orders[1] must be an integer, got '1'"),
        (_derive_first_benchmark_channel(2, ("a", 1)), "horizon[0] must be a finite number, got 'a'"),
        (_derive_first_benchmark_channel(2, (None, 1)), "horizon[0] must be a finite number, got None"),
        (_derive_first_benchmark_channel(2, (0, 1, 2)), "horizon needs a pair (t_lo, t_hi), got (0, 1, 2)"),
        (_derive_first_benchmark_channel(2, output_index="0"), "output_index must be an integer, got '0'"),
        (_derive_first_benchmark_channel(2, order_override=1.5), "order_override must be an integer, got 1.5"),
        (
            _ultralocal_with("plant", {"name": "ultralocal", "params": {"order": 3}}),
            "ultralocal plant order must be 1 or 2, got 3",
        ),
        (
            _ultralocal_with("plant", {"name": "ultralocal", "params": {"gain": 0}}),
            "ultralocal plant gain must be nonzero",
        ),
        (_ultralocal_with("plant", "ultralocal"), "plant must be a JSON object, got 'ultralocal'"),
        (_ultralocal_with("references", [1.0]), "references[0] must be a JSON object, got 1.0"),
        (lambda: ChannelSpec(output=0, pole="a"), "pole must be a finite number, got 'a'"),
        *[
            (lambda p=p: ChannelSpec(output=0, order=1, alpha_source="constant", alpha_value=1.0, pole=p),
             message)
            for p, message in [
                (math.nan, "pole must be a strictly negative real, got nan"),
                (math.inf, "pole must be a strictly negative real, got inf"),
                (1.0, "pole must be a strictly negative real, got 1.0"),
            ]
        ],
        (lambda: ChannelSpec(output="0", pole=-1.0), "output must be an integer, got '0'"),
        (lambda: ChannelSpec(output=True, pole=-1.0), "output must be an integer, got True"),
        (
            lambda: ChannelSpec(output=0, pole=-1.0, saturation=("a", "b")),
            "saturation[0] must be a finite number, got 'a'",
        ),
        (lambda: ChannelSpec(output=0, pole=-1.0, estimator_T="a"), "estimator_T must be a finite number, got 'a'"),
        (lambda: ChannelSpec(output=0, pole=-1.0, estimator_T=None), "estimator_T must be a finite number, got None"),
        (
            lambda: ChannelSpec(output=0, pole=-1.0, estimator_T=10**400),
            f"estimator_T must be a finite number, got {10**400}",
        ),
        (
            lambda: ChannelSpec(output=0, order=1, pole=-1.0, alpha_source="constant", alpha_value="a"),
            "alpha_value must be a finite number, got 'a'",
        ),
        (_sec4_with(noise_seed="1"), "noise_seed must be an integer, got '1'"),
        (_sec4_with(noise_seed=True), "noise_seed must be an integer, got True"),
        (_sec4_with(noise_std="1"), "noise_std must be a finite number, got '1'"),
        (_sec4_with(rms_fraction=None), "rms_fraction must be a finite number, got None"),
        (_sec4_with(name=5), "name must be a string, got 5"),
        (lambda: ChannelSpec(output=0, pole=-1.0, saturation=5), "saturation must be a JSON array, got 5"),
        (
            lambda: ChannelSpec(output=0, pole=-1.0, saturation=(-math.inf, 5.0)),
            "saturation bounds must be finite, got (-inf, 5.0)",
        ),
    ],
    ids=[
        "no-outputs",
        "negative-order",
        "control-index",
        "reference-count",
        "output-index",
        "relation-control-index-fraction",
        "relation-order-fraction",
        "relation-order-string",
        "horizon-string",
        "horizon-none",
        "horizon-triple",
        "output-index-string",
        "order-override-fraction",
        "ultralocal-order",
        "ultralocal-gain",
        "plant-string",
        "reference-number",
        "channel-pole-string",
        "channel-pole-nan",
        "channel-pole-inf",
        "channel-pole-positive",
        "channel-output-string",
        "channel-output-bool",
        "channel-saturation-strings",
        "channel-estimator-T-string",
        "channel-estimator-T-none",
        "channel-estimator-T-beyond-float",
        "channel-alpha-value-string",
        "scenario-noise-seed-string",
        "scenario-noise-seed-bool",
        "scenario-noise-std-string",
        "scenario-rms-fraction-none",
        "scenario-name-int",
        "channel-saturation-int",
        "channel-saturation-infinite",
    ],
)
def test_relation_and_plant_input_checks(build, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "key, value",
    [
        ("noise", {"std": math.nan}),
        ("tau_f", math.nan),
        ("alpha", {"source": "constant", "value": math.nan}),
        ("saturation", [-5.0, 5.0, 9.0]),
        ("references", [{"type": "constant", "value": math.nan}]),
        (
            "references",
            [{"type": "smoothstep", "from": 1.0, "to": math.inf, "t_start": 1.0, "t_end": 2.0}],
        ),
        ("references", [{"type": "constant"}]),
        ("references", [{"type": "constant", "value": "abc"}]),
        ("plant", {"name": "ultralocal", "params": {"order": "x"}}),
        ("nominal", ["flat-u1"]),
    ],
    ids=[
        "noise-std-nan",
        "tau_f-nan",
        "alpha-value-nan",
        "saturation-three-entries",
        "constant-reference-nan",
        "smoothstep-reference-infinity",
        "reference-without-value",
        "reference-value-string",
        "ultralocal-order-string",
        "nominal-list",
    ],
)
def test_non_finite_numbers_and_bad_saturation_are_rejected(key, value):
    d = scenario_to_dict(ultralocal_scenario(1.0))
    (d if key in ("noise", "references", "plant") else d["channels"][0])[key] = value
    with pytest.raises(ConfigurationError):
        validate_scenario(scenario_from_dict(d))


def test_load_scenario_from_file(tmp_path):
    s = ultralocal_scenario(1.0)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario_to_dict(s)))
    assert load_scenario(path) == s

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError):
        load_scenario(bad)

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigurationError):
        load_scenario(arr)

    with pytest.raises(ConfigurationError):
        load_scenario(tmp_path / "missing.json")


def test_shipped_example_config_matches_builtin():
    shipped = load_scenario(REPO / "demos" / "paper_sec4.json")
    assert shipped == builtin_scenario("paper-sec4")
