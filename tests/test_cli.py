"""Command-line behaviour: subcommands, exit codes, output locations."""

import dataclasses
import errno
import hashlib
import json
import math
import os
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heol
from heol.cli import cli_main
from heol.errors import ConfigurationError, DivergenceError, SingularChannelError
from heol.plant import MismatchSpec
from heol.scenarios import (
    Timing,
    builtin_scenario,
    export_csv,
    run_scenario,
    scenario_to_dict,
    validate_scenario,
)

from conftest import _count_forks, _fail_in_the_helper, _two_cpus, run_python, ultralocal_scenario
from test_golden import GOLDEN


def write_config(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario_to_dict(scenario)))
    return path


def test_list_prints_builtin_names(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "paper-sec4" in out
    assert "paper-sec4-nominal" in out


def test_validate_builtin_name(capsys):
    assert cli_main(["validate", "--config", "paper-sec4"]) == 0
    assert "paper-sec4: ok" in capsys.readouterr().out


def test_validate_scenario_file(tmp_path, capsys):
    path = write_config(tmp_path, ultralocal_scenario(1.0))
    assert cli_main(["validate", "--config", str(path)]) == 0
    assert ": ok" in capsys.readouterr().out


def test_run_writes_csv_and_metrics(tmp_path, capsys):
    s = ultralocal_scenario(1.0, name="cli-smoke", duration=1.0)
    path = write_config(tmp_path, s)
    out_dir = tmp_path / "results"
    assert cli_main(["run", "--config", str(path), "--out", str(out_dir)]) == 0
    assert (out_dir / "cli-smoke.csv").exists()
    assert (out_dir / "cli-smoke.metrics.txt").exists()
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(out_dir / "cli-smoke.csv"), str(out_dir / "cli-smoke.metrics.txt")]


def test_out_dir_env_var_is_the_default(tmp_path, monkeypatch):
    s = ultralocal_scenario(1.0, name="env-run", duration=1.0)
    path = write_config(tmp_path, s)
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("HEOL_OUT_DIR", str(env_dir))
    assert cli_main(["run", "--config", str(path)]) == 0
    assert (env_dir / "env-run.csv").exists()

    # an explicit --out wins over the environment
    flag_dir = tmp_path / "from-flag"
    assert cli_main(["run", "--config", str(path), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "env-run.csv").exists()


def test_usage_errors_exit_2(capsys):
    assert cli_main([]) == 2
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["run"]) == 2  # --config is required
    capsys.readouterr()


def test_channel_count_mismatch_exits_3(tmp_path, capsys):
    base = builtin_scenario("paper-sec4")
    lopsided = dataclasses.replace(base, name="lopsided", channels=base.channels[:1])
    path = write_config(tmp_path, lopsided)
    assert cli_main(["validate", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert "invalid scenario" in err and "1" in err and "2" in err
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3


def test_output_index_out_of_range_names_its_channel(tmp_path, capsys):
    base = builtin_scenario("paper-sec4")
    bad = dataclasses.replace(base, channels=(base.channels[0], dataclasses.replace(base.channels[1], output=5)))
    with pytest.raises(ConfigurationError, match="^channel 2: output index 5 out of range$"):
        validate_scenario(bad)
    assert cli_main(["validate", "--config", str(write_config(tmp_path, bad))]) == 3
    assert "channel 2: output index 5 out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "pole, message",
    [
        (math.nan, "channels[0].pole.value must be a finite number, got nan"),
        (math.inf, "channels[0].pole.value must be a finite number, got inf"),
        (1.0, "channels[0]: pole must be a strictly negative real, got 1.0"),
    ],
)
def test_a_pole_that_places_no_stable_root_exits_3(tmp_path, capsys, pole, message):
    bad = scenario_to_dict(ultralocal_scenario(1.0))
    bad["channels"][0]["pole"]["value"] = pole  # json writes NaN and Infinity, and reads them back
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"heol: invalid scenario: {message}\n"


def test_non_object_channel_entries_exit_3(tmp_path, capsys):
    good = scenario_to_dict(ultralocal_scenario(1.0))
    bad = dict(good, channels=[1, 1])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert "invalid scenario" in capsys.readouterr().err

    for key in ("alpha", "estimator", "pole"):
        bad = json.loads(json.dumps(good))
        bad["channels"][0][key] = 1
        path.write_text(json.dumps(bad))
        assert cli_main(["validate", "--config", str(path)]) == 3
        assert f"channels[0].{key} must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("value", (0, 1e-300))
def test_zero_constant_alpha_exits_3_at_validate(tmp_path, capsys, value):
    # the run would divide by it and exit 4; the file is rejected when it loads
    config = scenario_to_dict(ultralocal_scenario(1.0))
    config["channels"][0]["alpha"]["value"] = value
    path = tmp_path / "zero-alpha.json"
    path.write_text(json.dumps(config))
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert f"channels[0]: alpha.value {float(value)!r} is a zero channel gain" in capsys.readouterr().err


def test_oversized_grid_exits_3_before_allocating(tmp_path):
    # in a process of its own: a regression would allocate the grid
    path = tmp_path / "huge.json"
    for key, value in (("duration", 1e15), ("h", 5e-324)):  # duration/h overflows to inf
        bad = scenario_to_dict(ultralocal_scenario(1.0))
        bad["timing"][key] = value
        path.write_text(json.dumps(bad))
        for command in (["validate"], ["run", "--out", str(tmp_path)]):
            proc = run_python("-m", "heol.cli", *command, "--config", str(path))
            assert proc.returncode == 3
            assert "grid points" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "order, timing, T, reference, message",
    [
        # T / h overflows to inf
        (1, {"duration": 1e-8, "h": 1e-10}, 1e300, 1.0, "estimator window T=1e+300 at h=1e-10 gives inf grid"),
        # a window of 10^8 samples, whose weights alone would take 763 MiB per kernel
        (1, {"duration": 1.0}, 1e6, 1.0, "estimator window T=1000000.0 at h=0.01 gives 1e+08 grid"),
        # 60 / T**5 divides by an underflowed 0 or by an overflowing power
        (2, {"duration": 1e-98, "h": 1e-100}, 3e-99, 1.0, "estimator window T=3e-99: T**5 leaves the float"),
        (2, {"duration": 1e80, "h": 1e78}, 3e79, 1.0, "estimator window T=3e+79: T**5 leaves the float"),
        # the state starts where the run's divergence guard would stop it
        (1, {}, 0.3, 1e10, "initial state [15000000000.0] is outside the trust region"),
    ],
    ids=["window-overflows-to-inf", "window-too-long", "kernel-underflows", "kernel-overflows", "x0-outside"],
)
def test_unrunnable_windows_and_starts_exit_3_at_validate(tmp_path, capsys, order, timing, T, reference, message):
    bad = scenario_to_dict(ultralocal_scenario(1.0, order=order, k_d=2.0 if order == 2 else None))
    bad["timing"].update(timing)
    bad["channels"][0]["estimator"] = {"T": T}
    bad["references"][0]["value"] = reference
    path = tmp_path / "unrunnable.json"
    path.write_text(json.dumps(bad))
    for command in (["validate"], ["run", "--out", str(tmp_path)]):
        args = [*command, "--config", str(path)]
        if T == 1e6:  # in a process of its own: a regression would allocate the 10^8-sample window
            proc = run_python("-m", "heol.cli", *args)
            code, err = proc.returncode, proc.stderr
        else:
            code, err = cli_main(args), capsys.readouterr().err
        assert code == 3, err
        assert message in err and "Traceback" not in err


def test_reference_without_value_exits_3(tmp_path, capsys):
    bad = scenario_to_dict(ultralocal_scenario(1.0))
    del bad["references"][0]["value"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli_main(["validate", "--config", str(path)]) == 3
    assert "missing key references[0].value" in capsys.readouterr().err


def test_name_outside_out_dir_exits_3(tmp_path, capsys):
    bad = scenario_to_dict(ultralocal_scenario(1.0, duration=1.0))
    path = tmp_path / "escape.json"
    out = tmp_path / "out"
    # nor can a name whose <name>.metrics.txt exceeds 255 bytes or is not UTF-8
    for name in ("../escape", "sub/run", "sub\\run", "", ".", "..", "x" * 250, "é" * 122, "a\ud800b"):
        path.write_text(json.dumps(dict(bad, name=name)))
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert "not a plain file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["escape.json"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _locations(node, where=()):
    """Path of every value below ``node``, as key/index tuples."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield where + (key,)
        yield from _locations(value, where + (key,))


def _lookup(node, where):
    for key in where:
        node = node[key]
    return node


def _fuzzed_sec4(data) -> dict:
    """``demos/paper_sec4.json`` with one value replaced by arbitrary JSON, or a key inserted or deleted."""
    config = json.loads((Path(__file__).parents[1] / "demos" / "paper_sec4.json").read_text())
    op = data.draw(st.sampled_from(["replace", "insert", "delete"]))
    if op == "insert":
        objects = [()] + [w for w in _locations(config) if isinstance(_lookup(config, w), dict)]
        target = _lookup(config, data.draw(st.sampled_from(objects)))
        target[data.draw(st.text(max_size=8))] = data.draw(JSON_VALUES)
    else:
        *parent, key = data.draw(st.sampled_from(list(_locations(config))))
        if op == "replace":
            _lookup(config, parent)[key] = data.draw(JSON_VALUES)
        else:
            del _lookup(config, parent)[key]
    return config


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_sec4_config_validates_or_exits_3(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(_fuzzed_sec4(data)))
    assert cli_main(["validate", "--config", str(path)]) in (0, 3)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_sec4_config_runs_or_exits_3_or_4(tmp_path_factory, data):
    config = _fuzzed_sec4(data)
    timing = config.get("timing")
    if isinstance(timing, dict):  # keep runs short: at most 1 s, at steps of at least 1 ms
        number = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)  # noqa: E731
        if number(timing.get("duration")) and timing["duration"] > 1.0:
            timing["duration"] = 1.0
        if number(timing.get("h")) and 0.0 < timing["h"] < 1e-3:
            timing["h"] = 1e-3
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzzed-run.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the run loudly
        code = cli_main(["run", "--config", str(path), "--out", str(base / "fuzzed-out")])
    assert code in (0, 3, 4)


def test_nan_partials_are_singular_at_derivation(tmp_path, capsys):
    # y1* = 0 makes E2's control partial 0/0; the derivation must call the
    # channel singular (exit 3), whether or not it searches for the order, and
    # keep numpy quiet.
    config = json.loads((Path(__file__).parents[1] / "demos" / "paper_sec4.json").read_text())
    config["references"][0] = {"type": "constant", "value": 0.0}
    first, second = config["channels"]
    first.update(alpha={"source": "constant", "value": 1.0}, nominal="zero")
    second.update(alpha={"source": "derived"}, nominal="zero")
    for searched in (False, True):
        if searched:
            del second["order"]
        path = tmp_path / f"nan-{searched}.json"
        path.write_text(json.dumps(config))
        for command in (["validate"], ["run", "--out", str(tmp_path)]):
            code, err = cli_main([command[0], "--config", str(path), *command[1:]]), capsys.readouterr().err
            assert code == 3, err
            assert err == (
                "heol: invalid scenario: channel 2: dE/du is not finite at t=0; channel degenerated there\n"
            )


_ALPHAS = {
    "derived": {"source": "derived"},
    "formula": {"source": "formula"},
    "constant": {"source": "constant", "value": 1.0},
}


@pytest.mark.parametrize("alpha", sorted(_ALPHAS))
@pytest.mark.parametrize("tag", ["zero", "flat-u1", "flat-u2", "flat-u2-miscoeff"])
@pytest.mark.parametrize("plant", ["flat-benchmark-2x2", "ultralocal"])
def test_every_feedforward_tag_on_every_plant_exits_cleanly(tmp_path, capsys, plant, tag, alpha):
    # a plant resolves only the feedforward tags it registers (plus zero): any
    # other tag is a configuration error at validate, never a crash at run
    if plant == "ultralocal":
        config = scenario_to_dict(ultralocal_scenario(1.0, duration=1.0))
    else:
        config = json.loads((Path(__file__).parents[1] / "demos" / "paper_sec4.json").read_text())
        config["timing"]["duration"] = 1.0
    for channel in config["channels"]:
        channel.update(alpha=_ALPHAS[alpha], nominal=tag)
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(config))
    unregistered = plant == "ultralocal" and tag != "zero"
    code = cli_main(["validate", "--config", str(path)])
    assert code == 3 if unregistered else code in (0, 3)
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == 3 if unregistered else code in (0, 3, 4)
    if unregistered:
        message = f"channel 1: plant 'ultralocal' registers no nominal control '{tag}'; registered: ['zero']"
        assert capsys.readouterr().err == f"heol: invalid scenario: {message}\n" * 2


def test_unreadable_configs_exit_3(tmp_path, capsys):
    assert cli_main(["validate", "--config", str(tmp_path / "missing.json")]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{so close")
    assert cli_main(["validate", "--config", str(bad)]) == 3
    assert "invalid scenario" in capsys.readouterr().err


def test_runtime_singularity_exits_4(tmp_path, capsys):
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
    path = write_config(tmp_path, crossing)
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "run failed" in err and "channel 1 at t=2" in err


def test_overflowing_noise_exits_4_without_a_warning(tmp_path):
    config = json.loads((Path(__file__).parents[1] / "demos" / "paper_sec4.json").read_text())
    config["noise"] = {"std": 1e308, "seed": 1}  # some draws of std * N(0, 1) overflow
    path = tmp_path / "loud.json"
    path.write_text(json.dumps(config))
    # as -W error in a process of its own: a warning would end in a traceback
    args = ["run", "--config", str(path), "--out", str(tmp_path)]
    proc = run_python("-m", "heol.cli", *args, PYTHONWARNINGS="error")
    assert proc.returncode == 4, proc.stderr
    assert "measurement noise" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_running_out_of_memory_exits_4_without_a_traceback(tmp_path):
    # a 10^7-point paper-sec4 run passes validate; in a process of its own, under a 1 GiB address-space
    # limit, its reference tables do not fit
    config = scenario_to_dict(builtin_scenario("paper-sec4"))
    config["timing"]["duration"] = 99_999.99
    path = tmp_path / "long.json"
    path.write_text(json.dumps(config))
    assert cli_main(["validate", "--config", str(path)]) == 0
    limited = (
        "import resource, runpy; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "runpy.run_module('heol.cli', run_name='__main__')"
    )
    proc = run_python("-c", limited, "run", "--config", str(path), "--out", str(tmp_path), OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 4, proc.stderr
    assert "run failed" in proc.stderr and "Unable to allocate" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_builds_the_scenario_once(tmp_path, monkeypatch):
    derived = scenario_to_dict(builtin_scenario("paper-sec4"))
    derived["timing"]["duration"] = 1.0
    for channel in derived["channels"]:
        channel["alpha"] = {"source": "derived"}
    path = tmp_path / "derived.json"
    path.write_text(json.dumps(derived))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return derive(*args, **kwargs)

    derive = heol.scenarios._derive  # validate_scenario derives each channel on its one probe table
    monkeypatch.setattr(heol.scenarios, "_derive", counted)
    assert cli_main(["run", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 2  # one derivation per channel


def test_export_failure_exits_1(tmp_path, capsys):
    s = ultralocal_scenario(1.0, name="blocked", duration=1.0)
    path = write_config(tmp_path, s)
    obstacle = tmp_path / "not-a-dir"
    obstacle.write_text("in the way")
    assert cli_main(["run", "--config", str(path), "--out", str(obstacle)]) == 1
    assert "export failed" in capsys.readouterr().err


# -------------------------------------------- heol run formats the CSV as the loop runs (where a helper pays)


def _sec4_20s():
    """``paper-sec4`` cut to 20 s: 2,001 rows x 19 columns, enough values for the formatting helper."""
    return dataclasses.replace(builtin_scenario("paper-sec4"), timing=Timing(duration=20.0, h=0.01))


def _announced(monkeypatch, forks: list[int]) -> list[tuple[int, int]]:
    """Wrap the run that ``heol run`` steps; each chunk the loop ends appends its end row and the count of
    ``forks`` by then."""
    chunks, simulate = [], heol.cli._simulate

    def counted(built):
        steps = simulate(built)
        yield next(steps)
        for end in steps:
            chunks.append((end, len(forks)))
            yield end

    monkeypatch.setattr(heol.cli, "_simulate", counted)
    return chunks


def _assert_nothing_left(open_fds: int):
    """No child process to reap and as many open descriptors as ``open_fds``."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/dev/fd")) == open_fds


@pytest.mark.parametrize("name", ["paper-sec4", "paper-sec4-noisy-saturated"])
def test_a_streamed_run_writes_the_golden_csv(tmp_path, monkeypatch, name):
    make, digest = GOLDEN[name]  # the noisy, saturated run's clamp column flips
    scenario = make()
    helpers, forks = _two_cpus(monkeypatch), _count_forks(monkeypatch)
    announced = _announced(monkeypatch, forks)
    open_fds = len(os.listdir("/dev/fd"))
    assert cli_main(["run", "--config", str(write_config(tmp_path, scenario)), "--out", str(tmp_path)]) == 0
    assert len(forks) == helpers and announced[0][1] == helpers  # the helper is forked before the first sample
    n_points = scenario.timing.n_points
    assert [end for end, _ in announced] == [*range(256, n_points, 256), n_points]
    assert hashlib.sha256((tmp_path / f"{scenario.name}.csv").read_bytes()).hexdigest() == digest
    _assert_nothing_left(open_fds)


def test_a_streamed_run_formats_every_chunk_before_it_sends_one(tmp_path, monkeypatch):
    # a helper that sent a block during the loop would stall on the full pipe, and on a long run the loop too
    if not _two_cpus(monkeypatch):
        pytest.skip("other threads run on Python 3.12+, so no formatting helper")
    parent, chunk, block = os.getpid(), heol.scenarios._csv_chunk, heol.scenarios._csv_block
    formatted, seen = tmp_path / "formatted", []

    def logged_chunk(columns, row, k):
        if os.getpid() != parent:
            with open(formatted, "a") as fh:
                fh.write(f"{k}\n")
        return chunk(columns, row, k)

    def counted_block(blocks, path, k):
        text = block(blocks, path, k)
        seen.append(len(formatted.read_text().split()))
        return text

    monkeypatch.setattr(heol.scenarios, "_csv_chunk", logged_chunk)
    monkeypatch.setattr(heol.scenarios, "_csv_block", counted_block)
    assert cli_main(["run", "--config", str(write_config(tmp_path, _sec4_20s())), "--out", str(tmp_path)]) == 0
    assert seen == [8] * 8  # 2,001 rows: all 8 chunks formatted before the first block arrived


def test_a_short_run_forks_no_helper(tmp_path, monkeypatch):
    scenario = ultralocal_scenario(1.0, name="short", duration=10.0)  # 1,001 rows x 10 columns
    assert scenario.timing.n_points * 10 < heol.scenarios._CSV_HELPER_MIN_VALUES
    expected = export_csv(run_scenario(scenario), tmp_path / "expected.csv").read_bytes()
    _two_cpus(monkeypatch)
    forks = _count_forks(monkeypatch)
    assert cli_main(["run", "--config", str(write_config(tmp_path, scenario)), "--out", str(tmp_path)]) == 0
    assert forks == []
    assert (tmp_path / "short.csv").read_bytes() == expected


@pytest.mark.parametrize("error", [DivergenceError, SingularChannelError])
def test_a_failing_streamed_run_exits_4_and_keeps_the_old_csv(tmp_path, monkeypatch, capsys, error):
    helpers, forks = _two_cpus(monkeypatch), _count_forks(monkeypatch)
    announced = _announced(monkeypatch, forks)
    factory, params = heol.scenarios.PLANTS["flat-benchmark-2x2"]

    def failing_at_6s(plant_params):  # the benchmark with an f of its own, so the loop steps it by its kernel
        model, *declared = factory(plant_params)

        def failing(t, x, u):
            if t >= 6.0:
                raise error(f"injected at t={t:.6g}")
            return model.f(t, x, u)

        return (dataclasses.replace(model, f=failing), *declared)

    monkeypatch.setitem(heol.scenarios.PLANTS, "flat-benchmark-2x2", (failing_at_6s, params))
    config, out = write_config(tmp_path, _sec4_20s()), tmp_path / "out"
    out.mkdir()
    (out / "paper-sec4.csv").write_text("an earlier run\n")
    open_fds = len(os.listdir("/dev/fd"))
    assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 4
    assert "heol: run failed: injected at t=6\n" == capsys.readouterr().err
    assert len(forks) == helpers and len(announced) == 2  # rows 0-511 announced; the step to row 600 fails (f at t=6)
    assert [p.name for p in out.iterdir()] == ["paper-sec4.csv"]
    assert (out / "paper-sec4.csv").read_text() == "an earlier run\n"
    _assert_nothing_left(open_fds)


def test_a_streamed_run_whose_helper_fails_exits_1(tmp_path, monkeypatch, capsys):
    if not _two_cpus(monkeypatch):
        pytest.skip("other threads run on Python 3.12+, so no formatting helper")
    _fail_in_the_helper(monkeypatch)
    config = write_config(tmp_path, _sec4_20s())
    open_fds = len(os.listdir("/dev/fd"))
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"heol: export failed: failed to write {tmp_path / 'paper-sec4.csv'}: "), err
    _assert_nothing_left(open_fds)


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_run_without_a_spare_process_formats_after_the_loop(tmp_path, monkeypatch, call):
    def refused(*args):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    scenario = _sec4_20s()
    expected = export_csv(run_scenario(scenario), tmp_path / "expected.csv").read_bytes()
    _two_cpus(monkeypatch)
    monkeypatch.setattr(os, call, refused)
    config = write_config(tmp_path, scenario)
    open_fds = len(os.listdir("/dev/fd"))
    assert cli_main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "paper-sec4.csv").read_bytes() == expected
    _assert_nothing_left(open_fds)


def test_importing_the_cli_and_validating_compile_no_sample_loop(capsys):
    # importing heol (in a fresh interpreter) and validating compile no loop; a run compiles one per structure
    proc = run_python("-c", "import heol.cli, heol.scenarios as s; print(s._loop.cache_info().currsize)")
    assert proc.stdout == "0\n", proc.stderr
    heol.scenarios._loop.cache_clear()
    assert cli_main(["validate", "--config", "paper-sec4"]) == 0
    assert heol.scenarios._loop.cache_info().currsize == 0


def test_console_entry_point():
    proc = run_python("-m", "heol.cli", "list")
    assert proc.returncode == 0
    assert "paper-sec4" in proc.stdout
