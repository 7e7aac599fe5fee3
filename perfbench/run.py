"""Benchmark of the heol simulation loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sec4 --seed 1 --seconds 25 --trace 0

It generates the workload's scenario files from the seed, times the heol
library and its CLI on them, checks every run's output, and prints one JSON
object as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` makes a separate traced
run and reports the per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Shares of --seconds spent on set-up timing and on the in-process runs; the
# rest goes to the CLI.
SETUP_SHARE, LOOP_SHARE = 0.1, 0.6
SETUP_MIN_REPS = 11
CLI_MIN_RUNS = 3
EXPORT_REPS = 3
HASH_SEED = "0"
IMPORT_REPS = 5


def _say(line: str):
    print(line, flush=True)


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def _subprocess(cmd: list[str], log: Path) -> tuple[float, float, int]:
    """Run ``cmd`` with heol importable; returns (wall s, peak RSS MiB, exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "ab") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=fh, stderr=fh, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Bench:
    """One invocation: a workload's generated files, its runs and their checks."""

    def __init__(self, workload: str, seed: int, horizon: float, pins):
        import host
        import workloads

        self.W, self.host = workloads, host
        self.pins = pins
        self.work = WORK / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.scenarios = workloads.build(workload, seed, horizon)
        self.paths = workloads.write(self.scenarios, self.work)
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}  # first CSV digest of each scenario
        self.checked: set[str] = set()  # CSV digests of runs that passed the checks
        self.digest_match = 0
        self.track = 0.0
        self.f_err_sq, self.f_err_n = 0.0, 0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def timed(self, fn, *args, speedo: bool = True):
        """(result, wall s, reference-host s) of ``fn(*args)``."""
        if not speedo:
            t0 = time.perf_counter()
            out = fn(*args)
            raw = time.perf_counter() - t0
            return out, raw, raw
        with self.host.Speedometer() as sp:
            t0 = time.perf_counter()
            out = fn(*args)
            raw = time.perf_counter() - t0
        return out, raw, self.host.correct(raw, sp.chunks)

    def run_all(self, run_scenario, speedo: bool = True, hooks=None):
        """Run and check every scenario once, each run inside ``hooks`` if given.

        Returns the logs (None for a failed run) and the summed run time,
        wall and reference-host.
        """
        logs, raw, ref = [], 0.0, 0.0
        for scenario in self.scenarios:
            self.attempted += 1
            try:
                with hooks or contextlib.nullcontext():
                    log, r, c = self.timed(run_scenario, scenario, speedo=speedo)
            except Exception as exc:  # a failing run is counted, not fatal
                self.failures.append(f"{scenario.name}: {type(exc).__name__}: {exc}")
                logs.append(None)
                continue
            raw, ref = raw + r, ref + c
            outcome = self.W.check(scenario, log, self.pins)
            self.track = max(self.track, outcome.track_rms)
            self.f_err_sq += outcome.f_err_sq
            self.f_err_n += outcome.f_err_n
            if not outcome.ok:
                self.failures.append(f"{scenario.name}: {outcome.reason}")
            logs.append(log if outcome.ok else None)
        return logs, raw, ref

    def export_all(self, logs) -> tuple[float, float]:
        """Export every checked log as ``heol run`` does; returns (wall s, reference-host s)."""
        from heol.scenarios import compute_metrics, export_csv, export_metrics

        def export(scenario, log):
            csv = self.work / f"{scenario.name}.csv"
            export_metrics(compute_metrics(log, scenario.rms_fraction), self.work / f"{scenario.name}.metrics.txt")
            export_csv(log, csv)
            return csv

        raw, ref = 0.0, 0.0
        for scenario, log in zip(self.scenarios, logs):
            if log is None:
                continue
            csv, r, c = self.timed(export, scenario, log)
            raw, ref = raw + r, ref + c
            digest = self.W.sha256(csv)
            if self.digests.setdefault(scenario.name, digest) != digest:
                self.failures.append(f"{scenario.name}: CSV differs between runs")
            self.checked.add(digest)
            if self.pins and self.pins.get("digest") == digest:
                self.digest_match += 1
        return raw, ref

    def cli_run(self) -> tuple[float, float, float]:
        """``heol run`` on the first generated file: (wall s, reference-host s, peak RSS MiB)."""
        scenario, path, out = self.scenarios[0], self.paths[0], self.work / "cli"
        self.attempted += 1
        # The CLI process samples its own host speed (see host.py).
        chunks = self.work / "cli-speed.json"
        cmd = [sys.executable, str(HERE / "host.py"), str(chunks), "heol.cli",
               "run", "--config", str(path), "--out", str(out)]
        raw, rss, code = _subprocess(cmd, self.work / "cli.log")
        ref = self.host.correct(raw, json.loads(chunks.read_text()) if chunks.is_file() else [])
        csv = out / f"{scenario.name}.csv"
        if code != 0:
            self.failures.append(f"heol run {path.name}: exit code {code}")
        elif not csv.is_file() or self.W.sha256(csv) not in self.checked:
            self.failures.append(f"heol run {path.name}: CSV matches no checked run")
        return raw, ref, rss

    def setup_reps(self, budget: float, after_rep=None) -> list[float]:
        """Wall times of load + validate of every generated file, repeated over ``budget``."""
        from heol.scenarios import load_scenario, validate_scenario

        reps = []
        end = time.perf_counter() + budget
        while len(reps) < SETUP_MIN_REPS or time.perf_counter() < end:
            total = 0.0
            for path in self.paths:
                t0 = time.perf_counter()
                validate_scenario(load_scenario(path))
                total += time.perf_counter() - t0
            reps.append(total)
            if after_rep is not None:
                after_rep()
        return reps


def measure(bench: Bench, seconds: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, tracing off; timings in reference-host seconds."""
    from heol.scenarios import run_scenario

    # Set-up repetitions are far shorter than the sampling period: each is
    # scaled by the speed of the latest chunk.  A chunk landing inside a
    # repetition inflates that one only, and the median skips it.
    speeds = [bench.host.speed([])]
    with bench.host.Speedometer() as sp:
        reps = bench.setup_reps(
            SETUP_SHARE * seconds,
            after_rep=lambda: speeds.append(bench.host.speed(sp.chunks[-1:]) if sp.chunks else speeds[0]),
        )
    setup = statistics.median(r * v for r, v in zip(reps, speeds[1:]))
    setup_raw = statistics.median(reps)
    run_scenario(bench.scenarios[0])  # warm-up, untimed

    runs, exports = [], []
    end = time.perf_counter() + LOOP_SHARE * seconds
    while not runs or time.perf_counter() < end:
        logs, raw, ref = bench.run_all(run_scenario)
        runs.append((raw, ref))
        exports.append(bench.export_all(logs))

    clis, peak = [], 0.0
    end = time.perf_counter() + (1.0 - SETUP_SHARE - LOOP_SHARE) * seconds
    while len(clis) < CLI_MIN_RUNS or time.perf_counter() < end:
        raw, ref, rss = bench.cli_run()
        clis.append((raw, ref))
        peak = max(peak, rss)

    raw_med = lambda pairs: _median([p[0] for p in pairs])  # noqa: E731
    ref_med = lambda pairs: _median([p[1] for p in pairs])  # noqa: E731
    _say(f"samples: setup={len(reps)} run={len(runs)} export={len(exports)} cli={len(clis)}")
    _say(f"wall-clock medians: setup_s={setup_raw:.6g} run_s={raw_med(runs):.6g} "
         f"export_s={raw_med(exports):.6g} cli_s={raw_med(clis):.6g}")
    f_err = (bench.f_err_sq / bench.f_err_n) ** 0.5 if bench.f_err_n else float("nan")
    return {
        "run_s": (ref_med(runs), "s"),
        "setup_s": (setup, "s"),
        "export_s": (ref_med(exports), "s"),
        "cli_s": (ref_med(clis), "s"),
        "peak_rss_mb": (peak, "MiB"),
        "track_rms": (bench.track, "1"),
        "f_est_err_rms": (f_err, "1"),
    }


def measure_traced(bench: Bench, seconds: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from traced runs, each beside an untraced run; wall-clock times."""
    import numpy as np
    from heol.scenarios import export_csv, run_scenario

    import spans

    # Set-up with only derive_channel hooked, so that nothing inside it is traced.
    tracer = spans.Tracer()
    derive = []
    with spans.Hooks(tracer, ["homeostat.derive_channel"]):
        build = bench.setup_reps(
            SETUP_SHARE * seconds,
            after_rep=lambda: derive.append(
                tracer.collect().get("homeostat.derive_channel", {}).get("total_s", 0.0)
            ),
        )
    run_scenario(bench.scenarios[0])  # warm-up, untimed

    untraced, traced, windows = [], [], []
    counts, self_s, missing = None, {}, []
    end = time.perf_counter() + LOOP_SHARE * seconds
    while not traced or time.perf_counter() < end:
        logs, raw, _ = bench.run_all(run_scenario, speedo=False)
        untraced.append(raw)
        bench.export_all(logs)
        tracer = spans.Tracer()
        hooks = spans.Hooks(tracer)
        _, raw, _ = bench.run_all(tracer.wrap("scenarios.run", run_scenario), speedo=False, hooks=hooks)
        missing = hooks.missing
        traced.append(raw)
        notes = tracer.notes.get("estimators.estimate")
        windows.append(float(np.mean(notes)) if notes else 0.0)
        stats = tracer.collect()
        now = {name: v["calls"] for name, v in stats.items()}
        if counts is None:
            counts = now
        elif now != counts:
            bench.failures.append(f"traced call counts changed between runs: {counts} vs {now}")
        for name, v in stats.items():
            self_s.setdefault(name, []).append(v["self_s"])

    # Per-sample latency, with only channel_step hooked: the summed time of
    # the channel steps at one sample time.
    latencies = []
    for scenario in bench.scenarios:
        tracer = spans.Tracer()
        with spans.Hooks(tracer, ["controllers.channel_step"]):
            run_scenario(scenario)
        if "controllers.channel_step" in tracer.names:
            dur = tracer.durations("controllers.channel_step")
            ts = np.asarray(tracer.notes["controllers.channel_step"])
            starts = np.flatnonzero(np.r_[True, ts[1:] != ts[:-1]])
            latencies.append(np.add.reduceat(dur, starts) * 1e6)
    lat = np.concatenate(latencies) if latencies else np.zeros(1)

    export_s, nbytes = [], 0
    for _ in range(EXPORT_REPS):
        t, nbytes = 0.0, 0
        for scenario, log in zip(bench.scenarios, logs):
            if log is None:
                continue
            path = bench.work / f"{scenario.name}.csv"
            t += bench.timed(export_csv, log, path, speedo=False)[1]
            nbytes += path.stat().st_size
        export_s.append(t)

    imports = [
        _subprocess([sys.executable, "-c", "import heol"], bench.work / "import.log")[0]
        for _ in range(IMPORT_REPS)
    ]

    if missing:
        _say("hooked names gone, reported as 0: " + ", ".join(missing))
    med = lambda name: _median(self_s.get(name))  # noqa: E731
    cnt = lambda name: (counts or {}).get(name, 0)  # noqa: E731
    out = {}
    for layer in ("signals.ref_eval", "homeostat.alpha", "homeostat.nominal"):
        out[f"{layer}.calls"] = (cnt(layer), "count")
        out[f"{layer}.self_s"] = (med(layer), "s")
    out["homeostat.derive_channel.s"] = (_median(derive), "s")
    out["scenarios.build.s"] = (_median(build), "s")
    out["estimators.estimate.calls"] = (cnt("estimators.estimate"), "count")
    out["estimators.estimate.self_s"] = (med("estimators.estimate"), "s")
    out["estimators.window_samples"] = (_median(windows), "samples")
    out["controllers.channel_step.calls"] = (cnt("controllers.channel_step"), "count")
    out["controllers.channel_step.self_s"] = (med("controllers.channel_step"), "s")
    out["controllers.sample_latency_us.p50"] = (float(np.percentile(lat, 50)), "us")
    out["controllers.sample_latency_us.p99"] = (float(np.percentile(lat, 99)), "us")
    out["plant.rk4_step.calls"] = (cnt("plant.rk4_step"), "count")
    out["plant.rk4_step.self_s"] = (med("plant.rk4_step"), "s")
    out["scenarios.loop.self_s"] = (med("scenarios.run"), "s")
    out["scenarios.export_csv.s"] = (_median(export_s), "s")
    out["scenarios.export_csv.bytes"] = (nbytes, "B")
    out["cli.import_s"] = (_median(imports), "s")
    out["trace.overhead"] = (_median(traced) / _median(untraced, 1.0), "x")
    out["digest_match"] = (bench.digest_match, "count")
    return out


def main(argv: list[str] | None = None, pins=None, horizon: float = 1.0) -> int:
    """One benchmark invocation.

    ``horizon`` scales every scenario's duration (tests use short runs);
    ``pins`` replaces the pinned outputs, which hold for the full horizon only.
    """
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "heol" / "__init__.py").is_file():
        print(f"perfbench: no heol sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import host
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if pins is None and horizon == 1.0:
        pins = workloads.PINS[args.workload]

    _say(host.machine_line())
    bench = Bench(args.workload, args.seed, horizon, pins)
    try:
        speed_before = host.speed([])
        metrics = (measure_traced if args.trace else measure)(bench, args.seconds)
        speed_after = host.speed([])
    finally:
        bench.close()
    _say(f"host speed against the reference host: {speed_before:.3f} before, {speed_after:.3f} after")
    for failure in bench.failures:
        _say(f"FAILED {failure}")
    failed = min(len(bench.failures), bench.attempted)
    _say(f"fail_frac = {failed / bench.attempted:.6g} ({failed} of {bench.attempted} runs)")
    for name, (value, unit) in metrics.items():
        _say(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # String hashing decides dict layouts and with them a few percent of the
    # interpreter's speed; a fixed seed keeps that equal across invocations.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
