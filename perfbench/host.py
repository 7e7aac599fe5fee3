"""Host description and host-speed correction.

On a shared host the speed this process gets drifts, at times by a factor
of two within a second.  A speedometer samples that speed while a
measurement runs: a timer interrupts the main thread every
``PERIOD_S`` and times a fixed chunk of small numpy and Python float
operations.  A measurement is then reported as the time it would have taken
on a host where the chunk takes ``REF_CHUNK_S`` throughout.
"""

from __future__ import annotations

import atexit
import json
import os
import platform
import runpy
import signal
import statistics
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.02
CHUNK_ITERS = 100
# The chunk's time on the host the benchmark's bounds were set on.
REF_CHUNK_S = 0.3e-3


def chunk() -> float:
    """Wall time of a fixed loop of small numpy and Python float operations."""
    x = np.array([1.0, 2.0, 3.0, 4.0])
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(CHUNK_ITERS):
        x = x + 1e-9 * x
        acc += float(x[i & 3]) * 0.5
    elapsed = time.perf_counter() - t0
    if not acc > 0.0:
        raise RuntimeError("speedometer chunk produced no result")
    return elapsed


class Speedometer:
    """Context manager timing a chunk every ``PERIOD_S`` while its body runs.

    The chunk times collect in ``chunks``; see :func:`speed` and :func:`correct`.
    """

    def __init__(self):
        self.chunks: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        self.chunks.append(chunk())

    def __enter__(self):
        self.chunks.clear()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def speed(chunks: list[float]) -> float:
    """Mean host speed seen by ``chunks`` against the reference host (1 = same).

    With no chunks, one is timed now.
    """
    return statistics.fmean(REF_CHUNK_S / c for c in (chunks or [chunk()]))


def correct(raw: float, chunks: list[float]) -> float:
    """Reference-host seconds of a wall time ``raw`` sampled by ``chunks``.

    The chunks' own time is taken out, and the rest is scaled by their mean speed.
    """
    return (raw - sum(chunks)) * speed(chunks)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_line() -> str:
    load = " ".join(f"{v:.2f}" for v in os.getloadavg())
    return (
        f"machine: cpu={cpu_model()!r} nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={np.__version__} loadavg={load}"
    )


def run_module_sampled(log: str, module: str, *args: str) -> None:
    """Run ``module`` as ``__main__`` with ``args`` while sampling host speed.

    The chunk times are written to ``log`` as a JSON list when the module exits.
    """
    sp = Speedometer().__enter__()

    def save():
        sp.__exit__(None, None, None)
        Path(log).write_text(json.dumps(sp.chunks))

    atexit.register(save)
    sys.argv = [module, *args]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    run_module_sampled(*sys.argv[1:])
