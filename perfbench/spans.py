"""Spans recorded around calls into heol's public names.

The benchmark installs wrappers on names the simulation loop looks up at
call time, records one span per call in memory, and restores the originals
on exit.  A hooked name that no longer exists is skipped and reported as
missing, so the trace keeps working while the library loses names.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from array import array

import numpy as np

# (layer metric, module, attribute path): the layer of each hooked name.
# Names are hooked where the loop looks them up, e.g. ``heol.scenarios.rk4_step``.
HOOKS = (
    ("signals.ref_eval", "heol.signals", "ReferenceTrajectory.eval"),
    ("homeostat.nominal", "heol.scenarios", "nominal_u1"),
    ("homeostat.nominal", "heol.scenarios", "nominal_u2"),
    ("homeostat.nominal", "heol.scenarios", "perturbed_nominal_u2"),
    ("homeostat.derive_channel", "heol.scenarios", "derive_channel"),
    ("homeostat.alpha", "heol.scenarios", "ALPHA_FORMULAS"),
    ("estimators.estimate", "heol.estimators", "FusedEstimator.estimate"),
    ("controllers.channel_step", "heol.scenarios", "channel_step"),
    ("plant.rk4_step", "heol.scenarios", "rk4_step"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS))


class Tracer:
    """Spans (name, start, end, parent) kept in flat arrays until collected."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack: list[int] = []
        self.notes: dict[str, array] = {}

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` recording a span ``name`` per call.

        ``note(args)`` optionally extracts one number per call, kept in
        ``self.notes[name]``.
        """
        nid = self._id(name)
        names, starts, ends, parents, stack = (
            self._name, self._start, self._end, self._parent, self._stack,
        )
        notes = self.notes.setdefault(name, array("d")) if note else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            if notes is not None:
                notes.append(note(args))
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def collect(self) -> dict[str, dict[str, float]]:
        """Per-name calls, total and self time; clears the recorded spans.

        Self time is a span's duration minus the time its child spans cover.
        """
        n = len(self._start)
        name = np.array(self._name, dtype=np.int64)
        dur = np.array(self._end) - np.array(self._start)
        parent = np.array(self._parent, dtype=np.int64)
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=n)
        self_t = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_t, minlength=k)
        out = {
            nm: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, nm in enumerate(self.names)
        }
        for a in (self._name, self._start, self._end, self._parent):
            del a[:]
        return out

    def durations(self, name: str) -> np.ndarray:
        """Durations of the recorded spans called ``name``, in call order."""
        nid = self._name_ids[name]
        mask = np.array(self._name) == nid
        return (np.array(self._end) - np.array(self._start))[mask]


def _resolve(module: str, path: str):
    """(owner, attribute) of a dotted path, or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Hooks:
    """Context manager installing the tracer's wrappers on ``layers``.

    ``missing`` lists the layers none of whose names exist any more.
    """

    def __init__(self, tracer: Tracer, layers=LAYERS):
        self.tracer = tracer
        self.layers = set(layers)
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrapper(self, layer: str, original):
        t = self.tracer
        if layer == "homeostat.alpha":
            # A registry of factories refs -> alpha(t): wrap what they return.
            return {
                tag: (lambda refs, _f=factory: t.wrap("homeostat.alpha", _f(refs)))
                for tag, factory in original.items()
            }
        if layer == "homeostat.derive_channel":
            # Derived channels carry their alpha(t): wrap it too.
            def derive(*args, **kwargs):
                channel = original(*args, **kwargs)
                return dataclasses.replace(channel, alpha=t.wrap("homeostat.alpha", channel.alpha))

            return t.wrap(layer, functools.wraps(original)(derive))
        if layer == "estimators.estimate":
            return t.wrap(layer, original, note=lambda args: len(args[1]))
        if layer == "controllers.channel_step":
            return t.wrap(layer, original, note=lambda args: args[2])
        return t.wrap(layer, original)

    def __enter__(self):
        found = set()
        for layer, module, path in HOOKS:
            if layer not in self.layers:
                continue
            target = _resolve(module, path)
            if target is None:
                continue
            owner, attr = target
            original = getattr(owner, attr)
            # Class attributes are read from __dict__ so that restoring puts
            # back the plain function, not a bound method.
            if isinstance(owner, type):
                original = vars(owner).get(attr, original)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(layer, original))
            found.add(layer)
            if layer == "homeostat.derive_channel":
                found.add("homeostat.alpha")
        self.missing = sorted(self.layers - found)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False
