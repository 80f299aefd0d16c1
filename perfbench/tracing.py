"""Spans around every public function of the rsma_isac modules, from outside.

``Tracer.install`` wraps each public function of each module and rebinds
the wrapper everywhere the original is bound: in its own module (so calls
through a module global, like ``radar.steered_projection``, are seen), in
every module that imported it by name (``region.build_precoders``,
``cli.sweep``), and in the package namespace. ``uninstall`` puts the
originals back, so untraced passes run the unmodified program.

Spans live in flat in-memory arrays (name, parent, start, end) and are
reduced to per-layer numbers, and written out, when the run ends. A span's
self time is its duration minus the durations of its direct children; the
program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("core", "precoders", "throughput", "radar", "region", "calibration", "cli")


def _count_collapsed(counters, args, kwargs, result):
    counters["throughput.evaluated"] += 1
    counters["throughput.collapsed"] += int(result.collapsed)


def _count_points(counters, args, kwargs, result):
    counters["region.points.evaluated"] += len(result.points)
    counters["region.points.skipped"] += len(result.skipped)


def _count_bytes(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["region.write_csv.bytes"] += os.path.getsize(path)


# Outcome counters recorded at the same boundaries as the spans.
HOOKS = {
    "throughput.throughput": _count_collapsed,
    "region.sweep": _count_points,
    "region.write_points_csv": _count_bytes,
    "region.write_boundary_params_csv": _count_bytes,
}


def public_functions(module) -> dict[str, object]:
    """Functions defined in ``module`` whose names do not start with ``_``."""
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness-side span (the pass root)."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, qualname: str, fn):
        nid = self._id(qualname)
        hook = HOOKS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self, package: str = "rsma_isac") -> None:
        """Wrap every public function and rebind it in every module that holds it."""
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for short in MODULES:
            module = sys.modules[f"{package}.{short}"]
            for fname, fn in public_functions(module).items():
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, attr, fn))
                            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict[str, np.ndarray], n_names: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-name call counts and summed self times."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    calls = np.bincount(spans["name"], minlength=n_names)
    self_s = np.bincount(spans["name"], weights=own, minlength=n_names)
    return calls, self_s
