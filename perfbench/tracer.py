"""Span tracer that instruments a package from outside, without edits to it.

The wrapped set is discovered, not listed: every public function of each
module (its ``__all__``, or its non-underscore names when it has none) and
every public plain method of each public class.  Each wrapper is installed
at every binding site in the package's namespaces, because
``from .transfer import structure_matrix`` copies the name into the
importing module; module-level dicts are searched one level deep so that
dispatch tables are covered too.  ``uninstall`` puts every original back.

A span is (name id, parent span index) and four clock readings: the
wrapper's entry, the call's start and end, and the wrapper's exit after
its hook.  They are kept in flat arrays while tracing and summarised
afterwards.  The tracer's own cost is kept out of every module's time:
a span's overhead is its wrapper time outside the call plus a per-call
cost calibrated next to each traced pass (argument packing and the wrapper call, which
no clock inside the wrapper sees).  Self time is a span's call time minus
its direct children's call times and overheads; inclusive time is call
time minus the overheads of all its descendants.  Hooks registered per
function name record the argument or result facts that spans alone do not
carry (Airy arguments, matrix determinants, result lengths).
"""

from __future__ import annotations

import collections
import enum
import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

CALIBRATION_CALLS = 5000
CALIBRATION_REPS = 5


def package_modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def _public_names(mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return names


def discover(mod):
    """(qualified name, owner, attribute, function) for each public callable
    defined in mod, including public plain methods of its public classes."""
    short = mod.__name__.rsplit(".", 1)[-1]
    found = []
    for name in _public_names(mod):
        obj = getattr(mod, name, None)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            found.append((f"{short}.{name}", mod, name, obj))
        elif (
            inspect.isclass(obj)
            and obj.__module__ == mod.__name__
            and not issubclass(obj, enum.Enum)
        ):
            for attr, val in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(val):
                    found.append((f"{short}.{name}.{attr}", obj, attr, val))
    return found


class Tracer:
    def __init__(self, package, hook_for=None):
        """hook_for(qualified name, function) returns None or a
        hook(tracer, span index, args, kwargs, result) run after each call."""
        self.modules = package_modules(package)
        self._name, self._parent = array("i"), array("i")
        self._times = array("d")  # entry, start, end, exit per span
        self._stack: list[int] = []
        self.errors = collections.Counter()
        self.facts = collections.defaultdict(lambda: array("d"))
        self.names: list[str] = []
        self.layers: list[str] = []
        self._targets = []
        seen = set()
        for mod in self.modules:
            for qual, owner, attr, fn in discover(mod):
                if id(fn) in seen:
                    continue
                seen.add(id(fn))
                fid = len(self.names)
                self.names.append(qual)
                self.layers.append(qual.split(".", 1)[0])
                hook = hook_for(qual, fn) if hook_for else None
                self._targets.append((owner, attr, fn, self._wrap(fid, fn, hook)))
        self._undo = []
        self.call_cost = 0.0

    def reset(self):
        """Drop recorded spans and facts; wrappers keep working."""
        del self._name[:], self._parent[:], self._times[:]
        self._stack.clear()
        self.errors.clear()
        self.facts.clear()

    def _wrap(self, fid, fn, hook):
        perf = time.perf_counter
        names, parents, times = self._name, self._parent, self._times
        stack = self._stack
        errors = self.errors
        blank = array("d", (0.0, 0.0, 0.0, 0.0))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entry = perf()
            i = len(names)
            names.append(fid)
            parents.append(stack[-1] if stack else -1)
            times.extend(blank)
            stack.append(i)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf()
                stack.pop()
                errors[(fid, type(exc).__name__)] += 1
                k = 4 * i
                times[k], times[k + 1], times[k + 2], times[k + 3] = (
                    entry, start, end, perf())
                raise
            end = perf()
            stack.pop()
            if hook is not None:
                hook(self, i, args, kwargs, result)
            k = 4 * i
            times[k], times[k + 1], times[k + 2], times[k + 3] = entry, start, end, perf()
            return result

        return traced

    def calibrate(self):
        """Set call_cost: the seconds a traced call costs its caller beyond
        the plain call and beyond the wrapper time the span's own clocks
        record (median over CALIBRATION_REPS loops of CALIBRATION_CALLS
        calls each, after one warm-up loop; never negative).
        Calibrate next to the traced work, not once: the host's speed
        changes from second to second.  Drops recorded spans."""

        def plain(a, b, c):
            return None

        wrapped = self._wrap(-1, plain, None)
        perf = time.perf_counter
        costs = []
        calls = CALIBRATION_CALLS
        for _ in range(CALIBRATION_REPS + 1):
            t0 = perf()
            for _ in range(calls):
                plain(1, 2, 3)
            t1 = perf()
            self.reset()
            for _ in range(calls):
                wrapped(1, 2, 3)
            t2 = perf()
            t = np.frombuffer(self._times, dtype=np.float64).reshape(-1, 4)
            recorded = float(((t[:, 3] - t[:, 0]) - (t[:, 2] - t[:, 1])).sum())
            del t  # release the buffer so reset() may resize it
            costs.append(((t2 - t1) - (t1 - t0) - recorded) / calls)
        self.reset()
        self.call_cost = max(0.0, float(np.median(costs[1:])))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for _owner, _attr, fn, wrapper in self._targets:
            for mod in self.modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._undo.append((setattr, mod, key, fn))
                        setattr(mod, key, wrapper)
                    elif type(val) is dict:
                        for dkey, dval in list(val.items()):
                            if dval is fn:
                                self._undo.append((dict.__setitem__, val, dkey, fn))
                                val[dkey] = wrapper
        for owner, attr, fn, wrapper in self._targets:
            if inspect.isclass(owner):
                self._undo.append((setattr, owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    # --- summaries -------------------------------------------------------

    def arrays(self):
        """Per span as numpy arrays: name, parent, start, end, self time,
        inclusive time and overhead, with the tracer's cost taken out of
        self and inclusive time (see the module docstring)."""
        name = np.frombuffer(self._name, dtype=np.int32).copy()
        parent = np.frombuffer(self._parent, dtype=np.int32).copy()
        t = np.frombuffer(self._times, dtype=np.float64).reshape(-1, 4)
        entry, start, end, leave = (t[:, k].copy() for k in range(4))
        dur = end - start
        over = (leave - entry) - dur + self.call_cost
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], (dur + over)[has_parent])
        # Overheads of all descendants, summed level by level from the
        # deepest spans up (a parent's index is below its children's).
        depth = np.zeros(len(name), dtype=np.int64)
        cur = parent.copy()
        while (cur >= 0).any():
            live = cur >= 0
            depth[live] += 1
            cur[live] = parent[cur[live]]
        below = np.zeros_like(dur)
        for level in range(int(depth.max(initial=0)), 0, -1):
            at = depth == level
            np.add.at(below, parent[at], over[at] + below[at])
        return name, parent, start, end, dur - child, dur - below, over

    def save(self, path):
        name, parent, start, end, self_t, incl, over = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            start=start, end=end, self_time=self_t, inclusive=incl, overhead=over,
        )
