"""Span tracer for traced benchmark runs, installed from outside rpiso.

``Tracer.prepare`` builds a wrapper for each rpiso module's public
functions and every function one rpiso module binds from another (for
example ``profile._betainc_xc_vec`` from ``specfn``, wrapped in both
modules).  ``enable`` puts the wrappers on the module objects, so calls
between layers and within a layer through its module namespace are
recorded; ``disable`` puts the original functions back, so untraced
calls run exactly as without the tracer.  Private helpers called by name
inside their own module are not seen.

A span is (name, parent span, start, end, elements), where elements is
the size of the first argument when that is a numpy array and 1
otherwise.  Spans live in flat in-memory arrays while the run lasts and
are written out once at the end.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

import numpy as np

# Incomplete-beta entry points: functions of specfn with this in the name.
BETAINC = "betainc"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.elems = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # (module, attribute, original, wrapper) for every wrapped binding.
        self._bindings: list[tuple] = []

    def prepare(self, package: types.ModuleType) -> None:
        prefix = package.__name__ + "."
        modules = [
            m for m in vars(package).values()
            if isinstance(m, types.ModuleType) and m.__name__.startswith(prefix)
        ]
        targets = []
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType) or not fn.__module__.startswith(prefix):
                    continue
                if fn.__module__ != mod.__name__:
                    targets.append((mod, attr, fn))
                    home = sys.modules[fn.__module__]
                    if getattr(home, fn.__name__, None) is fn:
                        targets.append((home, fn.__name__, fn))
                elif not attr.startswith("_"):
                    targets.append((mod, attr, fn))
        wrappers: dict[types.FunctionType, types.FunctionType] = {}
        for mod, attr, fn in targets:
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            self._bindings.append((mod, attr, fn, wrappers[fn]))

    def enable(self) -> None:
        for mod, attr, _fn, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, fn, _wrapper in self._bindings:
            setattr(mod, attr, fn)

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        ids, parents, elems, starts, ends = (
            self.name_id, self.parent, self.elems, self.start, self.end
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            elems.append(args[0].size if args and isinstance(args[0], np.ndarray) else 1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()

        return traced

    def mark(self) -> int:
        return len(self.name_id)

    def summary(self, first: int) -> dict:
        """Aggregate the spans recorded since mark() returned first:
        per name [count, total s, self s, elements], the time of top-level
        profile spans, and the part of it spent directly in specfn's
        incomplete-beta entry points."""
        if self.mark() == first:
            return {"spans": {}, "profile_s": 0.0, "betainc_in_profile_s": 0.0}
        ids = np.frombuffer(self.name_id, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:] - first
        dur = (np.frombuffer(self.end)[first:] - np.frombuffer(self.start)[first:])
        elems = np.frombuffer(self.elems, dtype=np.int64)[first:]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=ids.size)
        m = len(self.names)
        count = np.bincount(ids, minlength=m)
        total = np.bincount(ids, weights=dur, minlength=m)
        self_t = np.bincount(ids, weights=dur - child, minlength=m)
        el = np.bincount(ids, weights=elems, minlength=m)
        spans = {
            self.names[j]: [int(count[j]), float(total[j]), float(self_t[j]), int(el[j])]
            for j in np.nonzero(count)[0]
        }
        in_profile = np.array([n.startswith("profile.") for n in self.names])[ids]
        betainc = np.array([n.startswith("specfn.") and BETAINC in n for n in self.names])[ids]
        parent_in_profile = np.zeros(ids.size, dtype=bool)
        parent_in_profile[has_parent] = in_profile[parent[has_parent]]
        return {
            "spans": spans,
            "profile_s": float(dur[in_profile & ~parent_in_profile].sum()),
            "betainc_in_profile_s": float(dur[betainc & parent_in_profile].sum()),
        }

    def dump(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            elems=np.frombuffer(self.elems, dtype=np.int64),
        )
