"""Span tracing of starorder from outside the program.

`Tracer.install()` wraps, in place, the public functions of every
starorder module, the operator constructors, the `FinitePoset` methods the
harness uses as hooks, numpy's eigh/eigvalsh/svd/pinv as the program's
modules see them, and `run_suite` as the CLI sees it. Each wrapper records
one span (name, start, end, parent) in flat in-memory arrays; `uninstall()`
puts every original back. Nothing under src/ changes.

A wrapper must sit where the caller looks the name up: `observables` and
`sampling` bind numerics functions by name at import, so each function is
replaced in every starorder namespace that holds it, and numpy is replaced
by a proxy in each module's own `np` global.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import time
from array import array

import numpy as np

MODULES = ("numerics", "observables", "sampling", "axioms", "models", "poset", "cli")
LAPACK = ("eigh", "eigvalsh", "svd", "pinv")
HOOK_FIELDS = ("eq", "le", "join", "sample", "perp", "meet", "skew", "subtract", "osum",
               "overridden", "complement_in", "segment", "key", "describe")


class _Namespace:
    """Forwards attribute reads to `target`, except for the overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple] = []
        self.suite_tuples: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid, parent, start, end, ids, stack = self._id(name), self.parent, self.start, self.end, self.nid, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, starorder):
        mods = {m: getattr(starorder, m) for m in MODULES}
        namespaces = list(mods.values())
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if mod is mods["numerics"] and attr == "eigh":
                    continue  # its LAPACK call is traced as numerics.eigh below
                if mod is mods["axioms"] and attr == "run_suite":
                    continue  # traced per suite, as the CLI calls it
                wrapped = self.wrap(f"{short}.{attr}", obj)
                for ns in namespaces:
                    for k, v in list(vars(ns).items()):
                        if v is obj:
                            self._set(ns, k, wrapped)
        numerics, observables = mods["numerics"], mods["observables"]
        for cls in (numerics.HermitianOperator, numerics.Projector):
            self._set(cls, "__init__", self.wrap("numerics.construct", cls.__dict__["__init__"]))
        self._set(observables, "_try_join", self.wrap("observables.join_hook", observables._try_join))
        self._set(mods["cli"], "_emit", self.wrap("cli.emit", mods["cli"]._emit))
        fp = mods["poset"].FinitePoset
        for attr, obj in list(vars(fp).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._set(fp, attr, self.wrap(f"poset.hook.{attr}", obj))
        linalg = _Namespace(np.linalg, **{f: self.wrap(f"numerics.{f}", getattr(np.linalg, f)) for f in LAPACK})
        proxy = _Namespace(np, linalg=linalg)
        for mod in namespaces:
            if getattr(mod, "np", None) is np:
                self._set(mod, "np", proxy)
        self._set(mods["cli"], "run_suite", self._suite_wrapper(mods["axioms"].run_suite))

    def _suite_wrapper(self, run_suite):
        def traced_suite(structure, suite, *args, **kwargs):
            hooks = {f: self.wrap(f"hook.{f}", getattr(structure, f))
                     for f in HOOK_FIELDS if getattr(structure, f) is not None}
            reports = self.wrap(f"axioms.suite.{suite}", run_suite)(
                dataclasses.replace(structure, **hooks), suite, *args, **kwargs)
            self.suite_tuples[suite] = self.suite_tuples.get(suite, 0) + sum(
                r.stats.get("tuples", 0) for r in reports)
            return reports

        return traced_suite

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------------

    def arrays(self):
        nid = np.frombuffer(self.nid, dtype=np.int32) if len(self.nid) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        start = np.frombuffer(self.start) if len(self.start) else np.zeros(0)
        end = np.frombuffer(self.end) if len(self.end) else np.zeros(0)
        return nid, parent, start, end

    def save(self, path):
        nid, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), nid=nid, parent=parent, start=start, end=end)


class SpanTable:
    """Aggregates over recorded spans: counts, durations and self times."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.nid, self.parent, start, end = tracer.arrays()
        self.dur = end - start
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur))
        self.self_time = self.dur - child

    def mask(self, predicate):
        ids = [i for i, n in enumerate(self.names) if predicate(n)]
        return np.isin(self.nid, ids)

    def named(self, name):
        return self.mask(lambda n: n == name)

    def calls(self, m) -> int:
        return int(np.count_nonzero(m))

    def self_s(self, m) -> float:
        return float(self.self_time[m].sum())

    def total_s(self, m) -> float:
        return float(self.dur[m].sum())

    def outermost(self, m):
        """Spans in `m` whose parent is not in `m` (a Projector construction
        runs the HermitianOperator one inside it: one object, one count)."""
        parent_in = np.zeros_like(m)
        has_parent = self.parent >= 0
        parent_in[has_parent] = m[self.parent[has_parent]]
        return m & ~parent_in

    def under(self, m_inner, m_outer) -> int:
        """How many spans in `m_inner` have an ancestor in `m_outer`."""
        anc = np.where(m_outer, 1, 0)
        up = self.parent.copy()
        # pointer jumping: after k rounds each span has looked 2**k levels up
        for _ in range(8):
            valid = up >= 0
            anc = np.where((anc == 0) & valid, anc[np.where(valid, up, 0)] * valid, anc)
            up = np.where(valid, up[np.where(valid, up, 0)], -1)
        has_parent = self.parent >= 0
        return int(np.count_nonzero(m_inner & has_parent & (anc[np.where(has_parent, self.parent, 0)] > 0)))
