"""Spans and counters for the traced run, kept in the benchmark's own files.

``Tracer.install`` replaces, in the traced process only, every module-level
binding of each traced public function across ``choimaps.*`` (names are
imported by value, so one function can be bound in several modules), plus
``numpy.linalg.{eigh,eigvalsh,svd,det}`` and the bindings of
``scipy.optimize.minimize`` (when the program imported scipy).
Spans are kept in memory as columns and written out at the end.  A span's
self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from array import array

#: module -> public functions wrapped in a span named '<module>.<function>'.
TRACED = {
    "cli": ("main", "build_parser"),
    "faces": ("classify_face",),
    "positivity": (
        "is_positive",
        "is_completely_positive",
        "is_completely_copositive",
        "block_positivity_oracle",
    ),
    "spanning": (
        "sampled_kernel_vectors",
        "kernel_membership",
        "has_spanning_property",
        "has_cospanning_property",
    ),
    "optimality": (
        "optimality_probe",
        "orthocomplement_basis",
        "vertex_optimality_analytic",
        "cooptimality_subtraction",
        "classify_optimality",
    ),
    "witness": ("build_witness",),
    "maps": ("choi_matrix",),
}
EIG = ("eigh", "eigvalsh")
COUNTERS = (
    "numpy.eig.calls",
    "numpy.eig.matrices",
    "numpy.svd.calls",
    "numpy.det.calls",
    "scipy.minimize.calls",
    "scipy.minimize.nfev",
    "scipy.minimize.nit",
    "scipy.minimize.improved",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[list] = []  # [span index, time covered by children]
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total[name] = self.self_time[name] = 0.0
        return self._ids[name]

    def span(self, name: str, fn):
        """``fn`` wrapped in a span called ``name``."""
        nid = self._name(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op.append(self.op_id)
            self.end.append(math.nan)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            self.start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def _replace(self, obj, attr: str, new) -> None:
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _rebind(self, original, new) -> None:
        """Point every ``choimaps.*`` module-level name bound to ``original``
        at ``new``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "choimaps" and not mod_name.startswith("choimaps."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, new)

    def install(self) -> None:
        import numpy.linalg

        # A function the program no longer has is skipped: its metrics read 0.
        for short, funcs in TRACED.items():
            module = sys.modules.get(f"choimaps.{short}")
            for fname in funcs:
                original = getattr(module, fname, None)
                if original is not None:
                    self._rebind(original, self.span(f"{short}.{fname}", original))
        doc = getattr(sys.modules.get("choimaps.reporting"), "ReportDocument", None)
        if doc is not None:
            self._replace(doc, "to_json", self.span("reporting.to_json", doc.to_json))

        counts = self.counts

        def counted(fn, key, batched=False):
            @functools.wraps(fn)
            def wrapper(a, *args, **kwargs):
                counts[f"numpy.{key}.calls"] += 1
                if batched:
                    shape = getattr(a, "shape", ())
                    counts["numpy.eig.matrices"] += math.prod(shape[:-2])
                return fn(a, *args, **kwargs)

            return wrapper

        for fname in EIG:
            self._replace(numpy.linalg, fname, counted(getattr(numpy.linalg, fname), "eig", True))
        self._replace(numpy.linalg, "svd", counted(numpy.linalg.svd, "svd"))
        self._replace(numpy.linalg, "det", counted(numpy.linalg.det, "det"))

        scipy_optimize = sys.modules.get("scipy.optimize")
        if scipy_optimize is None:  # the program does not use scipy
            return
        minimize = scipy_optimize.minimize

        @functools.wraps(minimize)
        def counted_minimize(fun, x0, *args, **kwargs):
            first: list[float] = []

            def objective(x, *a):
                value = fun(x, *a)
                if not first:
                    first.append(value)
                return value

            res = minimize(objective, x0, *args, **kwargs)
            counts["scipy.minimize.calls"] += 1
            counts["scipy.minimize.nfev"] += int(res.nfev)
            counts["scipy.minimize.nit"] += int(res.nit)
            counts["scipy.minimize.improved"] += int(bool(first) and res.fun < first[0])
            return res

        self._rebind(minimize, counted_minimize)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    def write(self, path) -> None:
        """All spans as gzip text: a JSON header naming the columns and the
        span names, then one line per span, times in ns from the first start."""
        t0 = self.start[0] if self.start else 0.0
        header = {"names": self.names, "columns": ["name", "parent", "op", "start_ns", "end_ns"]}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for row in zip(self.name_id, self.parent, self.op, self.start, self.end):
                n, p, o, s, e = row
                fh.write(f"{n},{p},{o},{round((s - t0) * 1e9)},{round((e - t0) * 1e9)}\n")
