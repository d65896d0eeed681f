"""Span and call-count tracer for the phasequant modules, installed from outside.

``Tracer.install`` replaces every public function of each traced module, and
every public method of the classes a module defines, with a wrapper that
records a span (name, start, end, parent span) in memory.  A wrapped function
is rebound at every import site that holds it by name, for example both
``symbols.operator_matrix`` and the ``operator_matrix`` that ``cylinder`` and
``harness`` import, so a call through either name is seen.  The hottest entry
points only count calls: a span there would cost more than the work it
measures.  ``Tracer.restore`` puts every original back.

A module's self time is the summed duration of its spans minus the time their
direct child spans cover, so time spent in code that has no span of its own
(private helpers, closures, numpy, scipy) is charged to the nearest traced
caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MODULES = (
    "expressions",
    "fields",
    "bases",
    "numdiff",
    "taylor",
    "geometry",
    "symbols",
    "flat_weyl",
    "curved",
    "cylinder",
    "harness",
)

# Entry points called up to millions of times per pass: counted, never spanned.
COUNT_ONLY = {
    ("fields", "ScalarField", "__call__"): "fields.scalar_evals",
    ("expressions", "*", "eval"): "expressions.evals",
    ("cylinder", "CutoffFamily", "value"): "cylinder.cutoff_evals",
}

# Functions from outside the package, counted at the import site that calls them.
COUNTED_IMPORTS = {
    ("cylinder", "quad"): "cylinder.quad_calls",
    ("harness", "quad"): "harness.quad_calls",
}

# Span names whose call count or inclusive time is a per-layer metric of its own.
SPAN_CALLS = ("numdiff.partial_derivative", "numdiff.jet", "geometry.inverse_metric", "geometry.christoffel")
SPAN_SECONDS = {
    "curved.axiom_defect.s": "curved.axiom_defect",
    "curved.dequantize_curved.s": "curved.dequantize_curved",
    "curved.wue_weyl_image.s": "curved.wue_weyl_image",
    "cylinder.transform.s": "cylinder.CutoffFamily.transform",
    "symbols.operator_matrix.s": "symbols.operator_matrix",
}

# The per-layer metrics of a traced pass, with their units.
PER_LAYER = {
    **{f"{m}.{kind}": unit for m in MODULES for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{name}.calls": "count" for name in SPAN_CALLS},
    **{metric: "s" for metric in SPAN_SECONDS},
    **{name: "count" for name in COUNT_ONLY.values()},
    "cylinder.quad_calls": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans and counts for one traced pass; see the module docstring."""

    def __init__(self):
        self.span_names: list[str] = []
        self._span_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._counts: dict[str, list[int]] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        if name not in self._span_ids:
            self._span_ids[name] = len(self.span_names)
            self.span_names.append(name)
        sid = self._span_ids[name]
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(name_id)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def _counter(self, name: str, fn):
        cell = self._counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr: str, original, replacement) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    # -- installation -----------------------------------------------------

    def _wrap_class(self, module_name: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            count_name = COUNT_ONLY.get((module_name, cls.__name__, attr)) or COUNT_ONLY.get(
                (module_name, "*", attr)
            )
            if attr.startswith("_") and count_name is None:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            if count_name is not None:
                wrapped = self._counter(count_name, fn)
            else:
                wrapped = self._span(f"{module_name}.{cls.__name__}.{attr}", fn)
            if not inspect.isfunction(raw):
                wrapped = type(raw)(wrapped)
            self._replace(cls, attr, raw, wrapped)

    def install(self) -> None:
        """Wrap the traced modules of the imported ``phasequant`` package."""
        modules = {name: importlib.import_module(f"phasequant.{name}") for name in MODULES}
        wrappers = {}
        for module_name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and value not in wrappers:
                    wrappers[value] = self._span(f"{module_name}.{attr}", value)
                elif inspect.isclass(value):
                    self._wrap_class(module_name, value)
        package = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "phasequant"]
        for module in package:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._replace(module, attr, value, wrappers[value])
        for (module_name, attr), count_name in COUNTED_IMPORTS.items():
            module = modules[module_name]
            original = getattr(module, attr)
            self._replace(module, attr, original, self._counter(count_name, original))

    def restore(self) -> bool:
        """Put every original back; True when each one is in place again."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        ok = all(
            (vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr)) is original
            for owner, attr, original in self._saved
        )
        self._saved.clear()
        return ok

    # -- results ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        return {name: cell[0] for name, cell in self._counts.items()}

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count and self seconds."""
        spans = self.arrays()
        ids, parent = spans["name_id"], spans["parent"]
        duration = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(ids))
        size = len(self.span_names)
        calls = np.bincount(ids, minlength=size)
        own = np.bincount(ids, weights=duration - child_time, minlength=size)
        return {
            name: {"calls": int(calls[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.span_names)
        }

    def inclusive_s(self, name: str) -> float:
        """Seconds inside spans of ``name``, counting only the outermost of nested ones."""
        sid = self._span_ids.get(name)
        if sid is None:
            return 0.0
        ids, parent, start, end = self.name_id, self.parent, self.start, self.end
        total = 0.0
        for index in np.flatnonzero(np.frombuffer(ids, dtype=np.int32) == sid):
            up = parent[index]
            while up >= 0 and ids[up] != sid:
                up = parent[up]
            if up < 0:
                total += end[index] - start[index]
        return total

    def write(self, path) -> None:
        """Write the spans, their names and the counters as one ``.npz`` file."""
        counts = self.counts()
        np.savez(
            path,
            names=np.array(self.span_names),
            count_names=np.array(sorted(counts)),
            count_values=np.array([counts[k] for k in sorted(counts)], dtype=np.int64),
            **self.arrays(),
        )


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of a finished traced pass, except ``trace.overhead_s``."""
    summary = tracer.summary()
    counts = tracer.counts()
    layers: dict[str, float] = {}
    for module in MODULES:
        mine = [v for name, v in summary.items() if name.split(".")[0] == module]
        layers[f"{module}.calls"] = sum(v["calls"] for v in mine)
        layers[f"{module}.self_s"] = sum(v["self_s"] for v in mine)
    for name in SPAN_CALLS:
        layers[f"{name}.calls"] = summary.get(name, {}).get("calls", 0)
    for metric, name in SPAN_SECONDS.items():
        layers[metric] = tracer.inclusive_s(name)
    for name in (*COUNT_ONLY.values(), "cylinder.quad_calls"):
        layers[name] = counts.get(name, 0)
    return layers
