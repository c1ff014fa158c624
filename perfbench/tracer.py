"""Outside-in tracing of gpdkit's layers.

``Tracer.install`` wraps every public function of the six library modules by
rebinding module attributes, in the defining module and in every gpdkit module
that imported the name directly (``workbench`` and ``localization`` do), so no
library file changes.  Each call records a span (name, start, end, parent,
request id) in memory; ``render_id`` is only counted, because it runs millions
of times and a span per call would cost more than the call.  Self time and the
per-layer metrics are computed from the spans after the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("core", "morita", "localization", "equivariant", "workbench", "documents")
COUNTED_ONLY = {"core.render_id"}

# postcondition checks: validators and weak-equivalence decisions
VERIFIERS = {
    "core.validate_groupoid",
    "core.validate_functor",
    "core.validate_nat_trans",
    "core.validate_group",
    "localization.validate_two_cell",
    "morita.weak_equivalence_report",
}
# constructions that re-verify what they build
CONSTRUCTIONS = {
    "core.action_groupoid",
    "morita.strict_pullback",
    "morita.weak_pullback",
    "morita.ff_factorize",
    "morita.coff_factorize",
    "localization.compose_generalized",
    "localization.compose_anafunctors",
    "localization.normalize_two_cell",
    "localization.vertical_compose_ana",
    "localization.inverse_two_cell",
    "localization.strictify_composition",
    "localization.anafunctorify",
    "equivariant.equivariant_functor",
    "equivariant.quotient_action",
    "equivariant.quotient_factorization",
    "equivariant.balanced_product",
    "equivariant.decompose",
    "equivariant.equivariant_strict_pullback",
    "equivariant.equivariant_weak_pullback",
    "equivariant.equivariant_anafunctorify",
}


def _apex_arrows(result) -> int:
    return len(result.apex.arrows)


# result measurements: span name -> (counter suffix, function of the result)
MEASURES = {
    "core.action_groupoid": ("arrows", lambda r: len(r.induced.arrows)),
    "morita.weak_pullback": ("apex_arrows", _apex_arrows),
    "morita.strict_pullback": ("apex_arrows", _apex_arrows),
}


class Tracer:
    """Spans in parallel lists; index into them is the span id."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        self.stack.pop()

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records a span named ``name``."""
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                key, size = measure
                value = size(result)
                self.counts[f"{name}.{key}"] += value
                if value > self.maxima[f"{name}.{key}"]:
                    self.maxima[f"{name}.{key}"] = value
            return result

        return traced

    def counter(self, name: str, fn):
        """``fn`` wrapped so that every call only adds one to ``counts[name]``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------

    def install(self, package) -> int:
        """Wrap the public functions of every layer module; returns how many."""
        layers = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        modules = [m for name, m in sorted(sys.modules.items()) if name == package.__name__ or name.startswith(package.__name__ + ".")]
        wrappers = {}
        for layer, module in zip(LAYERS, layers):
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[value] = self.counter(name, value) if name in COUNTED_ONLY else self.span(name, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return len(wrappers)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        """Spans as JSON lines ``[id, name, start, end, parent id, request id]``."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, self.starts[i], self.ends[i], self.parents[i], self.requests[i]]))
                fh.write("\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one parent may overlap each other or run past the parent
    (they do not for nested calls in one thread); the covered part is the
    union of their intervals clipped to the parent.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i in range(len(starts)):
        lo, hi = starts[i], ends[i]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            s, e = max(starts[c], reach), min(ends[c], hi)
            if e > s:
                covered += e - s
                reach = e
        out.append((hi - lo) - covered)
    return out


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, self and total seconds; plus verification time.

    A name's total counts only its outermost spans, so a function that calls
    itself is not counted twice.  Verification time is the duration of every
    verifier span that runs inside a construction's span and not inside
    another span already counted as verification.
    """
    names, parents = tracer.names, tracer.parents
    own = self_times(tracer.starts, tracer.ends, parents)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    verify_s = 0.0
    root_s = 0.0
    # spans are recorded in call order, so the open ancestors of a span are
    # the stack left after popping back to its parent
    stack: list[int] = []
    open_names: dict[str, int] = defaultdict(int)
    counted = bytearray(len(names))
    open_counted = open_build = 0
    for i, name in enumerate(names):
        p = parents[i]
        while stack and stack[-1] != p:
            j = stack.pop()
            open_names[names[j]] -= 1
            open_counted -= counted[j]
            open_build -= names[j] in CONSTRUCTIONS
        dur = tracer.ends[i] - tracer.starts[i]
        if p < 0:
            root_s += dur
        calls[name] += 1
        self_s[name] += own[i]
        if not open_names[name]:
            total_s[name] += dur
        if name in VERIFIERS and open_build and not open_counted:
            counted[i] = 1
            verify_s += dur
        stack.append(i)
        open_names[name] += 1
        open_counted += counted[i]
        open_build += name in CONSTRUCTIONS
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "total_s": dict(total_s),
        "verify_s": verify_s,
        "root_s": root_s,
        "spans": len(names),
    }
