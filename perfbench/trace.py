"""Spans around calls into negbound's modules, recorded from outside the
package.

``Tracer.install`` replaces each traced function with a wrapper on every
``negbound`` module namespace that bound it at import (``from .x import
f`` makes a second binding that a patch of ``x`` alone would miss).
``intersect`` is reached through ``SurfaceModel.dot``'s module-global
lookup, so patching ``negbound.lattice`` catches every pairing.

A span is ``(name, start, end, parent)``; spans stay in memory until the
run ends.  A span's self time is its duration minus that of its children.

This module imports nothing that a fresh interpreter has not loaded
already, so a traced CLI job's ``cli.import`` span covers every module
that ``import negbound.cli`` loads.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, attribute, span name)
TARGETS = (
    ("negbound.lattice", "intersect", "lattice.intersect"),
    ("negbound.lattice", "blow_up", "lattice.blow_up"),
    ("negbound.riemann_roch", "arithmetic_genus", "riemann_roch.arithmetic_genus"),
    ("negbound.zariski", "zariski_decompose", "zariski.zariski_decompose"),
    ("negbound.zariski", "is_negative_definite", "zariski.is_negative_definite"),
    ("negbound.zariski", "validate_decomposition", "zariski.validate_decomposition"),
    ("negbound.bounds", "evaluate_curve", "bounds.evaluate_curve"),
    ("negbound.bounds", "blowup_bound", "bounds.blowup_bound"),
    ("negbound.enumeration", "enumerate_classes", "enumeration.enumerate_classes"),
    ("negbound.enumeration", "verify_bounds", "enumeration.verify_bounds"),
    ("negbound.cli", "main", "cli.main"),
    ("negbound.cli", "load_config", "cli.load_config"),
    ("negbound.cli", "build_surface", "cli.build_surface"),
    ("negbound.cli", "run", "cli.run"),
    ("negbound.cli", "render_json", "cli.render"),
    ("negbound.cli", "render_csv", "cli.render"),
    ("negbound.cli", "render_table", "cli.render"),
)

# The chi < 1 rule never meets K^2 > n: ruled bases have K^2 = 8(1-g) <= 0.
REPORT_CASES = (
    "blowup_chi_ge1.k2_le_n",
    "blowup_chi_ge1.k2_gt_n",
    "blowup_chi_lt1.k2_le_n",
)

# Per-layer metrics of a traced run, in report order: (name, unit, better).
LAYER_METRICS = (
    ("lattice.intersect.calls", "count", "lower"),
    ("lattice.intersect.self_s", "s", "lower"),
    ("lattice.blow_up.calls", "count", "lower"),
    ("lattice.blow_up.self_s", "s", "lower"),
    ("riemann_roch.arithmetic_genus.calls", "count", "lower"),
    ("riemann_roch.arithmetic_genus.self_s", "s", "lower"),
    ("zariski.zariski_decompose.calls", "count", "lower"),
    ("zariski.zariski_decompose.self_s", "s", "lower"),
    ("zariski.is_negative_definite.calls", "count", "lower"),
    ("zariski.is_negative_definite.self_s", "s", "lower"),
    ("zariski.validate_decomposition.self_s", "s", "lower"),
    ("zariski.pairings_per_decompose", "count", "lower"),
    ("zariski.support_size.mean", "count", "higher"),
    ("zariski.support_size.max", "count", "higher"),
    ("bounds.evaluate_curve.calls", "count", "lower"),
    ("bounds.evaluate_curve.self_s", "s", "lower"),
    ("bounds.blowup_bound.self_s", "s", "lower"),
    *((f"bounds.reports.{case}", "count", "higher") for case in REPORT_CASES),
    ("enumeration.enumerate_classes.self_s", "s", "lower"),
    ("enumeration.classes_found", "count", "higher"),
    ("enumeration.verify_bounds.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.load_config.self_s", "s", "lower"),
    ("cli.build_surface.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("cli.jobs", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.support_sizes: list[int] = []
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        index = len(spans)
        spans.append((name, 0.0, 0.0, stack[-1]))
        stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = (name, start, end, stack[-1])

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1]
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe:
                observe(self, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target whose module is loaded; modules that are not
        loaded are not imported, so tracing changes no import cost."""
        modules = [m for k, m in list(sys.modules.items()) if k == "negbound" or k.startswith("negbound.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "support_sizes": self.support_sizes,
        }


def _observe_report(tracer: Tracer, report) -> None:
    tracer.counts[f"bounds.reports.{report.rule}.{report.case}"] += 1


def _observe_classes(tracer: Tracer, classes) -> None:
    tracer.counts["enumeration.classes_found"] += len(classes)


def _observe_decomposition(tracer: Tracer, dec) -> None:
    tracer.support_sizes.append(len(dec.support))


_OBSERVERS = {
    "bounds.blowup_bound": _observe_report,
    "enumeration.enumerate_classes": _observe_classes,
    "zariski.zariski_decompose": _observe_decomposition,
}


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the span dumps of one or more processes."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    sizes: list[int] = []
    pairings_in_decompose = 0
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        in_decompose = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                in_decompose[i] = in_decompose[parent]
            if name == "zariski.zariski_decompose":
                in_decompose[i] = True
            elif name == "lattice.intersect" and in_decompose[i]:
                pairings_in_decompose += 1
        for (name, start, end, _), inner in zip(spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        counts.update(dump["counts"])
        sizes += dump["support_sizes"]
    metrics: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        if name.endswith(".calls"):
            metrics[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            metrics[name] = self_s[name[: -len(".self_s")]]
    decompositions = calls["zariski.zariski_decompose"]
    metrics["zariski.pairings_per_decompose"] = pairings_in_decompose / decompositions if decompositions else 0
    metrics["zariski.support_size.mean"] = sum(sizes) / len(sizes) if sizes else 0
    metrics["zariski.support_size.max"] = max(sizes, default=0)
    for case in REPORT_CASES:
        metrics[f"bounds.reports.{case}"] = counts[f"bounds.reports.{case}"]
    metrics["enumeration.classes_found"] = counts["enumeration.classes_found"]
    metrics["cli.import_s"] = self_s["cli.import"]
    metrics["cli.jobs"] = calls["cli.main"]
    return metrics


def cli_job(spans_path: str, argv: list[str]) -> int:
    """Run one traced CLI job in this fresh process; the spans are written
    to ``spans_path`` when it ends."""
    tracer = Tracer()
    with tracer.span("cli.import"):
        import negbound.cli
    tracer.install()
    try:
        return negbound.cli.main(argv)
    finally:
        import json

        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
