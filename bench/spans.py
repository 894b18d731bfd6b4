"""In-memory span recorder for the traced benchmark run.

:func:`install` wraps the public functions at each layer boundary of
``mscoupling`` (and the hot ``ServiceGraph`` methods, which only get call
counts) in every module namespace that refers to them.  Spans are
``(id, name, start, end, parent, thread)`` tuples kept in memory and
written out once, when the run ends; :func:`layer_metrics` turns them into
inclusive time, self time and call counts.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import threading
from collections import Counter
from time import perf_counter

# Layer boundaries: (module, attribute) -> span name.
SPANS = {
    ("ingest", "load_project"): "ingest.load_project",
    ("ingest", "parse_project_descriptor"): "ingest.parse",
    ("ingest", "parse_edge_csv"): "ingest.parse",
    ("ingest", "parse_compose"): "ingest.parse",
    ("ingest", "build_graph"): "ingest.build_graph",
    ("metrics", "project_summary"): "metrics.project_summary",
    ("metrics", "pair_matrix"): "metrics.pair_matrix",
    ("metrics", "service_table"): "metrics.service_table",
    ("report", "emit_pair_matrix_csv"): "report.emit_pair_matrix_csv",
    ("report", "emit_service_metrics_csv"): "report.emit_service_metrics_csv",
    ("report", "emit_summary_csv"): "report.emit_summary_csv",
    ("report", "emit_dot"): "report.emit_dot",
    ("report", "emit_svg"): "report.emit_svg",
    ("cli", "_write_files"): "cli.write",
    ("cli", "_process_corpus_project"): "cli.corpus.project",
}
# Functions called too often for a span each: counted only.
COUNTED = {
    ("metrics", "pair_metrics"): "metrics.pair_metrics.calls",
    ("metrics", "structural_coupling"): "metrics.structural_coupling.calls",
    ("report", "classify"): "report.classify.calls",
}
GRAPH_COUNTED = ("node_degree", "max_node_degree", "articulation_services")
PACKAGE = "mscoupling"


class Tracer:
    """Spans and counts of one process; safe to feed from several threads."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ticks: dict[str, itertools.count] = {}
        self.spans: list[tuple] = []  # list.append is atomic under the GIL
        self.graphs: list = []
        self.totals: Counter = Counter()  # guarded by _lock
        self.root: int | None = None

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.totals[name] += amount

    def span(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else self.root
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, threading.get_ident()))
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def count(self, name, fn):
        """Count calls only: one C-level ``next`` per call, atomic under the GIL."""
        tick = self._ticks.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def run_root(self, name, fn, *args):
        """Run ``fn`` as the root span; spans of pool threads hang under it."""
        self.root = next(self._ids)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((self.root, name, start, perf_counter(), None, threading.get_ident()))

    def dump(self) -> dict:
        """All spans and counts; graph sizes are read here, outside any span."""
        counts = Counter(self.totals)
        for name, ticks in self._ticks.items():
            counts[name] = next(ticks)
        counts["graph.edges"] = sum(len(graph.edges) for graph in self.graphs)
        counts["graph.connected_pairs"] = sum(len(graph.connected_pairs()) for graph in self.graphs)
        return {"spans": sorted(self.spans), "counts": dict(counts)}


def _patch(original, wrapped) -> None:
    """Point every reference in the package's modules at ``wrapped``."""
    for module_name, module in list(sys.modules.items()):
        if module_name == PACKAGE or module_name.startswith(PACKAGE + "."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in ("cli", "ingest", "metrics", "report", "graph")}

    def on_parse(result, args):
        tracer.add("ingest.records", len(result if isinstance(result, tuple) else result.edges))

    def on_build(result, args):
        tracer.graphs.append(result)

    def on_write(result, args):
        files = args[1]
        tracer.add("cli.write.files", len(files))
        tracer.add("cli.write.bytes", sum(len(text.encode("utf-8")) for text in files.values()))

    hooks = {"ingest.parse": on_parse, "cli.write": on_write}
    for (module, attr), name in SPANS.items():
        original = getattr(modules[module], attr)
        _patch(original, tracer.span(name, original, hooks.get(name)))
    for (module, attr), name in COUNTED.items():
        original = getattr(modules[module], attr)
        _patch(original, tracer.count(name, original))

    graph_cls = modules["graph"].ServiceGraph
    for attr in GRAPH_COUNTED:
        setattr(graph_cls, attr, tracer.count(f"graph.{attr}.calls", getattr(graph_cls, attr)))
    build = graph_cls.build.__func__
    graph_cls.build = classmethod(tracer.span("graph.build", build, on_build))


def _covered(intervals, start, end) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list] = {}
    for span_id, _, start, end, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, ()), start, end)
        for span_id, _, start, end, _, _ in spans
    }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Inclusive/self time and call counts per span name, plus raw counts."""
    spans = trace["spans"]
    own = self_times(spans)
    result: dict[str, float] = dict(trace["counts"])
    for span_id, name, start, end, _, _ in spans:
        result[f"{name}.s"] = result.get(f"{name}.s", 0.0) + (end - start)
        result[f"{name}.self_s"] = result.get(f"{name}.self_s", 0.0) + own[span_id]
        result[f"{name}.calls"] = result.get(f"{name}.calls", 0) + 1
    projects = [end - start for _, name, start, end, _, _ in spans if name == "cli.corpus.project"]
    if len(projects) >= 2:
        cuts = statistics.quantiles(projects, n=20, method="inclusive")
        result["cli.corpus.project_s.p50"] = statistics.median(projects)
        result["cli.corpus.project_s.p95"] = cuts[18]
    return result
