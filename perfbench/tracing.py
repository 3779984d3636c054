"""Spans around calls into each layer, recorded from outside the package.

``Tracer.install`` replaces every public function that ``pipeline`` and
``disruption`` import from another package module with a wrapper at that
binding (``pipeline.betweenness_exact`` and ``disruption.betweenness_exact``
are separate bindings), and ``restore`` puts the originals back. Each call
becomes one span: name, start, end, parent span and thread. ``replay``
runs on pool threads whose own stack is empty; their spans take the
enclosing root span as parent, so spans under one root may overlap.

Sweeps are counted where they happen: ``install`` also wraps
``centrality._bfs_counts``, the single-source search every all-sources
pass runs once per node, and counts its sources per network (keyed by the
network's adjacency map). A network's sweep count is the most times any
one source was searched on it, so a pass counts once whichever function
makes it, and a pass over one component counts too. If that function is
renamed or removed, the traced run stops with an error rather than
reporting a wrong count.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
import tracemalloc
from types import ModuleType

PACKAGE = "freight_resilience"

# calls and busy seconds (summed over threads) per wrapped function
CALLS = (
    "centrality.betweenness_exact",
    "centrality.closeness_centrality",
    "network.remove_nodes",
    "metrics.replay",
)
TIMED = CALLS + (
    "metrics.write_curves_csv",
    "metrics.read_curves_csv",
    "metrics.aggregate_curves",
    "svgplot.line_chart",
    "network.load_network",
    "climate.read_series_csv",
    "climate.build_hot_day_profile",
)
TARGETED_KINDS = ("degree", "closeness", "betweenness")

# per-layer metrics with their units, in the order BENCHMARK.json lists them
PER_LAYER = (
    [(f"{name}.calls", "count") for name in CALLS]
    + [("centrality.sweeps", "count"), ("centrality.bfs_sources", "count")]
    + [(f"{name}.s", "s") for name in TIMED]
    + [(f"disruption.targeted_sequence.{kind}.s", "s") for kind in TARGETED_KINDS]
    + [
        ("climate.rows", "count"),
        ("climate.read_series_csv.peak_alloc_mb", "MB"),
        ("pipeline.output_bytes", "bytes"),
        ("pipeline.self_s", "s"),
        ("synth.generate_synthetic.s", "s"),
        ("trace.overhead_s", "s"),
    ]
)
# work counts: deterministic for a workload, so they must repeat exactly
EXACT = tuple(name for name, unit in PER_LAYER if unit in ("count", "bytes"))


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, trace_alloc: bool = False):
        self.spans: list[dict] = []
        self.trace_alloc = trace_alloc  # tracemalloc around read_series_csv
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._patched: list[tuple[ModuleType, str, object]] = []
        # id(adjacency) -> (adjacency, searches per source); the map is kept
        # so that its id is not reused by another network
        self._sources: dict[int, tuple[object, dict[int, int]]] = {}

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _call(self, name: str, fn, args, kwargs, root: bool):
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else (None if root else self._root),
            "thread": threading.get_ident(),
        }
        if name == "disruption.targeted_sequence":
            span["kind"] = args[1] if len(args) > 1 else kwargs["kind"]
        alloc = self.trace_alloc and name == "climate.read_series_csv"
        if root:
            self._root = span["id"]
        stack.append(span["id"])
        if alloc:
            tracemalloc.start()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            if alloc:
                span["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if name == "climate.read_series_csv":
            span["rows"] = sum(len(s.dates) for s in result.values())
        return result

    def wrap(self, module: ModuleType, attr: str, name: str, root: bool = False) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, root)

        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def _count_sources(self, module: ModuleType, attr: str) -> None:
        fn = getattr(module, attr)

        def counted(adj, source, *args, **kwargs):
            with self._lock:
                per_source = self._sources.setdefault(id(adj), (adj, {}))[1]
                per_source[source] = per_source.get(source, 0) + 1
            return fn(adj, source, *args, **kwargs)

        self._patched.append((module, attr, fn))
        setattr(module, attr, counted)

    def sweep_counts(self) -> dict[str, int]:
        per_network = [per_source for _, per_source in self._sources.values()]
        return {
            "centrality.sweeps": sum(max(c.values()) for c in per_network),
            "centrality.bfs_sources": sum(sum(c.values()) for c in per_network),
        }

    def install(self, entry_module: ModuleType) -> None:
        """Wrap the layer bindings, the single-source search that sweeps
        are made of, and the pipeline entry points as ``entry_module``
        binds them (these become root spans)."""
        from freight_resilience import centrality, disruption, pipeline

        self._count_sources(centrality, "_bfs_counts")

        for module in (pipeline, disruption):
            own = module.__name__
            for attr, fn in list(vars(module).items()):
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__.startswith(PACKAGE + ".")
                    and fn.__module__ != own
                ):
                    layer = fn.__module__.rsplit(".", 1)[1]
                    self.wrap(module, attr, f"{layer}.{attr}")
        for attr in ("run", "report_from_curves"):
            if hasattr(entry_module, attr):
                self.wrap(entry_module, attr, f"pipeline.{attr}", root=True)

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (overlapping thread spans count once)."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline execution."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    for s in spans:
        key = s["name"]
        if "kind" in s:
            key = f"{key}.{s['kind']}"
        calls[key] = calls.get(key, 0) + 1
        busy[key] = busy.get(key, 0.0) + (s["end"] - s["start"])
    m: dict[str, float] = {}
    for name in CALLS:
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in TIMED:
        m[f"{name}.s"] = busy.get(name, 0.0)
    for kind in TARGETED_KINDS:
        m[f"disruption.targeted_sequence.{kind}.s"] = busy.get(
            f"disruption.targeted_sequence.{kind}", 0.0
        )
    reads = [s for s in spans if s["name"] == "climate.read_series_csv"]
    m["climate.rows"] = sum(s["rows"] for s in reads)
    m["climate.read_series_csv.peak_alloc_mb"] = max(
        (s.get("peak_alloc_bytes", 0) / 2**20 for s in reads), default=0.0
    )
    roots = [s for s in spans if s["parent"] is None]
    self_s = 0.0
    for root in roots:
        children = [(s["start"], s["end"]) for s in spans if s["parent"] == root["id"]]
        self_s += (root["end"] - root["start"]) - _covered(children)
    m["pipeline.self_s"] = self_s
    return m
