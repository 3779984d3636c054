"""Shared graph builders and brute-force oracles.

The oracles deliberately take different routes than the library code:
closeness distances come from a numpy min-plus Floyd-Warshall instead of
per-source BFS, betweenness from pairwise path counting instead of
dependency accumulation (and, for graphs too large for that, from
Brandes' accumulation with one Fraction per predecessor edge instead of
integers over a common denominator), and component sizes from per-state
flood fill instead of incremental union-find, hot-day counts from
whole series held in memory and scanned once per period instead of rows
counted as they stream past, and the report tables and plots
(``oracle_emit_report``) from three passes over the curves instead of one
``aggregate_curves`` pass per scenario. Agreement between routes
is the point; none of them may be "simplified" to call the code under
test.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import math
import os
import random
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import date
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from freight_resilience import synth, tables
from freight_resilience.climate import (
    DEFAULT_THRESHOLD_C,
    PeriodSpec,
    summarize,
    write_ensemble_csv,
)
from freight_resilience.metrics import collapse_point
from freight_resilience.network import FreightNetwork, NodeRecord, load_network
from freight_resilience.pipeline import _plot_limits
from freight_resilience.svgplot import PALETTE, Band, LineSeries, line_chart, scatter_map
from freight_resilience.synth import SynthSpec, generate_synthetic
from freight_resilience.tables import write_table

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    """Import ``scripts/<name>.py`` as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_node(
    i: int,
    ton: float = 1.0,
    mode: str = "rail",
    lat: float | None = None,
    lon: float | None = None,
    name: str | None = None,
) -> NodeRecord:
    return NodeRecord(
        id=i,
        name=name if name is not None else f"node-{i}",
        mode=mode,
        lat=30.0 + (i % 7) if lat is None else lat,
        lon=-100.0 + (i % 11) if lon is None else lon,
        tonnage=ton,
    )


def make_net(n: int, edges, tons=None, mode: str = "rail") -> FreightNetwork:
    tons = tons or {}
    nodes = [make_node(i, ton=float(tons.get(i, 1.0)), mode=mode) for i in range(1, n + 1)]
    return FreightNetwork.build(nodes, edges)


def er_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Erdos-Renyi edge list over ids 1..n."""
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < p]


def tree_edges(first: int, n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Hang each of ids first+1..n from a random lower id: over ids 1..n,
    ``tree_edges(1, n, rng)`` is a random tree."""
    return [(rng.randint(1, v - 1), v) for v in range(first + 1, n + 1)]


# (n, p, seed) of seeded Erdos-Renyi test graphs, 5 to 30 nodes
SEEDED_GRAPHS = [(n, p, seed) for seed, (n, p) in enumerate(
    (5 + (s * 7) % 26, p) for s in range(40) for p in (0.1, 0.3, 0.6)
)]


def star_net(n: int, tons=None) -> FreightNetwork:
    """Hub id 1 with n - 1 leaves."""
    return make_net(n, [(1, i) for i in range(2, n + 1)], tons=tons)


def path_net(n: int, tons=None) -> FreightNetwork:
    return make_net(n, [(i, i + 1) for i in range(1, n)], tons=tons)


def grid_net(rows: int, cols: int) -> FreightNetwork:
    """rows x cols lattice, ids 1.. row by row."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c + 1
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return make_net(rows * cols, edges)


def hypercube_net(dim: int) -> FreightNetwork:
    """The dim-cube: ids 1 + bit pattern, neighbours differ in one bit."""
    n = 1 << dim
    edges = [(v + 1, (v ^ (1 << b)) + 1) for v in range(n) for b in range(dim) if v < v ^ (1 << b)]
    return make_net(n, edges)


def complete_bipartite_net(a: int, b: int) -> FreightNetwork:
    """K(a, b): ids 1..a on one side, a+1..a+b on the other."""
    return make_net(a + b, [(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)])


def rail_density_net() -> FreightNetwork:
    """30 synthetic nodes at rail density (average degree 10, diameter 4):
    nodes at depth 3 and 4 with up to a dozen shortest-path predecessors."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = generate_synthetic(SynthSpec(30, 10.0, 5, models=()), tmp)
        return load_network(paths["nodes"], paths["edges"])


@st.composite
def mixed_graphs(draw, max_parts: int = 3):
    """Disjoint unions of up to ``max_parts`` parts, each an Erdos-Renyi
    graph, a grid, a star, a path, a single node, a random tree or an
    Erdos-Renyi graph with random trees hung off it. Zero parts give the
    empty graph; several give disconnected graphs, isolated nodes
    included. Ids are distinct with gaps and handed out in shuffled
    order, so id order is not construction order."""
    edges: list[tuple[int, int]] = []
    n = 0
    shapes = ("er", "grid", "star", "path", "single", "tree", "er_trees")
    for shape in draw(st.lists(st.sampled_from(shapes), max_size=max_parts)):
        if shape in ("er", "tree", "er_trees"):
            rng = random.Random(draw(st.integers(0, 2**32)))
        if shape == "er":
            k = draw(st.integers(2, 8))
            part = er_edges(k, draw(st.sampled_from((0.2, 0.4, 0.7))), rng)
        elif shape == "tree":
            k = draw(st.integers(2, 12))
            part = tree_edges(1, k, rng)
        elif shape == "er_trees":
            core = draw(st.integers(3, 7))
            k = core + draw(st.integers(1, 8))
            part = er_edges(core, draw(st.sampled_from((0.4, 0.7))), rng) + tree_edges(core, k, rng)
        elif shape == "grid":
            rows, cols = draw(st.integers(1, 3)), draw(st.integers(2, 4))
            k, part = rows * cols, list(grid_net(rows, cols).edges)
        elif shape == "single":
            k, part = 1, []
        else:
            k = draw(st.integers(2, 7))
            net = star_net(k) if shape == "star" else path_net(k)
            part = list(net.edges)
        edges += [(a + n, b + n) for a, b in part]
        n += k
    ids = draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n, unique=True))
    return FreightNetwork.build(
        [make_node(i) for i in ids], [(ids[a - 1], ids[b - 1]) for a, b in edges]
    )


@pytest.fixture
def path3() -> FreightNetwork:
    return path_net(3)


@pytest.fixture
def star5() -> FreightNetwork:
    return star_net(5)


# ---------------------------------------------------------------------------
# Centrality oracles


def oracle_distance_matrix(net: FreightNetwork) -> np.ndarray:
    """All-pairs hop distances by min-plus Floyd-Warshall (inf = unreachable)."""
    ids = net.node_ids
    n = len(ids)
    pos = {v: k for k, v in enumerate(ids)}
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for a, b in net.edges:
        dist[pos[a], pos[b]] = 1.0
        dist[pos[b], pos[a]] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist


def oracle_closeness(net: FreightNetwork, normalized: bool = True) -> dict[int, float]:
    ids = net.node_ids
    n = len(ids)
    dist = oracle_distance_matrix(net)
    out = {}
    for k, v in enumerate(ids):
        finite = dist[k][np.isfinite(dist[k])]
        reach = len(finite) - 1  # excludes self
        if reach == 0:
            out[v] = 0.0
            continue
        total = float(finite.sum())
        if normalized:
            out[v] = (reach / (n - 1)) * (reach / total) if n > 1 else 0.0
        else:
            out[v] = 1.0 / total
    return out


def oracle_closeness_fractions(net: FreightNetwork) -> dict[int, Fraction]:
    """Normalized closeness as exact rationals, the values the library
    rounds once to floats: equal here exactly when equal there."""
    ids = net.node_ids
    dist = oracle_distance_matrix(net)
    out = {}
    for k, v in enumerate(ids):
        finite = dist[k][np.isfinite(dist[k])]
        reach = len(finite) - 1
        out[v] = Fraction(reach * reach, (len(ids) - 1) * int(finite.sum())) if reach else Fraction(0)
    return out


def _bfs_dist_sigma(adj, source):
    dist = {source: 0}
    sigma = {source: 1}
    queue = [source]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                sigma[w] = 0
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] += sigma[v]
    return dist, sigma


def oracle_betweenness(net: FreightNetwork) -> dict[int, Fraction]:
    """Unordered-pair betweenness by explicit pairwise path counting.

    v lies on a shortest s-t path iff d(s,v) + d(v,t) = d(s,t); its share
    of the pair is sigma(s,v) * sigma(v,t) / sigma(s,t). Integer
    numerators are bucketed per denominator so the final Fractions are
    exact without per-pair rational arithmetic.
    """
    ids = net.node_ids
    adj = net.adjacency
    per_source = {s: _bfs_dist_sigma(adj, s) for s in ids}
    buckets: dict[int, dict[int, int]] = {v: {} for v in ids}
    for i, s in enumerate(ids):
        dist_s, sigma_s = per_source[s]
        for t in ids[i + 1 :]:
            if t not in dist_s:
                continue  # disconnected pair contributes nothing
            dist_t, sigma_t = per_source[t]
            d_st = dist_s[t]
            den = sigma_s[t]
            for v in ids:
                if v == s or v == t or v not in dist_s or v not in dist_t:
                    continue
                if dist_s[v] + dist_t[v] == d_st:
                    num = sigma_s[v] * sigma_t[v]
                    if num:
                        bucket = buckets[v]
                        bucket[den] = bucket.get(den, 0) + num
    return {
        v: sum((Fraction(num, den) for den, num in sorted(bucket.items())), Fraction(0))
        for v, bucket in buckets.items()
    }


def oracle_brandes_fractions(net: FreightNetwork) -> dict[int, Fraction]:
    """Unordered-pair betweenness by Brandes' accumulation in Fractions:
    one division and one addition per predecessor edge."""
    adj = net.adjacency
    bc = {i: Fraction(0) for i in net.node_ids}
    for s in net.node_ids:
        dist, sigma = _bfs_dist_sigma(adj, s)
        order = list(dist)  # discovery order is BFS order
        preds = {w: [v for v in adj[w] if dist[v] == dist[w] - 1] for w in order}
        delta = {v: Fraction(0) for v in order}
        for w in reversed(order):
            coeff = (1 + delta[w]) / sigma[w]
            for v in preds[w]:
                delta[v] += sigma[v] * coeff
            if w != s:
                bc[w] += delta[w]
    # each unordered pair was counted from both endpoints
    return {i: value / 2 for i, value in bc.items()}


def oracle_two_core(adjacency) -> set[int]:
    """Ids of the 2-core of an id -> neighbour ids mapping: drop every node
    with fewer than two neighbours left, a whole round at a time, until
    none is dropped."""
    adj = {v: set(neighbours) for v, neighbours in adjacency.items()}
    while True:
        low = [v for v, neighbours in adj.items() if len(neighbours) < 2]
        if not low:
            return set(adj)
        for v in low:
            for w in adj.pop(v):
                if w in adj:
                    adj[w].discard(v)


def oracle_degree(net: FreightNetwork) -> dict[int, int]:
    out = {v: 0 for v in net.node_ids}
    for a, b in net.edges:
        out[a] += 1
        out[b] += 1
    return out


# ---------------------------------------------------------------------------
# Replay oracle


def flood_fill_components(ids, edges) -> list[set[int]]:
    adj = {v: set() for v in ids}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    comps = []
    for start in ids:
        if start in seen:
            continue
        comp = {start}
        frontier = [start]
        seen.add(start)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    frontier.append(w)
        comps.append(comp)
    return comps


def oracle_curve_states(net: FreightNetwork, order) -> list[tuple[int, Fraction, Fraction]]:
    """(ff, gcc tonnage, remaining tonnage) after each prefix of ``order``,
    by rebuilding the surviving graph from scratch at every step."""
    tons = {v: Fraction(rec.tonnage) for v, rec in net.node_by_id.items()}
    states = []
    for k in range(len(order) + 1):
        removed = set(order[:k])
        ids = [v for v in net.node_ids if v not in removed]
        edges = [(a, b) for a, b in net.edges if a not in removed and b not in removed]
        comps = flood_fill_components(ids, edges)
        if comps:
            ff = max(len(c) for c in comps)
            gcc_ton = max(
                (sum((tons[v] for v in c), Fraction(0)) for c in comps if len(c) == ff),
                default=Fraction(0),
            )
        else:
            ff = 0
            gcc_ton = Fraction(0)
        remaining = sum((tons[v] for v in ids), Fraction(0))
        states.append((ff, gcc_ton, remaining))
    return states


def sequence_prefix(seq, k: int):
    """The first k removals of the RemovalSequence ``seq`` as a sequence of
    their own (hot-day rows beyond the criterion kept if among them)."""
    head = seq.order[:k]
    return replace(seq, order=head, beyond_criterion=seq.beyond_criterion & set(head))


# ---------------------------------------------------------------------------
# Report oracle


def oracle_emit_report(
    by_scenario, scenario_order, threshold, out_dir, *, mode=None, sequences=(), map_points=()
) -> list[str]:
    """The files ``pipeline.emit_report`` writes, built in three passes as it
    built them before one ``aggregate_curves`` pass served them all: the
    collapse rows call ``collapse_point`` on every curve, the ensembles call
    it again while transposing each scenario, and each plot transposes each
    scenario once more for its mean, min and max. Writes into ``out_dir``
    and returns the file names in the order written."""
    out = Path(out_dir)
    names = []

    def mean(values):
        return math.fsum(values) / len(values)

    rows = []
    for scenario in scenario_order:
        cells = {}
        for curve in by_scenario[scenario]:
            cells.setdefault(curve.model, []).append(curve)
        for model, curves in cells.items():
            points = [collapse_point(c, threshold) for c in curves]
            value = None if any(p is None for p in points) else mean([f for _, f in points])
            rows.append([scenario, model, threshold, value])
    write_table(out / "collapse.csv", ("scenario", "model", "threshold", "collapse_fraction"), rows)
    names.append("collapse.csv")

    ensemble_rows = []
    for scenario in scenario_order:
        curves = by_scenario[scenario]
        points = [collapse_point(c, threshold) for c in curves]
        spread = [None] * 4
        if all(p is not None for p in points):
            s = summarize([frac for _, frac in points])
            spread = [s.mean, s.sd, s.min, s.max]
        ensemble_rows.append([scenario, threshold, *spread, len(curves)])
        if len(curves) > 1:
            for target in ("scf", "tonnage_fraction"):
                columns = zip(*(getattr(c, target) for c in curves))
                stats = dict(enumerate(map(summarize, columns)))
                names.append(f"ensemble_{target}_{scenario}.csv")
                write_ensemble_csv(stats, len(curves), out / names[-1], "step")
    write_table(
        out / "collapse_ensemble.csv",
        ("scenario", "threshold", "mean", "sd", "min", "max", "n_curves"),
        ensemble_rows,
    )
    names.append("collapse_ensemble.csv")

    limits = _plot_limits(sequences)
    where = f" ({mode})" if mode else ""
    for name, title, target, y_label in (
        ("robustness.svg", "Robustness under node disruption", "scf", "SCF"),
        ("tonnage.svg", "Tonnage capacity under node disruption", "tonnage_fraction",
         "tonnage fraction"),
    ):
        series, bands = [], []
        for i, scenario in enumerate(scenario_order):
            curves = by_scenario[scenario]
            color = PALETTE[i % len(PALETTE)]
            stop = limits.get(scenario, len(curves[0].ff) - 1) + 1
            xs = curves[0].fraction_removed[:stop]
            columns = list(zip(*(getattr(c, target)[:stop] for c in curves)))
            if len(curves) == 1:
                pts = tuple(zip(xs, (column[0] for column in columns)))
                label = scenario
            else:
                pts = tuple(zip(xs, map(mean, columns)))
                lo = tuple(zip(xs, map(min, columns)))
                hi = tuple(zip(xs, map(max, columns)))
                bands.append(Band(lo=lo, hi=hi, color=color))
                label = f"{scenario} (mean of {len(curves)})"
            series.append(LineSeries(label=label, points=pts, color=color))
        chart = line_chart(
            series,
            title=f"{title}{where}",
            x_label="fraction of nodes removed",
            y_label=y_label,
            bands=bands,
        )
        (out / name).write_text(chart, encoding="utf-8")
        names.append(name)
    if map_points:
        chart = scatter_map(
            map_points, title="Projected change in hot days per year-window", value_label="delta"
        )
        (out / "hotday_map.svg").write_text(chart, encoding="utf-8")
        names.append("hotday_map.svg")
    return names


# ---------------------------------------------------------------------------
# Climate oracle


@dataclass(frozen=True)
class DailyTmaxSeries:
    """Daily maximum temperature at one node for one climate model."""

    model: str
    node_id: int
    dates: tuple[date, ...]
    tmax: tuple[float, ...]

    def __post_init__(self):
        if len(self.dates) != len(self.tmax):
            raise ValueError("dates and tmax must have equal length")
        for i in range(1, len(self.dates)):
            if self.dates[i] <= self.dates[i - 1]:
                raise ValueError(f"dates not strictly increasing at index {i}")
        for value in self.tmax:
            if not math.isfinite(value):
                raise ValueError("tmax values must be finite")


def count_hot_days(
    series: DailyTmaxSeries, period: PeriodSpec, threshold_c: float = DEFAULT_THRESHOLD_C
) -> int:
    """Days in the period with tmax strictly above the threshold.

    A day at exactly the threshold does not count. An empty overlap
    between series and period is legal and returns 0.
    """
    if not math.isfinite(threshold_c):
        raise ValueError("threshold must be finite")
    count = 0
    for day, value in zip(series.dates, series.tmax):
        if period.contains(day) and value > threshold_c:
            count += 1
    return count


def oracle_read_series(paths) -> dict[tuple[str, int], DailyTmaxSeries]:
    """Per-node daily series files (``model,node_id,date,tmax_c``) held
    whole, each series sorted by date, for ``count_hot_days`` to scan."""
    rows: dict[tuple[str, int], list[tuple[date, float]]] = {}
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["model", "node_id", "date", "tmax_c"]
            for model, node, day, value in reader:
                rows.setdefault((model, int(node)), []).append(
                    (date.fromisoformat(day), float(value))
                )
    return {
        key: DailyTmaxSeries(key[0], key[1], *map(tuple, zip(*sorted(r))))
        for key, r in rows.items()
    }


def oracle_write_series(spec: SynthSpec, out_dir) -> dict[str, Path]:
    """Each model's ``tmax_<model>.csv`` of ``spec`` written one row at a time
    through ``write_table``, as ``synth`` wrote them before it wrote one block
    per node; paths keyed ``series:<model>`` as ``generate_synthetic`` keys them."""
    net = synth.build_network(spec)
    days = synth._day_terms(spec)
    paths = {}
    for k, model in enumerate(spec.models):
        bias = (k - (len(spec.models) - 1) / 2) * 0.4

        def rows():
            for node in net.nodes:
                digest = hashlib.sha256(f"{spec.seed}:{model}:{node.id}".encode()).digest()
                rng = random.Random(int.from_bytes(digest[:8], "big"))
                base = synth._summer_peak_c(node.lat) - 12.0
                for iso, seasonal, trend in days:
                    value = base + seasonal + trend + bias + spec.noise_sd_c * synth._gauss(rng)
                    yield [model, node.id, iso, f"{value:.2f}"]

        path = Path(out_dir) / f"tmax_{model}.csv"
        write_table(path, ("model", "node_id", "date", "tmax_c"), rows())
        paths[f"series:{model}"] = path
    return paths


@contextmanager
def fork_map_returns(module, **constants):
    """Record what ``tables.fork_map`` returns to ``module`` inside the block:
    what the caller made of its workers' results, or None where it fell back
    to one process. The replay (``metrics``) calls ``fork_map`` itself; the
    climate count and the curves reader reach it through
    ``tables.map_ranges``, so their ``module`` is ``tables``. ``constants``
    patches module constants (a cutoff of 0 pools inputs of any size), and
    two CPUs are usable whatever the host has."""
    fork_map, returns = tables.fork_map, []

    def spy(*args):
        returns.append(fork_map(*args))
        return returns[-1]

    with (
        mock.patch.object(module, "fork_map", spy),
        mock.patch.multiple(module, **constants),
        mock.patch.object(os, "sched_getaffinity", return_value={0, 1}, create=True),
    ):
        yield returns


def counted_in_ranges(paths, range_bytes: int):
    """``fork_map_returns`` for the climate count of ``paths`` in 2 workers,
    over byte ranges of at most about ``range_bytes`` (a missing path counts
    as empty)."""
    total = sum(os.path.getsize(path) for path in paths if os.path.isfile(path))
    ranges_per_worker = -(-total // (2 * range_bytes)) or 1
    return fork_map_returns(tables, _SERIAL_BELOW_BYTES=0, _RANGES_PER_WORKER=ranges_per_worker)
