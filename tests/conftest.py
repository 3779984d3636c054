"""Shared graph builders and brute-force oracles.

The oracles deliberately take different routes than the library code:
closeness distances come from a numpy min-plus Floyd-Warshall instead of
per-source BFS, betweenness from pairwise path counting instead of
dependency accumulation (and, for graphs too large for that, from
Brandes' accumulation with one Fraction per predecessor edge instead of
integers over a common denominator), and component sizes from per-state
flood fill instead of incremental union-find, and hot-day counts from
whole series held in memory and scanned once per period instead of rows
counted as they stream past. Agreement between routes
is the point; none of them may be "simplified" to call the code under
test.
"""

from __future__ import annotations

import csv
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from freight_resilience import climate
from freight_resilience.climate import DEFAULT_THRESHOLD_C, PeriodSpec
from freight_resilience.network import FreightNetwork, NodeRecord


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


@st.composite
def mixed_graphs(draw, max_parts: int = 3):
    """Disjoint unions of up to ``max_parts`` parts, each an Erdos-Renyi
    graph, a grid, a star, a path or a single node. Zero parts give the
    empty graph; several give disconnected graphs, isolated nodes
    included. Ids are distinct with gaps and handed out in shuffled
    order, so id order is not construction order."""
    edges: list[tuple[int, int]] = []
    n = 0
    for shape in draw(st.lists(st.sampled_from(("er", "grid", "star", "path", "single")),
                               max_size=max_parts)):
        if shape == "er":
            k = draw(st.integers(2, 8))
            rng = random.Random(draw(st.integers(0, 2**32)))
            part = er_edges(k, draw(st.sampled_from((0.2, 0.4, 0.7))), rng)
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


@contextmanager
def worker_counts(workers: int | None = None, range_bytes: int | None = None):
    """Record what ``climate._count_in_workers`` returns inside the block:
    the merged counts of the worker processes, or None where the count fell
    back to one process. ``workers`` fixes the number of workers (1 counts
    in one process), and a ``range_bytes`` splits inputs of any size."""
    returns = []
    count = climate._count_in_workers

    def spy(paths, header, args):
        returns.append(count(paths, header, args, workers, range_bytes))
        return returns[-1]

    with mock.patch.object(climate, "_count_in_workers", spy):
        yield returns
