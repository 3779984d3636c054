"""Seeded synthetic networks and daily temperature series.

Desk-scale stand-ins for real freight exports (nodes, edges, tonnage)
and downscaled climate series, so every pipeline stage can run without
restricted datasets. Networks are connected by construction: a random
recursive tree plus degree-preferential extra edges up to the target
average degree. Temperatures follow a seasonal sinusoid with a linear
warming trend, a fixed per-model offset, and Gaussian noise. Each
node's series of each model is rendered as one block of records and
written with ``tables.write_blocks``. From ``_SERIES_SERIAL_BELOW_ROWS``
rows up, contiguous slices of those (model, node) blocks are rendered in
``tables.fork_map`` workers and written in order as they arrive. Each
block draws from its own hash-seeded generator, so the files have the
same bytes pooled or not. A model name is part of its series file's name
(``tmax_<model>.csv``), so one holding a path separator or NUL is refused.

Everything draws from ``random.Random(seed)`` through local helpers
(rejection sampling, Fisher-Yates, Box-Muller) so the byte stream of
emitted files is pinned by this module, not by stdlib internals.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from dataclasses import dataclass
from datetime import date, timedelta
from itertools import chain, islice
from pathlib import Path
from typing import Sequence

from .climate import SERIES_HEADER
from .disruption import _rand_below, _shuffled
from .network import MODES, FreightNetwork, NodeRecord, save_network
from .tables import fork_map, render_record, write_blocks

DEFAULT_MODELS = ("synth-a", "synth-b", "synth-c")


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic dataset."""

    n_nodes: int
    avg_degree: float
    seed: int
    mode: str = "rail"
    models: tuple[str, ...] = DEFAULT_MODELS
    start_year: int = 2000
    end_year: int = 2009
    trend_c_per_year: float = 0.05
    noise_sd_c: float = 1.5
    lat_range: tuple[float, float] = (25.0, 49.0)
    lon_range: tuple[float, float] = (-124.0, -67.0)
    mean_tonnage: float = 2e6

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.avg_degree >= self.n_nodes:
            raise ValueError(
                f"average degree {self.avg_degree} infeasible for {self.n_nodes} nodes"
            )
        if self.edge_count() > self.n_nodes * (self.n_nodes - 1) // 2:
            raise ValueError("target average degree exceeds the complete graph")
        if not 1 <= self.start_year <= 9999 or not 1 <= self.end_year <= 9999:
            raise ValueError("start_year and end_year must be in 1..9999")
        if self.start_year > self.end_year:
            raise ValueError("start_year must not exceed end_year")
        if len(set(self.models)) != len(self.models):
            raise ValueError("model names must be unique")
        # a model name is part of its series file's name
        for model in self.models:
            if any(c and c in model for c in ("/", os.sep, os.altsep, "\0")):
                raise ValueError(f"model name {model!r} holds a path separator or NUL")

    def edge_count(self) -> int:
        # connectivity needs a spanning tree, whatever the degree target
        return max(self.n_nodes - 1, round(self.n_nodes * self.avg_degree / 2))


def _gauss(rng: random.Random) -> float:
    # Box-Muller on the raw Mersenne stream; immune to stdlib
    # distribution-algorithm changes
    u1 = 1.0 - rng.random()  # (0, 1]: keeps log() finite
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _build_edges(spec: SynthSpec, rng: random.Random) -> list[tuple[int, int]]:
    n = spec.n_nodes
    ids = _shuffled(range(1, n + 1), rng)
    edges: set[tuple[int, int]] = set()
    endpoint_pool: list[int] = []  # node id repeated once per incident edge

    def connect(u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        if u == v or key in edges:
            return False
        edges.add(key)
        endpoint_pool.extend(key)
        return True

    # random recursive tree guarantees connectivity
    for i in range(1, n):
        connect(ids[i], ids[_rand_below(rng, i)])

    target = spec.edge_count()
    stalls = 0
    while len(edges) < target:
        u = endpoint_pool[_rand_below(rng, len(endpoint_pool))]
        v = endpoint_pool[_rand_below(rng, len(endpoint_pool))]
        if connect(u, v):
            stalls = 0
        else:
            stalls += 1
            if stalls >= 64:
                # dense corner: pick uniformly among the remaining non-edges
                free = sorted(
                    (a, b)
                    for a in range(1, n + 1)
                    for b in range(a + 1, n + 1)
                    if (a, b) not in edges
                )
                connect(*free[_rand_below(rng, len(free))])
                stalls = 0
    return sorted(edges)


def build_network(spec: SynthSpec) -> FreightNetwork:
    """The network part alone (no climate series)."""
    rng = random.Random(spec.seed)
    edges = _build_edges(spec, rng)
    mu = math.log(spec.mean_tonnage)
    nodes = []
    for i in range(1, spec.n_nodes + 1):
        lat = spec.lat_range[0] + rng.random() * (spec.lat_range[1] - spec.lat_range[0])
        lon = spec.lon_range[0] + rng.random() * (spec.lon_range[1] - spec.lon_range[0])
        tonnage = math.exp(mu + _gauss(rng))
        nodes.append(
            NodeRecord(
                id=i,
                name=f"{spec.mode}-node-{i:03d}",
                mode=spec.mode,
                lat=round(lat, 4),
                lon=round(lon, 4),
                tonnage=round(tonnage, 1),
            )
        )
    return FreightNetwork.build(nodes, edges)


def _summer_peak_c(lat: float) -> float:
    # hotter in the south: ~36 C peak at the southern edge, cooler north
    return 36.0 - 0.45 * (lat - 25.0)


def _day_terms(spec: SynthSpec) -> list[tuple[str, float, float]]:
    """Each day's ISO date, seasonal term and trend term, for every node and model."""
    first = date(spec.start_year, 1, 1)
    out = []
    for k in range((date(spec.end_year, 12, 31) - first).days + 1):
        day = first + timedelta(days=k)
        seasonal = -12.0 * math.cos(2.0 * math.pi * (day.timetuple().tm_yday - 15) / 365.25)
        out.append((day.isoformat(), seasonal, spec.trend_c_per_year * (day.year - spec.start_year)))
    return out


# Measured on a 2-CPU host, each call timed in a fresh process with the
# pool's start and imports included, in-process and pooled in turn (15
# rounds over 40 nodes and one model): pooled took a median 1.21x the
# in-process time at 73k rows, 0.87x at 146k and 0.74x at 292k, so fewer
# rows are written in-process. In four other sweeps, run while the host's
# second CPU was at times busy with other work, pooled took 1.2-1.45x at
# every size from 102k to 394k rows. On 2,000 nodes and 3 models over one
# year, tasks of 4,096 and 16,384 rows took 0.56-0.99x the in-process
# time (3 rounds), one block a task (6,000 tasks of 365 rows) 1.2-2.0x as
# long as those, with the parent peaking 11 MB higher, and tasks of 65,536
# rows peaked 6 MB higher; so a task has about _SERIES_TASK_ROWS rows, or
# one block where a block is longer.
_SERIES_SERIAL_BELOW_ROWS = 250_000
_SERIES_TASK_ROWS = 8192


def _series_block(spec: SynthSpec, model: str, bias: float, days: list, node: NodeRecord) -> str:
    """One node's daily series of one model as one block of records;
    ``days`` is ``_day_terms(spec)``."""
    # hash-derived sub-seed: stable across processes, unlike seeding
    # Random with a tuple (which goes through hash())
    digest = hashlib.sha256(f"{spec.seed}:{model}:{node.id}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    base = _summer_peak_c(node.lat) - 12.0
    prefix = render_record((model, node.id))
    sd = spec.noise_sd_c
    # each value summed left to right, as the pinned series bytes were made
    return "".join([
        f"{prefix},{iso},{base + seasonal + trend + bias + sd * _gauss(rng):.2f}\n"
        for iso, seasonal, trend in days
    ])


def _write_series(spec: SynthSpec, nodes: Sequence[NodeRecord], paths: Sequence[Path]) -> None:
    """Each model's daily series for every node, to the model's path: one
    block of records per (model, node), in that order. Contiguous slices of
    the blocks are rendered in ``fork_map`` workers from
    ``_SERIES_SERIAL_BELOW_ROWS`` rows up, and in-process below that or
    wherever ``fork_map`` gives None; each block draws from its own seed, so
    its bytes do not depend on the process that renders it."""
    days = _day_terms(spec)
    models, n = spec.models, len(nodes)
    biases = [(k - (len(models) - 1) / 2) * 0.4 for k in range(len(models))]
    blocks, step = len(models) * n, max(1, _SERIES_TASK_ROWS // len(days))
    slices = [(b, min(b + step, blocks)) for b in range(0, blocks, step)]

    def task(start: int, end: int) -> list[str]:
        return [
            _series_block(spec, models[b // n], biases[b // n], days, nodes[b % n])
            for b in range(start, end)
        ]

    def consume(parts) -> Sequence[Path]:
        texts = chain.from_iterable(parts)
        for path in paths:
            write_blocks(path, SERIES_HEADER, islice(texts, n))
        return paths  # not None, which would send fork_map's caller in-process

    if blocks * len(days) < _SERIES_SERIAL_BELOW_ROWS or fork_map(task, slices, consume) is None:
        consume(task(*s) for s in slices)


def generate_synthetic(spec: SynthSpec, out_dir) -> dict[str, Path]:
    """Write nodes.csv, edges.csv, and one tmax_<model>.csv per model.

    Returns the emitted paths keyed by role ("nodes", "edges",
    "series:<model>"). An empty model tuple skips the climate files.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    net = build_network(spec)
    nodes_path = out / "nodes.csv"
    edges_path = out / "edges.csv"
    save_network(net, nodes_path, edges_path)
    paths = {"nodes": nodes_path, "edges": edges_path}
    series = {f"series:{model}": out / f"tmax_{model}.csv" for model in spec.models}
    if series:
        _write_series(spec, net.nodes, list(series.values()))
    return paths | series
