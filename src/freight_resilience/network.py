"""Freight network data model and CSV ingestion.

Networks are undirected, unweighted graphs whose nodes are freight
facilities (rail stations, water ports) carrying a projected tonnage.
Edges are stored exactly once per unordered pair; inputs that list both
directions of a link are collapsed. Network values are immutable after
construction; every mutating-style operation returns a new value.

CSV schemas:
    nodes: ``id,name,mode,lat,lon,tonnage``   (UTF-8, mode in {rail, water})
    edges: ``src,dst``                        (ids must exist in the nodes file)

``save_network`` emits the canonical form: rows sorted by id / (min, max)
pair, shortest round-trip float formatting, ``\\n`` line endings. Exporting
a freshly loaded canonical file reproduces it byte for byte.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import DataError
from .tables import read_rows, write_table

MODES = ("rail", "water")

NODE_COLUMNS = ("id", "name", "mode", "lat", "lon", "tonnage")
EDGE_COLUMNS = ("src", "dst")


@dataclass(frozen=True)
class NodeRecord:
    """One freight facility.

    Tonnage is a node attribute: the total projected load transported
    from or through the facility for the scenario year. The loader does
    not interpret whether the source column counts originating,
    terminating, or through traffic; the column is taken as supplied.
    """

    id: int
    name: str
    mode: str
    lat: float
    lon: float
    tonnage: float

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"node {self.id}: mode must be one of {MODES}, got {self.mode!r}")
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"node {self.id}: lat {self.lat} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"node {self.id}: lon {self.lon} outside [-180, 180]")
        if not (math.isfinite(self.tonnage) and self.tonnage >= 0.0):
            raise ValueError(f"node {self.id}: tonnage must be finite and >= 0, got {self.tonnage}")


@dataclass(frozen=True)
class FreightNetwork:
    """Immutable undirected graph of freight nodes.

    ``nodes`` is sorted by id; ``edges`` holds each undirected edge once
    as an ``(lo, hi)`` id pair in sorted order. Use :meth:`build` to
    construct from unnormalized inputs (it collapses duplicate and
    reversed edges); the bare constructor validates but does not repair.
    """

    nodes: tuple[NodeRecord, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if ids != sorted(ids):
            raise ValueError("nodes must be sorted by id")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node id")
        known = set(ids)
        prev = None
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop at node {a}")
            if a > b:
                raise ValueError(f"edge ({a}, {b}) not stored as (min, max)")
            if a not in known or b not in known:
                raise ValueError(f"edge ({a}, {b}) references unknown node id")
            if prev is not None and (a, b) <= prev:
                raise ValueError("edges must be sorted and unique")
            prev = (a, b)

    @classmethod
    def build(
        cls,
        nodes: Iterable[NodeRecord],
        edges: Iterable[tuple[int, int]],
    ) -> "FreightNetwork":
        """Construct from arbitrary node/edge order, collapsing duplicate
        undirected edges. The constructor raises ValueError on self-loops,
        duplicate node ids, or edges referencing unknown ids."""
        return cls(
            tuple(sorted(nodes, key=lambda n: n.id)),
            tuple(sorted({(a, b) if a < b else (b, a) for a, b in edges})),
        )

    @cached_property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(n.id for n in self.nodes)

    @cached_property
    def node_by_id(self) -> Mapping[int, NodeRecord]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def adjacency(self) -> Mapping[int, tuple[int, ...]]:
        neigh: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for a, b in self.edges:
            neigh[a].append(b)
            neigh[b].append(a)
        return {i: tuple(sorted(v)) for i, v in neigh.items()}

    @cached_property
    def index(self) -> Mapping[int, int]:
        """Node id -> position in ``node_ids`` (position order is id order)."""
        return {v: i for i, v in enumerate(self.node_ids)}

    @cached_property
    def dense_adjacency(self) -> tuple[tuple[int, ...], ...]:
        """``adjacency`` by position: each node's sorted neighbour positions."""
        index, adj = self.index, self.adjacency
        return tuple(tuple(index[w] for w in adj[v]) for v in self.node_ids)

    @cached_property
    def scaled_tonnages(self) -> tuple[int, ...]:
        """Tonnages by position as integers over one common denominator, so
        their sums and ratios are exact: a finite float is m / 2^e, and the
        largest 2^e serves for all."""
        ratios = [n.tonnage.as_integer_ratio() for n in self.nodes]
        den = max((d for _, d in ratios), default=1)
        return tuple(m * (den // d) for m, d in ratios)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, node_id: int) -> int:
        return len(self.adjacency[node_id])


def average_degree(net: FreightNetwork) -> float:
    """Mean node degree, 2E/N. Raises ValueError on an empty network."""
    if net.node_count == 0:
        raise ValueError("average degree undefined for an empty network")
    return 2.0 * net.edge_count / net.node_count


def filter_mode(net: FreightNetwork, mode: str) -> FreightNetwork:
    """Subnetwork induced on nodes of the given mode (rail or water)."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    keep = tuple(n for n in net.nodes if n.mode == mode)
    kept_ids = {n.id for n in keep}
    edges = tuple((a, b) for a, b in net.edges if a in kept_ids and b in kept_ids)
    return FreightNetwork(keep, edges)


def _read_columns(table, columns, column_map) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, cells)`` for each record of ``table`` after its
    header, ``cells`` holding the record's values of ``columns`` in order.

    ``column_map`` renames canonical -> actual header names, which lets
    the loader consume exports whose tonnage/coordinate columns vary by
    tool version. Extra columns are ignored. Iterate it inside
    ``closing`` so that the file closes when the caller raises.
    """
    with read_rows(table) as records:
        line, row = next(records, (1, None))
        if row is None:
            raise DataError("empty file, expected header row", path=table, line=line)
        header = [h.strip() for h in row]
        index = []
        for name in columns:
            actual = (column_map or {}).get(name, name)
            if actual not in header:
                message = f"missing column {actual!r} in header {header}"
                raise DataError(message, path=table, line=line)
            index.append(header.index(actual))
        for line, row in records:
            if len(row) != len(header):
                message = f"expected {len(header)} fields, got {len(row)}"
                raise DataError(message, path=table, line=line)
            yield line, [row[i] for i in index]


def load_network(
    nodes_table,
    edges_table,
    column_map: Mapping[str, str] | None = None,
) -> FreightNetwork:
    """Load and validate a network from nodes/edges CSV files.

    Both tables go through ``_read_columns``, which applies ``column_map``.
    Duplicate undirected edges (including both orientations of the same
    link) are collapsed; row order never affects the result. Errors are
    reported as DataError with the offending file and line number.
    """
    nodes: list[NodeRecord] = []
    seen: dict[int, int] = {}
    with closing(_read_columns(nodes_table, NODE_COLUMNS, column_map)) as records:
        for lineno, (nid, name, mode, lat, lon, tons) in records:
            try:
                rec = NodeRecord(int(nid), name, mode.strip(), float(lat), float(lon), float(tons))
            except ValueError as exc:
                raise DataError(str(exc), path=nodes_table, line=lineno) from exc
            if rec.id in seen:
                message = f"duplicate node id {rec.id} (first seen on line {seen[rec.id]})"
                raise DataError(message, path=nodes_table, line=lineno)
            seen[rec.id] = lineno
            nodes.append(rec)

    edges: list[tuple[int, int]] = []
    with closing(_read_columns(edges_table, EDGE_COLUMNS, column_map)) as records:
        for lineno, (src, dst) in records:
            try:
                a, b = int(src), int(dst)
            except ValueError as exc:
                raise DataError(str(exc), path=edges_table, line=lineno) from exc
            if a == b:
                raise DataError(f"self-loop at node {a}", path=edges_table, line=lineno)
            for endpoint in (a, b):
                if endpoint not in seen:
                    message = f"edge references unknown node id {endpoint}"
                    raise DataError(message, path=edges_table, line=lineno)
            edges.append((a, b))

    return FreightNetwork.build(nodes, edges)


def save_network(net: FreightNetwork, nodes_path, edges_path) -> None:
    """Export to the canonical CSV form (sorted, round-trip stable)."""
    write_table(
        nodes_path,
        NODE_COLUMNS,
        ([n.id, n.name, n.mode, n.lat, n.lon, n.tonnage] for n in net.nodes),
    )
    write_table(edges_path, EDGE_COLUMNS, net.edges)
