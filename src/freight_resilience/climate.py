"""Hot-day exposure from daily maximum temperature series.

A hot day is a calendar day whose maximum temperature strictly exceeds
the threshold (35 C by default). Counts are period totals over an
inclusive year window; deltas are future minus baseline totals per node
and climate model; ensemble statistics summarize per-node values across
the model ensemble.

Series arrive either per node (``model,node_id,date,tmax_c``) or on a
regular lat/lon grid (``model,lat,lon,date,tmax_c``) plus a mapping step
that assigns each node its nearest grid cell center by great-circle
distance. They are counted as they are read, never held as rows, and
inputs of 4 MB or more over byte ranges in the workers of
``tables.fork_map``, with one date cache per worker.
Calendars are taken at face value: no leap-day normalization, and
models with shortened calendars are compared via period totals.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from datetime import date
from functools import partial
from typing import Iterable, Mapping, Sequence

from .errors import DataError
from .network import NodeRecord
from .tables import (
    fork_map,
    pool_size,
    read_range,
    read_table,
    row_error,
    split_table,
    write_table,
)

DEFAULT_THRESHOLD_C = 35.0

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class PeriodSpec:
    """An inclusive year window, e.g. the 1991-2020 baseline."""

    label: str
    start_year: int
    end_year: int

    def __post_init__(self):
        if not 1 <= self.start_year <= self.end_year <= 9998:  # n_days builds 1 Jan end_year + 1
            raise ValueError(f"period {self.label!r}: need 1 <= start_year <= end_year <= 9998")

    def n_days(self) -> int:
        return (date(self.end_year + 1, 1, 1) - date(self.start_year, 1, 1)).days

    def contains(self, day: date) -> bool:
        return self.start_year <= day.year <= self.end_year


BASELINE = PeriodSpec("1991-2020", 1991, 2020)
FUTURE_NEAR = PeriodSpec("2021-2050", 2021, 2050)
FUTURE_FAR = PeriodSpec("2051-2080", 2051, 2080)


@dataclass(frozen=True)
class HotDayProfile:
    """Total hot days per node for one model and period."""

    model: str
    period: PeriodSpec
    counts: Mapping[int, int]
    threshold_c: float = DEFAULT_THRESHOLD_C

    def __post_init__(self):
        limit = self.period.n_days()
        for node, count in self.counts.items():
            if not 0 <= count <= limit:
                raise ValueError(
                    f"node {node}: {count} hot days outside [0, {limit}] for {self.period.label}"
                )


@dataclass(frozen=True)
class SummaryStats:
    mean: float
    sd: float
    min: float
    max: float

    def __post_init__(self):
        if not (self.min <= self.mean <= self.max) or self.sd < 0:
            raise ValueError("requires min <= mean <= max and sd >= 0")


def hot_day_delta(future: HotDayProfile, baseline: HotDayProfile) -> dict[int, int]:
    """Per-node change in hot days, future minus baseline (may be negative)."""
    if future.model != baseline.model:
        raise ValueError(f"model mismatch: {future.model!r} vs {baseline.model!r}")
    if future.threshold_c != baseline.threshold_c:
        raise ValueError(
            f"threshold mismatch: {future.threshold_c} vs {baseline.threshold_c}"
        )
    if set(future.counts) != set(baseline.counts):
        raise ValueError("node sets differ between future and baseline profiles")
    return {node: future.counts[node] - baseline.counts[node] for node in sorted(future.counts)}


def summarize(values: Sequence[float]) -> SummaryStats:
    """Mean, sample sd, min, max of a non-empty value list."""
    k = len(values)
    lo, hi = min(values), max(values)
    mean = math.fsum(values) / k
    # exact summation keeps the mean inside [lo, hi] up to one final
    # rounding; clamp so the bracketing invariant holds bit-exactly
    mean = min(max(mean, lo), hi)
    if k > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (k - 1)
        sd = math.sqrt(var)
    else:
        sd = 0.0
    return SummaryStats(mean=mean, sd=sd, min=lo, max=hi)


def ensemble_stats(per_model: Mapping[str, Mapping[int, float]]) -> dict[int, SummaryStats]:
    """Per-node mean/sd/min/max across models, ``sd`` the sample standard
    deviation. All models must cover the same node set. One model is
    legal: its sd is 0.
    """
    if not per_model:
        raise ValueError("need at least one model")
    models = sorted(per_model)
    node_set = set(per_model[models[0]])
    for m in models[1:]:
        if set(per_model[m]) != node_set:
            raise ValueError(f"model {m!r} covers a different node set")
    return {
        node: summarize([float(per_model[m][node]) for m in models]) for node in sorted(node_set)
    }


def top_k_frequency(orders: Sequence[Sequence[int]], k: int) -> dict[int, int]:
    """How many models place each node in their top-k, given each model's
    node ids in ranking order.

    Every order must cover the same node universe; values range from 0
    (absent everywhere) to the number of models.
    """
    if not orders:
        raise ValueError("need at least one ranking")
    universe = set(orders[0])
    for order in orders[1:]:
        if set(order) != universe:
            raise ValueError("rankings cover inconsistent node universes")
    for order in orders:
        if k > len(order):
            raise ValueError(f"k={k} exceeds ranking length {len(order)}")
    freq = {node: 0 for node in sorted(universe)}
    for order in orders:
        for node in order[:k]:
            freq[node] += 1
    return freq


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


@dataclass(frozen=True)
class RegularGrid:
    """Cell centers of a regular lat/lon grid, each axis sorted ascending."""

    lats: tuple[float, ...]
    lons: tuple[float, ...]

    def __post_init__(self):
        for axis in (self.lats, self.lons):
            if not axis:
                raise ValueError("grid axes must be non-empty")
            if list(axis) != sorted(set(axis)):
                raise ValueError("grid axis values must be strictly ascending")

    def _half_step(self, axis: tuple[float, ...]) -> float:
        return (axis[1] - axis[0]) / 2 if len(axis) > 1 else 0.0

    def covers(self, lat: float, lon: float) -> bool:
        dlat = self._half_step(self.lats)
        dlon = self._half_step(self.lons)
        return (
            self.lats[0] - dlat <= lat <= self.lats[-1] + dlat
            and self.lons[0] - dlon <= lon <= self.lons[-1] + dlon
        )


def map_nodes_to_grid(
    nodes: Iterable[NodeRecord], grid: RegularGrid
) -> dict[int, tuple[float, float]]:
    """Assign each node its nearest cell center by great-circle distance.

    Exact ties break toward the lower (lat, lon) cell. Raises ValueError
    for nodes outside the grid bounding box (cell footprints).
    """
    out: dict[int, tuple[float, float]] = {}
    for node in nodes:
        if not grid.covers(node.lat, node.lon):
            raise ValueError(
                f"node {node.id} at ({node.lat}, {node.lon}) outside grid bounding box"
            )
        best = None
        best_d = math.inf
        for lat in grid.lats:
            for lon in grid.lons:
                d = haversine_km(node.lat, node.lon, lat, lon)
                if d < best_d:  # strict: first (lowest lat, lon) wins ties
                    best_d = d
                    best = (lat, lon)
        out[node.id] = best
    return out


# ---------------------------------------------------------------------------
# CSV interfaces

_PROFILE_HEADER = ("model", "period_label", "node_id", "hot_days", "threshold_c")
_DELTA_HEADER = ("model", "node_id", "delta_hot_days")


# Measured on a 2-CPU host, pool start and merge included: 2 workers took
# 1.26-1.29x the in-process time at 0.5-1 MB, 0.92x at 2 MB and 0.70-0.73x
# at 4-8 MB, so a smaller input is counted in-process. Each worker gets
# about _RANGES_PER_WORKER byte ranges.
_SERIAL_BELOW_BYTES = 4 << 20
_RANGES_PER_WORKER = 2


def _count_rows(paths, header, key_of, periods, threshold_c) -> dict[tuple, tuple[int, ...]]:
    """Hot days per period for each series in the files; ``key_of`` makes a
    row's series key from the columns before the last two (date, tmax), and
    checks the row's width. Large inputs are counted over byte ranges in
    worker processes (``_count_in_workers``); what they cannot settle is
    counted here by the same loop, ``_tally``, which raises every error."""
    if not math.isfinite(threshold_c):
        raise ValueError("threshold must be finite")
    paths = list(paths)
    # the date cache lives for this count: in this process, or in each
    # worker, which inherits it empty and shares it across its ranges
    spans = tuple((p.start_year, p.end_year) for p in periods)
    args = ({}, key_of, len(header), spans, threshold_c)
    series = _count_in_workers(paths, header, args)
    if series is None:
        series = {}
        for path in paths:
            with read_table(path, header) as records:
                _tally(records, path, series, *args)
    return {key: tuple(counts) for key, (counts, _) in series.items()}


def _tally(records, path, series, days, key_of, width, spans, threshold_c) -> dict:
    """Count the ``(line, row)`` records of ``path`` into ``series``, which
    maps a series key to its counts per period and, per year, a bitmask of
    the days seen. ``days`` caches a date text's year, day-of-year bit and
    the periods (``spans`` of years, which may overlap) holding it."""
    date_col = width - 2
    for line, row in records:
        try:
            key = key_of(row)
            state = series.get(key)
            if state is None:
                state = series[key] = ([0] * len(spans), {})
            when = row[date_col]
            day = days.get(when)
            if day is None:
                parsed = date.fromisoformat(when)
                hits = tuple(k for k, (lo, hi) in enumerate(spans) if lo <= parsed.year <= hi)
                day = days[when] = (parsed.year, 1 << parsed.timetuple().tm_yday, hits)
            value = float(row[date_col + 1])
        except ValueError as exc:
            raise row_error(exc, row, width, path, line) from exc
        if value - value != 0.0:  # nan or infinite, without a call per row
            raise DataError(f"tmax {row[date_col + 1]} is not finite", path=path, line=line)
        counts, seen = state
        year, bit, hits = day
        mask = seen.get(year, 0)
        if mask & bit:
            raise DataError(f"date {when} repeated in series {key}", path=path, line=line)
        seen[year] = mask | bit
        if value > threshold_c:
            for k in hits:
                counts[k] += 1
    return series


def _count_in_workers(paths, header, args, workers=None, range_bytes=None) -> dict | None:
    """``_tally``'s series for the files, counted over line-aligned byte
    ranges by ``fork_map`` in ``workers`` processes (default: ``pool_size``)
    and merged in range order, so keys keep their order of first
    appearance. Counts add; the day masks of one series must be disjoint.
    None, for the caller to count in-process, where the files are small
    (unless ``range_bytes`` is given) or cannot be split, and after any
    fault, quoted cell or date seen in two ranges: the in-process loop then
    names the first fault in (file, line) order."""
    try:
        sizes = [os.path.getsize(path) for path in paths]
    except OSError:
        return None
    workers = workers or pool_size(sum(sizes), 0 if range_bytes else _SERIAL_BELOW_BYTES)
    if workers < 2:
        return None
    range_bytes = range_bytes or -(-sum(sizes) // (_RANGES_PER_WORKER * workers))
    tasks = []
    for path, size in zip(paths, sizes):
        ranges = split_table(path, header, -(-size // range_bytes))
        if ranges is None:
            return None
        tasks += [(path, start, end) for start, end in ranges]
    return fork_map(partial(_count_range, args=args), tasks, _merge_counts, workers)


def _count_range(path, start, end, args) -> dict:
    """``_tally`` over one range of ``path``, in a worker process."""
    with read_range(path, start, end) as records:
        return _tally(records, path, {}, *args)


def _merge_counts(parts) -> dict | None:
    series: dict[tuple, tuple[list[int], dict[int, int]]] = {}
    for part in parts:
        for key, (counts, seen) in part.items():
            total, total_seen = series.setdefault(key, ([0] * len(counts), {}))
            for k, n in enumerate(counts):
                total[k] += n
            for year, mask in seen.items():
                before = total_seen.get(year, 0)
                if before & mask:
                    return None
                total_seen[year] = before | mask
    return series


def _node_key(row: list[str]) -> tuple[str, int]:
    model, node, _, _ = row
    return model, int(node)


def _cell_key(row: list[str]) -> tuple[str, float, float]:
    model, lat_cell, lon_cell, _, _ = row
    lat, lon = float(lat_cell), float(lon_cell)
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise ValueError(f"cell ({lat_cell}, {lon_cell}) is not finite")
    return model, lat, lon


def count_series_csv(
    paths: Iterable,
    periods: Sequence[PeriodSpec],
    threshold_c: float = DEFAULT_THRESHOLD_C,
) -> dict[tuple[str, int], tuple[int, ...]]:
    """Hot days per period, in ``periods`` order, for each (model, node_id)
    series in per-node files (``model,node_id,date,tmax_c``). Rows may come
    in any order, a series may span files, and memory grows with series and
    the years they span, not rows. A malformed or non-finite value, or a
    date repeated within a series, raises DataError at its file:line.
    Large inputs are counted in worker processes, with the same results
    and errors."""
    header = ("model", "node_id", "date", "tmax_c")
    return _count_rows(paths, header, _node_key, periods, threshold_c)


def count_gridded_series_csv(
    paths: Iterable,
    nodes: Sequence[NodeRecord],
    periods: Sequence[PeriodSpec],
    threshold_c: float = DEFAULT_THRESHOLD_C,
) -> dict[tuple[str, int], tuple[int, ...]]:
    """``count_series_csv`` for grid-form files (``model,lat,lon,date,tmax_c``):
    each node takes, for every model, the counts of its nearest cell."""
    paths = list(paths)
    header = ("model", "lat", "lon", "date", "tmax_c")
    cells = _count_rows(paths, header, _cell_key, periods, threshold_c)
    try:  # an empty or irregular grid, or a node outside it
        grid = RegularGrid(*(tuple(sorted({key[i] for key in cells})) for i in (1, 2)))
        mapping = map_nodes_to_grid(nodes, grid)
    except ValueError as exc:
        raise DataError(str(exc), path=", ".join(map(str, paths))) from exc
    models = sorted({model for model, _, _ in cells})
    out = {}
    for node in nodes:
        lat, lon = mapping[node.id]
        for model in models:
            counts = cells.get((model, lat, lon))
            if counts is None:
                raise DataError(f"no series for model {model!r} at grid cell ({lat}, {lon})")
            out[(model, node.id)] = counts
    return out


def write_profiles_csv(profiles: Sequence[HotDayProfile], path) -> None:
    """Export hot-day profiles (``model,period_label,node_id,hot_days,threshold_c``)."""
    rows = (
        [p.model, p.period.label, node, p.counts[node], p.threshold_c]
        for p in profiles
        for node in sorted(p.counts)
    )
    write_table(path, _PROFILE_HEADER, rows)


def read_profiles_csv(path, periods: Mapping[str, PeriodSpec]) -> list[HotDayProfile]:
    """Read precomputed profiles; ``periods`` maps labels to year windows."""
    grouped: dict[tuple[str, str, float], dict[int, int]] = {}
    with read_table(path, _PROFILE_HEADER) as records:
        for lineno, row in records:
            try:
                model, label, node, count, threshold = row
                node, count, threshold = int(node), int(count), float(threshold)
            except ValueError as exc:
                raise row_error(exc, row, len(_PROFILE_HEADER), path, lineno) from exc
            if label not in periods:
                raise DataError(f"unknown period label {label!r}", path=path, line=lineno)
            limit = periods[label].n_days()
            if not 0 <= count <= limit:
                raise DataError(
                    f"{count} hot days outside [0, {limit}] for {label}", path=path, line=lineno
                )
            grouped.setdefault((model, label, threshold), {})[node] = count
    return [
        HotDayProfile(model, periods[label], counts, threshold)
        for (model, label, threshold), counts in sorted(grouped.items())
    ]


def write_delta_csv(deltas: Mapping[str, Mapping[int, int]], path) -> None:
    """Export per-model deltas (``model,node_id,delta_hot_days``)."""
    rows = ([m, node, deltas[m][node]] for m in sorted(deltas) for node in sorted(deltas[m]))
    write_table(path, _DELTA_HEADER, rows)


def write_ensemble_csv(
    stats: Mapping[object, SummaryStats], n_models: int, path, key_name: str
) -> None:
    """Export per-key ensemble stats (``<key_name>,mean,sd,min,max,n_models``)."""
    rows = ([key, s.mean, s.sd, s.min, s.max, n_models] for key, s in sorted(stats.items()))
    write_table(path, (key_name, "mean", "sd", "min", "max", "n_models"), rows)
