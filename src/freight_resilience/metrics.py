"""Robustness curves from removal sequences.

For each removal step k the curve records FF (size of the largest
surviving connected component), SCF = FF / TF where TF is the largest
component of the intact network, the fraction of total tonnage still on
the network, and the tonnage fraction carried by the largest surviving
component. A network counts as collapsed once SCF drops to or below a
threshold (0.10 by default).

Replay runs backwards: start from the fully disrupted state and re-add
nodes in reverse order under a union-find, so the whole curve costs
near-linear time instead of one component sweep per step. Tonnages
are integers over one common power-of-two denominator (a finite float is
m / 2^k), so tonnage sums are exact; each float column is one correctly
rounded int / int division, which makes the remaining-tonnage column
agree bit-for-bit with the closed form 1 - removed/total.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .climate import SummaryStats, summarize
from .disruption import RemovalSequence
from .errors import DataError
from .network import FreightNetwork
from .tables import read_table, write_table

DEFAULT_COLLAPSE_THRESHOLD = 0.10


@dataclass(frozen=True)
class CurveStep:
    """State after ``step`` removals; ``node_id`` is the node removed at
    this step (None for the intact row)."""

    step: int
    node_id: int | None
    fraction_removed: float
    ff: int
    scf: float
    tonnage_fraction: float
    tonnage_fraction_gcc: float

    def __post_init__(self):
        if self.step < 0 or self.ff < 0:
            raise ValueError("step and ff must be non-negative")
        if (self.step == 0) != (self.node_id is None):
            raise ValueError("node_id must be None exactly at step 0")
        for name in ("fraction_removed", "scf", "tonnage_fraction", "tonnage_fraction_gcc"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")


@dataclass(frozen=True)
class RobustnessCurve:
    """One replayed removal sequence over one network."""

    scenario: str
    model: str | None
    seed: int | None
    n_nodes: int
    tf: int
    steps: tuple[CurveStep, ...]

    def __post_init__(self):
        if self.n_nodes < 1 or not 1 <= self.tf <= self.n_nodes:
            raise ValueError("need n_nodes >= 1 and 1 <= tf <= n_nodes")
        if not self.steps or len(self.steps) > self.n_nodes + 1:
            raise ValueError("steps must cover 0..k for some k <= n_nodes")
        first = self.steps[0]
        if first.step != 0 or first.ff != self.tf or first.scf != 1.0:
            raise ValueError("step 0 must describe the intact network")
        for k, step in enumerate(self.steps):
            if step.step != k:
                raise ValueError(f"non-consecutive step index at position {k}")
            if step.fraction_removed != k / self.n_nodes:
                raise ValueError(f"fraction_removed mismatch at step {k}")
            if step.ff > self.n_nodes - k:
                raise ValueError(f"ff exceeds surviving node count at step {k}")
            if step.scf != step.ff / self.tf:
                raise ValueError(f"scf is not ff/tf at step {k}")
        for prev, cur in zip(self.steps, self.steps[1:]):
            if cur.ff > prev.ff:
                raise ValueError("ff must be non-increasing")
            if cur.tonnage_fraction > prev.tonnage_fraction:
                raise ValueError("tonnage_fraction must be non-increasing")

    @property
    def removed_order(self) -> tuple[int, ...]:
        return tuple(s.node_id for s in self.steps[1:])


def gcc_size(net: FreightNetwork) -> int:
    """Largest connected component size, 0 for the empty network."""
    adj = net.adjacency
    seen: set[int] = set()
    best = 0
    for start in net.node_ids:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        count = 0
        while stack:
            v = stack.pop()
            count += 1
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        best = max(best, count)
    return best


class _UnionFind:
    """Union-find over re-added nodes, tracking size and tonnage per root
    and the running (max component size, max tonnage at that size)."""

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}
        self.tons: dict[int, int] = {}
        self.max_size = 0
        self.max_tons = 0

    def find(self, v: int) -> int:
        root = v
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[v] != root:
            self.parent[v], v = root, self.parent[v]
        return root

    def add(self, v: int, tonnage: int, neighbors: Iterable[int]) -> None:
        self.parent[v] = v
        self.size[v] = 1
        self.tons[v] = tonnage
        for w in neighbors:
            if w not in self.parent:
                continue
            a, b = self.find(v), self.find(w)
            if a == b:
                continue
            if self.size[a] < self.size[b]:
                a, b = b, a
            self.parent[b] = a
            self.size[a] += self.size[b]
            self.tons[a] += self.tons[b]
        root = self.find(v)
        # each component's size only grows, so its last observation here
        # carries its final (size, tonnage); the running max over these
        # observations is exact
        if self.size[root] > self.max_size:
            self.max_size = self.size[root]
            self.max_tons = self.tons[root]
        elif self.size[root] == self.max_size and self.tons[root] > self.max_tons:
            self.max_tons = self.tons[root]


def replay(net: FreightNetwork, seq: RemovalSequence) -> RobustnessCurve:
    """Compute the robustness curve for one removal sequence.

    The sequence may cover any subset of the network; a full sequence
    yields n+1 steps. Ties among equally large surviving components are
    resolved for the tonnage column by taking the heaviest one.
    """
    n = net.node_count
    if n == 0:
        raise ValueError("cannot replay on an empty network")
    known = net.node_by_id
    unknown = [v for v in seq.order if v not in known]
    if unknown:
        raise ValueError(f"sequence removes nodes not in the network: {unknown}")

    # each d is a power of two, so tonnage m / d is exactly m * (den // d) / den
    ratios = [rec.tonnage.as_integer_ratio() for rec in net.nodes]
    den = max(d for _, d in ratios)
    tons = {v: m * (den // d) for v, (m, d) in zip(net.node_ids, ratios)}
    total = sum(tons.values())
    adj = net.adjacency
    removed = set(seq.order)

    uf = _UnionFind()
    for v in net.node_ids:
        if v not in removed:
            uf.add(v, tons[v], adj[v])

    # walk backwards from the fully disrupted state, re-adding nodes
    states: list[tuple[int, int]] = [(uf.max_size, uf.max_tons)]
    for v in reversed(seq.order):
        uf.add(v, tons[v], adj[v])
        states.append((uf.max_size, uf.max_tons))
    states.reverse()  # states[k] = after k removals

    cum = [0, *accumulate(tons[v] for v in seq.order)]  # removed tonnage

    tf = states[0][0]
    steps = []
    for k, (ff, gcc_tons) in enumerate(states):
        if total > 0:
            ton_frac = (total - cum[k]) / total
            ton_frac_gcc = gcc_tons / total
        else:
            ton_frac = 1.0
            ton_frac_gcc = 1.0 if ff > 0 else 0.0
        steps.append(
            CurveStep(
                step=k,
                node_id=None if k == 0 else seq.order[k - 1],
                fraction_removed=k / n,
                ff=ff,
                scf=ff / tf,
                tonnage_fraction=ton_frac,
                tonnage_fraction_gcc=ton_frac_gcc,
            )
        )
    return RobustnessCurve(
        scenario=seq.scenario,
        model=seq.model,
        seed=seq.seed,
        n_nodes=n,
        tf=tf,
        steps=tuple(steps),
    )


def collapse_point(
    curve: RobustnessCurve, threshold: float = DEFAULT_COLLAPSE_THRESHOLD
) -> tuple[int, float] | None:
    """First step where SCF <= threshold, as (step, fraction_removed).

    None if the curve never reaches the threshold (possible for partial
    sequences or thresholds near the final SCF).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold {threshold} outside (0, 1)")
    for step in curve.steps:
        if step.scf <= threshold:
            return step.step, step.fraction_removed
    return None


@dataclass(frozen=True)
class CollapseRow:
    """Collapse fraction for one scenario/model cell (None: no collapse)."""

    scenario: str
    model: str | None
    threshold: float
    collapse_fraction: float | None


@dataclass(frozen=True)
class CurveEnsemble:
    """Per-step spread across curves of one scenario (models or seeds)."""

    scenario: str
    n_curves: int
    threshold: float
    scf: Mapping[int, SummaryStats]
    tonnage_fraction: Mapping[int, SummaryStats]
    collapse: SummaryStats | None


def aggregate_curves(
    curves: Sequence[RobustnessCurve], threshold: float = DEFAULT_COLLAPSE_THRESHOLD
) -> CurveEnsemble:
    """Summarize same-shape curves step by step.

    All curves must share scenario, node count, and step count. The
    collapse summary is present only when every curve collapses.
    """
    if not curves:
        raise ValueError("need at least one curve")
    head = curves[0]
    for c in curves[1:]:
        if c.scenario != head.scenario:
            raise ValueError("curves mix scenarios")
        if c.n_nodes != head.n_nodes or len(c.steps) != len(head.steps):
            raise ValueError("curves have mismatched shapes")
    scf = {
        k: summarize([c.steps[k].scf for c in curves]) for k in range(len(head.steps))
    }
    ton = {
        k: summarize([c.steps[k].tonnage_fraction for c in curves])
        for k in range(len(head.steps))
    }
    points = [collapse_point(c, threshold) for c in curves]
    collapse = None
    if all(p is not None for p in points):
        collapse = summarize([frac for _, frac in points])
    return CurveEnsemble(
        scenario=head.scenario,
        n_curves=len(curves),
        threshold=threshold,
        scf=scf,
        tonnage_fraction=ton,
        collapse=collapse,
    )


# ---------------------------------------------------------------------------
# CSV interfaces

_CURVE_HEADER = [
    "scenario",
    "model",
    "seed",
    "step",
    "node_id",
    "fraction_removed",
    "ff",
    "scf",
    "tonnage_fraction",
    "tonnage_fraction_gcc",
]


def write_curves_csv(curves: Sequence[RobustnessCurve], path) -> None:
    rows = (
        [
            curve.scenario,
            curve.model,
            curve.seed,
            step.step,
            step.node_id,
            step.fraction_removed,
            step.ff,
            step.scf,
            step.tonnage_fraction,
            step.tonnage_fraction_gcc,
        ]
        for curve in curves
        for step in curve.steps
    )
    write_table(path, _CURVE_HEADER, rows)


def read_curves_csv(path) -> list[RobustnessCurve]:
    """Rebuild curves from a curves CSV (rows grouped per curve, in step
    order, as written by write_curves_csv)."""
    groups: dict[tuple[str, str, str], list[CurveStep]] = {}
    with read_table(path, _CURVE_HEADER) as records:
        for lineno, row in records:
            try:
                key = (row[0], row[1], row[2])
                step = CurveStep(
                    step=int(row[3]),
                    node_id=int(row[4]) if row[4] else None,
                    fraction_removed=float(row[5]),
                    ff=int(row[6]),
                    scf=float(row[7]),
                    tonnage_fraction=float(row[8]),
                    tonnage_fraction_gcc=float(row[9]),
                )
            except (ValueError, IndexError) as exc:
                raise DataError(str(exc), path=path, line=lineno) from exc
            groups.setdefault(key, []).append(step)
    curves = []
    for (scenario, model, seed), steps in groups.items():
        if not steps or steps[0].step != 0 or steps[0].fraction_removed != 0.0:
            raise DataError(f"curve {scenario!r}/{model!r}/{seed!r} lacks a step-0 row", path=path)
        if len(steps) > 1:
            if steps[1].fraction_removed <= 0.0:
                raise DataError(
                    f"curve {scenario!r}/{model!r}/{seed!r}: step 1 fraction_removed must be positive",
                    path=path,
                )
            n_nodes = 1 / steps[1].fraction_removed
        else:
            n_nodes = steps[0].ff
        try:
            curves.append(
                RobustnessCurve(
                    scenario=scenario,
                    model=model or None,
                    seed=int(seed) if seed else None,
                    n_nodes=round(n_nodes),
                    tf=steps[0].ff,
                    steps=tuple(steps),
                )
            )
        except (ValueError, OverflowError) as exc:  # overflow: a subnormal step-1 fraction
            raise DataError(f"curve {scenario!r}/{model!r}/{seed!r}: {exc}", path=path) from exc
    return curves


def write_collapse_csv(rows: Sequence[CollapseRow], path) -> None:
    cells = ([r.scenario, r.model, r.threshold, r.collapse_fraction] for r in rows)
    write_table(path, ("scenario", "model", "threshold", "collapse_fraction"), cells)
