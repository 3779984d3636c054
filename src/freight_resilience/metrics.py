"""Robustness curves from removal sequences.

For each removal step k the curve records FF (size of the largest
surviving connected component), SCF = FF / TF where TF is the largest
component of the intact network, the fraction of total tonnage still on
the network, and the tonnage fraction carried by the largest surviving
component. A network counts as collapsed once SCF drops to or below a
threshold (0.10 by default).

A curve holds one column per quantity, validated once when it is built.
Replay runs backwards: start from the fully disrupted state and re-add
nodes in reverse order under a union-find over dense node positions, so
the whole curve costs near-linear time instead of one component sweep
per step. Tonnages are integers over one common power-of-two denominator
(a finite float is m / 2^k), so tonnage sums are exact; each float
column is one correctly rounded int / int division, which makes the
remaining-tonnage column agree bit-for-bit with the closed form
1 - removed/total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, count
from operator import ge, le
from typing import Mapping, Sequence

from .climate import SummaryStats, summarize
from .disruption import RemovalSequence
from .errors import DataError
from .network import FreightNetwork
from .tables import read_table, render_record, row_error, write_blocks, write_table

DEFAULT_COLLAPSE_THRESHOLD = 0.10


@dataclass(frozen=True)
class CurveStep:
    """State after ``step`` removals; ``node_id`` is the node removed at
    this step (None for the intact row). One row of a curve's ``steps``
    view; the curve validates its columns, so a step checks nothing."""

    step: int
    node_id: int | None
    fraction_removed: float
    ff: int
    scf: float
    tonnage_fraction: float
    tonnage_fraction_gcc: float


@dataclass(frozen=True)
class RobustnessCurve:
    """One replayed removal sequence over one network, held as columns.

    ``order`` lists the k removed ids; ``ff``, ``tonnage_fraction`` and
    ``tonnage_fraction_gcc`` have k + 1 entries, entry j describing the
    state after j removals. ``fraction_removed`` (j / n_nodes) and ``scf``
    (ff / tf) are derived from them.
    """

    scenario: str
    model: str | None
    seed: int | None
    n_nodes: int
    tf: int
    order: tuple[int, ...]
    ff: tuple[int, ...]
    tonnage_fraction: tuple[float, ...]
    tonnage_fraction_gcc: tuple[float, ...]

    def __post_init__(self):
        n, k, ff = self.n_nodes, len(self.order), self.ff
        if n < 1 or not 1 <= self.tf <= n:
            raise ValueError("need n_nodes >= 1 and 1 <= tf <= n_nodes")
        if k > n:
            raise ValueError(f"{k} removals from {n} nodes")
        if not len(ff) == len(self.tonnage_fraction) == len(self.tonnage_fraction_gcc) == k + 1:
            raise ValueError("ff and the tonnage columns need one entry per step 0..k")
        if ff[0] != self.tf:
            raise ValueError("step 0 must describe the intact network")
        # comparisons with NaN are false, so every check below rejects it
        if not all(map(le, ff, range(n, n - k - 1, -1))):
            raise ValueError("ff exceeds the surviving node count")
        if not (all(map(ge, ff, ff[1:])) and ff[-1] >= 0):
            raise ValueError("ff must be non-increasing and non-negative")
        ton, gcc = self.tonnage_fraction, self.tonnage_fraction_gcc
        if not (all(map(ge, ton, ton[1:])) and ton[0] <= 1.0 and ton[-1] >= 0.0):
            raise ValueError("tonnage_fraction must be non-increasing within [0, 1]")
        if not (all(map((0.0).__le__, gcc)) and all(map((1.0).__ge__, gcc))):
            raise ValueError("tonnage_fraction_gcc outside [0, 1]")

    @cached_property
    def fraction_removed(self) -> tuple[float, ...]:
        n = self.n_nodes
        return tuple(j / n for j in range(len(self.ff)))

    @cached_property
    def scf(self) -> tuple[float, ...]:
        tf = self.tf
        return tuple(f / tf for f in self.ff)

    @cached_property
    def steps(self) -> tuple[CurveStep, ...]:
        """The columns as one read-only record per step, built on first use."""
        values = (self.ff, self.scf, self.tonnage_fraction, self.tonnage_fraction_gcc)
        index = (range(len(self.ff)), (None, *self.order), self.fraction_removed)
        return tuple(map(CurveStep, *index, *values))


def _largest_components(net: FreightNetwork, removed: Sequence[int]) -> list[tuple[int, int]]:
    """(size, scaled tonnage) of the largest component, the heaviest on
    ties, after each prefix of ``removed`` (node positions), found by
    re-adding those nodes in reverse order under a union-find."""
    n, adj = net.node_count, net.dense_adjacency
    parent = list(range(n))
    present = bytearray(n)
    size = [1] * n
    weight = list(net.scaled_tonnages)
    best = (0, 0)

    def add(v: int) -> None:
        nonlocal best
        present[v] = 1
        root = v  # v's root throughout: the smaller tree is hung below the larger
        for w in adj[v]:
            if not present[w]:
                continue
            while parent[w] != w:  # path halving
                parent[w] = parent[parent[w]]
                w = parent[w]
            if w == root:
                continue
            if size[root] < size[w]:
                root, w = w, root
            parent[w] = root
            size[root] += size[w]
            weight[root] += weight[w]
        # each component's size only grows, so its last observation here
        # carries its final (size, tonnage); the running max over these
        # observations is exact
        if (size[root], weight[root]) > best:
            best = (size[root], weight[root])

    gone = set(removed)
    for v in range(n):
        if v not in gone:
            add(v)
    states = [best]
    for v in reversed(removed):
        add(v)
        states.append(best)
    states.reverse()
    return states


def gcc_size(net: FreightNetwork) -> int:
    """Largest connected component size, 0 for the empty network."""
    return _largest_components(net, ())[0][0]


def replay(net: FreightNetwork, seq: RemovalSequence) -> RobustnessCurve:
    """Compute the robustness curve for one removal sequence.

    The sequence may cover any subset of the network; a full sequence
    yields n+1 steps. Ties among equally large surviving components are
    resolved for the tonnage column by taking the heaviest one.
    """
    if net.node_count == 0:
        raise ValueError("cannot replay on an empty network")
    index = net.index
    unknown = [v for v in seq.order if v not in index]
    if unknown:
        raise ValueError(f"sequence removes nodes not in the network: {unknown}")
    removed = [index[v] for v in seq.order]
    tons = net.scaled_tonnages
    total = sum(tons)
    states = _largest_components(net, removed)
    ff, gcc_tons = zip(*states)
    if total > 0:
        removed_tons = accumulate((tons[v] for v in removed), initial=0)
        ton_frac = tuple((total - t) / total for t in removed_tons)
        ton_frac_gcc = tuple(t / total for t in gcc_tons)
    else:
        ton_frac = (1.0,) * len(ff)
        ton_frac_gcc = tuple(1.0 if f > 0 else 0.0 for f in ff)
    return RobustnessCurve(
        scenario=seq.scenario,
        model=seq.model,
        seed=seq.seed,
        n_nodes=net.node_count,
        tf=ff[0],
        order=seq.order,
        ff=ff,
        tonnage_fraction=ton_frac,
        tonnage_fraction_gcc=ton_frac_gcc,
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
    for j, scf in enumerate(curve.scf):
        if scf <= threshold:
            return j, curve.fraction_removed[j]
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
        if c.n_nodes != head.n_nodes or len(c.ff) != len(head.ff):
            raise ValueError("curves have mismatched shapes")
    # one tuple of values across the curves per step
    scf = dict(enumerate(map(summarize, zip(*(c.scf for c in curves)))))
    ton = dict(enumerate(map(summarize, zip(*(c.tonnage_fraction for c in curves)))))
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
    # a fraction_removed cell depends only on the step and the node count,
    # and the ff and scf cells only on ff and tf, so each text is built once
    # per value (scf by the arithmetic of RobustnessCurve.scf); each curve
    # is one block of records
    fractions = {n: [repr(j / n) for j in range(n + 1)] for n in {c.n_nodes for c in curves}}
    ff_scf = {tf: [f"{f},{f / tf!r}" for f in range(tf + 1)] for tf in {c.tf for c in curves}}

    def block(c: RobustnessCurve) -> str:
        head = render_record((c.scenario, c.model, c.seed))
        ff_text = ff_scf[c.tf]
        columns = (
            ("", *c.order), fractions[c.n_nodes], c.ff, c.tonnage_fraction, c.tonnage_fraction_gcc
        )
        return "".join([
            f"{head},{j},{v},{x},{ff_text[f]},{t!r},{g!r}\n"
            for j, v, x, f, t, g in zip(count(), *columns)
        ])

    write_blocks(path, _CURVE_HEADER, map(block, curves))


def read_curves_csv(path) -> list[RobustnessCurve]:
    """Rebuild curves from a curves CSV (rows grouped per curve, in step
    order, as written by write_curves_csv).

    A fault in one row raises DataError at its line; a fault in a whole
    curve (its values disagree with each other) names the curve.
    """
    # (scenario, model, seed cells) -> seed and the columns as read:
    # order, fraction_removed, ff, scf, tonnage_fraction, tonnage_fraction_gcc
    groups: dict[tuple[str, str, str], tuple] = {}
    key = None
    with read_table(path, _CURVE_HEADER) as records:
        for lineno, row in records:
            try:
                (scenario, model, seed, step, node,
                 frac_cell, ff_cell, scf_cell, ton_cell, gcc_cell) = row
                if (scenario, model, seed) != key:
                    key = (scenario, model, seed)
                    if key not in groups:
                        groups[key] = (int(seed) if seed else None, [], [], [], [], [], [])
                    _, order, frac, ff, scf, ton, gcc = groups[key]
                step = int(step)
                if step != len(ff):
                    expected = "a step-0 row" if not ff else f"step {len(ff)}"
                    raise ValueError(f"step {step} where the curve needs {expected}")
                if step:
                    if not node:
                        raise ValueError(f"step {step} names no removed node_id")
                    order.append(int(node))
                elif node:
                    raise ValueError("the step-0 row must leave node_id blank")
                frac.append(float(frac_cell))
                ff.append(int(ff_cell))
                scf.append(float(scf_cell))
                ton.append(float(ton_cell))
                gcc.append(float(gcc_cell))
            except ValueError as exc:
                raise row_error(exc, row, len(_CURVE_HEADER), path, lineno) from exc
    curves = []
    for (scenario, model, seed_cell), (seed, order, frac, ff, scf, ton, gcc) in groups.items():
        try:
            if len(frac) > 1 and not frac[1] > 0.0:
                raise ValueError("step 1 fraction_removed must be positive")
            n_nodes = round(1 / frac[1]) if len(frac) > 1 else ff[0]
            columns = map(tuple, (order, ff, ton, gcc))
            curve = RobustnessCurve(scenario, model or None, seed, n_nodes, ff[0], *columns)
            if tuple(frac) != curve.fraction_removed:
                raise ValueError("fraction_removed is not step/n_nodes")
            if tuple(scf) != curve.scf:
                raise ValueError("scf is not ff/tf")
        except (ValueError, OverflowError) as exc:  # overflow: a subnormal step-1 fraction
            raise DataError(f"curve {scenario!r}/{model!r}/{seed_cell!r}: {exc}", path=path) from exc
        curves.append(curve)
    return curves


def write_collapse_csv(rows: Sequence[CollapseRow], path) -> None:
    cells = ([r.scenario, r.model, r.threshold, r.collapse_fraction] for r in rows)
    write_table(path, ("scenario", "model", "threshold", "collapse_fraction"), cells)
