"""Robustness curves from removal sequences.

For each removal step k the curve records FF (size of the largest
surviving connected component), SCF = FF / TF where TF is the largest
component of the intact network, the fraction of total tonnage still on
the network, and the tonnage fraction carried by the largest surviving
component. A network counts as collapsed once SCF drops to or below a
threshold (0.10 by default).

A curve holds one column per quantity, validated once when it is built:
the removed ids as a tuple, the sequence's own, and the numeric columns as
typed arrays (``array('q')`` for FF, ``array('d')`` for the fractions), so
a step costs 8 bytes per column instead of a boxed number and a pointer.
Replay runs backwards: start from the fully disrupted state and re-add
nodes in reverse order under a union-find over dense node positions, so
the whole curve costs near-linear time instead of one component sweep
per step. Tonnages are integers over one common power-of-two denominator
(a finite float is m / 2^k), so tonnage sums are exact; each float
column is one correctly rounded int / int division, which makes the
remaining-tonnage column agree bit-for-bit with the closed form
1 - removed/total.

curves.csv holds one run of rows per curve. The replay that writes it
runs in ``tables.fork_map`` worker processes from
``_REPLAY_SERIAL_BELOW_ROWS`` curve rows up, each worker replaying and
rendering slices of the sequences; a worker sends back each curve without
its ``order``, which the parent's curve takes from its sequence. A large
file, by the cutoff of ``tables.map_ranges``, is read in worker processes
over byte ranges cut only between curves, so each worker builds whole
curves. Read back, pooled or not, the curves of one file share one int
object per node id: the in-process reader interns each id it parses in
one dict, and a worker sends each curve's ``order`` as an ``array('q')``
(a tuple where an id needs more than 64 bits), which the parent turns
into a tuple through one such dict.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, count
from operator import ge, le
from typing import Iterable, Iterator, Mapping, Sequence

from .climate import SummaryStats, summarize
from .disruption import RemovalSequence
from .errors import DataError
from .network import FreightNetwork
from .tables import fork_map, map_ranges, read_table, render_record, row_error, write_blocks

DEFAULT_COLLAPSE_THRESHOLD = 0.10

# the array typecode of each numeric column a curve is given
_COLUMN_TYPES = (("ff", "q"), ("tonnage_fraction", "d"), ("tonnage_fraction_gcc", "d"))


@dataclass(frozen=True)
class RobustnessCurve:
    """One replayed removal sequence over one network, held as columns.

    ``order`` lists the k removed ids, as a tuple: ids are unbounded ints.
    ``ff`` (an ``array('q')``), ``tonnage_fraction`` and
    ``tonnage_fraction_gcc`` (``array('d')``) have k + 1 entries, entry j
    describing the state after j removals. ``fraction_removed`` (j /
    n_nodes, a tuple shared by the full curves of a node count) and ``scf``
    (ff / tf, an ``array('d')``) are derived from them. Any sequences given
    are stored in these types, so a curve built from tuples equals the
    same curve read back; a cell that does not convert, as a float in
    ``ff``, raises ValueError. A curve from ``replay`` holds its
    sequence's own ``order`` tuple; the curves that ``read_curves_csv``
    reads from one file share one int object per node id.
    """

    scenario: str
    model: str | None
    seed: int | None
    n_nodes: int
    tf: int
    order: tuple[int, ...]
    ff: array[int]
    tonnage_fraction: array[float]
    tonnage_fraction_gcc: array[float]

    def __post_init__(self):
        n, k, ff = self.n_nodes, len(self.order), self.ff
        if n < 1 or not 1 <= self.tf <= n:
            raise ValueError("need n_nodes >= 1 and 1 <= tf <= n_nodes")
        if k > n:
            raise ValueError(f"{k} removals from {n} nodes")
        if not len(ff) == len(self.tonnage_fraction) == len(self.tonnage_fraction_gcc) == k + 1:
            raise ValueError("ff and the tonnage columns need one entry per step 0..k")
        if type(self.order) is not tuple:
            object.__setattr__(self, "order", tuple(self.order))
        for name, code in _COLUMN_TYPES:
            column = getattr(self, name)
            if type(column) is not array or column.typecode != code:
                try:
                    column = array(code, column)
                except (TypeError, OverflowError) as exc:
                    raise ValueError(f"{name}: {exc}") from exc
                object.__setattr__(self, name, column)
        ff = self.ff  # as converted
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
        n, steps = self.n_nodes, len(self.ff)
        return _fractions(n) if steps == n + 1 else tuple(j / n for j in range(steps))

    @cached_property
    def scf(self) -> array[float]:
        return _scf(self)

    def __getstate__(self) -> dict:
        # a copy derives its own columns, so that its fraction_removed is
        # the tuple its process shares
        return {k: v for k, v in vars(self).items() if k not in ("fraction_removed", "scf")}


def _scf(curve: RobustnessCurve) -> array[float]:
    tf = curve.tf
    return array("d", [f / tf for f in curve.ff])


@lru_cache(maxsize=4)
def _fractions(n: int) -> tuple[float, ...]:
    # j / n for every step of a full curve: one tuple for all the full
    # curves of a node count
    return tuple(j / n for j in range(n + 1))


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
    sizes, gcc_tons = zip(*_largest_components(net, removed))
    ff = array("q", sizes)
    if total > 0:
        removed_tons = accumulate((tons[v] for v in removed), initial=0)
        ton_frac = array("d", [(total - t) / total for t in removed_tons])
        ton_frac_gcc = array("d", [t / total for t in gcc_tons])
    else:
        ton_frac = array("d", [1.0]) * len(ff)
        ton_frac_gcc = array("d", [1.0 if f > 0 else 0.0 for f in ff])
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
    tf = curve.tf
    for j, ff in enumerate(curve.ff):
        if ff / tf <= threshold:  # the step's SCF, without building the column
            return j, curve.fraction_removed[j]
    return None


@dataclass(frozen=True)
class CurveEnsemble:
    """Per-step spread across curves of one scenario (models or seeds).

    ``scf`` and ``tonnage_fraction`` map each step to the ``summarize`` of
    its column across the curves, whose mean is clamped into [min, max];
    ``scf_mean`` and ``tonnage_fraction_mean`` hold each step's plain
    ``fsum / n_curves`` from the same pass, which may exceed that max or
    fall below that min by one rounding. ``collapse_points`` holds each
    curve's ``collapse_point``, in curve order; ``collapse`` summarizes
    their fractions and is present only when every curve collapses.
    """

    scenario: str
    n_curves: int
    scf: Mapping[int, SummaryStats]
    tonnage_fraction: Mapping[int, SummaryStats]
    collapse: SummaryStats | None
    scf_mean: tuple[float, ...]
    tonnage_fraction_mean: tuple[float, ...]
    collapse_points: tuple[tuple[int, float] | None, ...]


def _step_summaries(columns, k: int) -> tuple[dict[int, SummaryStats], tuple[float, ...]]:
    # one column of k values per step, read once for both figures
    stats, means = {}, []
    for j, column in enumerate(columns):
        stats[j] = summarize(column)
        means.append(math.fsum(column) / k)
    return stats, tuple(means)


def aggregate_curves(
    curves: Sequence[RobustnessCurve], threshold: float = DEFAULT_COLLAPSE_THRESHOLD
) -> CurveEnsemble:
    """Summarize same-shape curves step by step, and find where each collapses.

    All curves must share scenario, node count, and step count.
    """
    if not curves:
        raise ValueError("need at least one curve")
    head = curves[0]
    for c in curves[1:]:
        if c.scenario != head.scenario:
            raise ValueError("curves mix scenarios")
        if c.n_nodes != head.n_nodes or len(c.ff) != len(head.ff):
            raise ValueError("curves have mismatched shapes")
    k = len(curves)
    # the SCF columns live for this call only, not cached on each curve
    scf, scf_mean = _step_summaries(zip(*map(_scf, curves)), k)
    ton, ton_mean = _step_summaries(zip(*(c.tonnage_fraction for c in curves)), k)
    points = tuple(collapse_point(c, threshold) for c in curves)
    collapse = None if None in points else summarize([frac for _, frac in points])
    return CurveEnsemble(
        scenario=head.scenario,
        n_curves=k,
        scf=scf,
        tonnage_fraction=ton,
        collapse=collapse,
        scf_mean=scf_mean,
        tonnage_fraction_mean=ton_mean,
        collapse_points=points,
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


def render_curve(c: RobustnessCurve) -> str:
    """The records of ``c`` in curves.csv, as one block of text."""
    head = render_record((c.scenario, c.model, c.seed))
    ff_text = _ff_scf_texts(c.tf)
    columns = (
        ("", *c.order), _fraction_texts(c.n_nodes), c.ff, c.tonnage_fraction, c.tonnage_fraction_gcc
    )
    return "".join([
        f"{head},{j},{v},{x},{ff_text[f]},{t!r},{g!r}\n"
        for j, v, x, f, t, g in zip(count(), *columns)
    ])


# a fraction_removed cell depends only on the step and the node count, and
# the ff and scf cells only on ff and tf, so each text is built once per
# value (scf by the arithmetic of RobustnessCurve.scf)
@lru_cache(maxsize=4)
def _fraction_texts(n: int) -> tuple[str, ...]:
    return tuple(map(repr, _fractions(n)))


@lru_cache(maxsize=4)
def _ff_scf_texts(tf: int) -> tuple[str, ...]:
    return tuple(f"{f},{f / tf!r}" for f in range(tf + 1))


def write_curves_csv(curves: Iterable[RobustnessCurve], path) -> None:
    write_blocks(path, _CURVE_HEADER, map(render_curve, curves))


# Measured on a 2-CPU host, pool start included, replaying and rendering
# 2,000-node random trials: 2 workers took about the in-process time at
# 20k rows, 0.83x at 40k and 0.74x at 60k, so fewer rows are replayed
# in-process (static-500 has 28k). Small tasks keep small what the parent
# holds of the workers' results: 100 trials in tasks of 13, 4 and 2 trials
# peaked at 62-65, 56-57 and 55 MB, against 46 MB in-process, so a task
# has about _TASK_ROWS rows.
_REPLAY_SERIAL_BELOW_ROWS = 50_000
_TASK_ROWS = 4096


def replay_to_csv(
    net: FreightNetwork, sequences: Sequence[RemovalSequence], path
) -> list[RobustnessCurve]:
    """``replay`` of each sequence, in order, with the curves written to
    ``path`` as ``write_curves_csv`` writes them. Contiguous slices of the
    sequences, of about ``_TASK_ROWS`` rows each, are replayed and rendered
    as one block per slice, and each block is written as it arrives. The
    slices run in ``fork_map`` workers from ``_REPLAY_SERIAL_BELOW_ROWS``
    rows up, and in-process below that or wherever ``fork_map`` gives
    None. Either way each curve holds its sequence's own ``order`` tuple."""
    rows = sum(len(s.order) + 1 for s in sequences)
    step = max(1, len(sequences) * _TASK_ROWS // (rows or 1))
    slices = [(i, i + step) for i in range(0, len(sequences), step)]

    def task(start: int, end: int) -> tuple[list[RobustnessCurve], str]:
        curves = [replay(net, s) for s in sequences[start:end]]
        return curves, "".join(map(render_curve, curves))

    def shipped(start: int, end: int) -> tuple[list[dict], str]:
        # a worker's curves go back as their state without ``order``, and
        # each takes its sequence's own tuple again, not an unpickled copy
        curves, text = task(start, end)
        return [{k: v for k, v in c.__getstate__().items() if k != "order"} for c in curves], text

    def rejoined(parts):
        for (start, end), (states, text) in zip(slices, parts):
            orders = (s.order for s in sequences[start:end])
            yield list(map(_restored, states, orders)), text

    def consume(parts) -> list[RobustnessCurve]:
        curves: list[RobustnessCurve] = []

        def blocks():
            for part, text in parts:
                curves.extend(part)
                yield text

        write_blocks(path, _CURVE_HEADER, blocks())
        return curves

    curves = None
    if rows >= _REPLAY_SERIAL_BELOW_ROWS:
        curves = fork_map(shipped, slices, lambda parts: consume(rejoined(parts)))
    if curves is None:
        curves = consume(task(*s) for s in slices)
    return curves


def _restored(state: dict, order: tuple[int, ...]) -> RobustnessCurve:
    # rebuilt as unpickling rebuilds a curve, from the state of one that a
    # worker built and checked, with ``order`` equal to that curve's own
    curve = object.__new__(RobustnessCurve)
    vars(curve).update(state, order=order)
    return curve


def read_curves_csv(path) -> list[RobustnessCurve]:
    """Rebuild curves from a curves CSV (rows grouped per curve, in step
    order, as written by write_curves_csv).

    A fault in one row raises DataError at its line, as does a row that
    takes up a curve again after another curve's rows; a fault in a whole
    curve (its values disagree with each other) names the curve. Each
    curve is built as soon as its rows end, in file order. A large file is
    read in worker processes over byte ranges that each hold whole curves,
    with the same curves and errors. Either way the curves share one int
    object per node id.

    The file holds no node count: ``n_nodes`` is 1 / the step-1
    ``fraction_removed``. A curve with no removals has no step 1 and
    reads back with ``n_nodes = tf``, short of the network's node count
    when the largest component is smaller than the network.
    """
    curves = map_ranges(_shipped_curves, [path], _CURVE_HEADER, _join_ranges, key_cells=3)
    if curves is None:
        with read_table(path, _CURVE_HEADER) as records:
            curves = _read_curves(records, path, {})
    return curves


def _read_curves(records, path, ids: dict[int, int]) -> list[RobustnessCurve]:
    """The curves of ``records``, a whole curves file or, in a worker
    process, one of its ranges, which starts at a curve's step-0 row; each
    node id is the one int of its value in ``ids``."""
    return [_build_curve(run, path) for run in _curve_runs(records, path, ids)]


def _shipped_curves(records, path) -> list[dict]:
    """In a worker: the curves of one range, each as its state with
    ``order`` as an ``array('q')``, or as the tuple where an id needs more
    than 64 bits. The parent holds the ranges that arrive ahead of
    ``_join_ranges``, at 8 bytes an id instead of an unpickled int each."""
    states = []
    for curve in _read_curves(records, path, {}):
        state = curve.__getstate__()
        try:
            state["order"] = array("q", curve.order)
        except OverflowError:
            pass
        states.append(state)
    return states


def _curve_runs(records, path, ids: dict[int, int]) -> Iterator[tuple]:
    """The runs of rows of one curve each in ``records``, each yielded once
    the next run begins or the records end, as ``(key, seed, columns)``: the
    (scenario, model, seed) cells, the seed and the columns as read (order
    as a list of ids taken from ``ids``, where each parsed id is added
    once; fraction_removed, ff, scf, tonnage_fraction and
    tonnage_fraction_gcc as arrays of a curve's types), whose steps run
    from 0. A row fault, and a key that an earlier run had, raise DataError
    at the row's line."""
    seen = set()
    key = run = None
    for lineno, row in records:
        try:
            (scenario, model, seed, step, node,
             frac_cell, ff_cell, scf_cell, ton_cell, gcc_cell) = row
            if (scenario, model, seed) != key:
                if run is not None:
                    yield run
                key = (scenario, model, seed)
                if key in seen:
                    raise ValueError(
                        f"curve {scenario!r}/{model!r}/{seed!r} resumes after another curve's rows"
                    )
                seen.add(key)
                order, frac, ff, scf, ton, gcc = columns = (
                    [], array("d"), array("q"), array("d"), array("d"), array("d")
                )
                run = (key, int(seed) if seed else None, columns)
            step = int(step)
            if step != len(ff):
                expected = f"step {len(ff)}" if ff else "a step-0 row"
                raise ValueError(f"step {step} where the curve needs {expected}")
            if step:
                if not node:
                    raise ValueError(f"step {step} names no removed node_id")
                node = int(node)
                order.append(ids.setdefault(node, node))
            elif node:
                raise ValueError("the step-0 row must leave node_id blank")
            frac.append(float(frac_cell))
            ff.append(int(ff_cell))
            scf.append(float(scf_cell))
            ton.append(float(ton_cell))
            gcc.append(float(gcc_cell))
        except (ValueError, OverflowError) as exc:  # overflow: an ff cell beyond 64 bits
            raise row_error(exc, row, len(_CURVE_HEADER), path, lineno) from exc
    if run is not None:
        yield run


def _build_curve(run: tuple, path) -> RobustnessCurve:
    """The curve of one whole run from ``_curve_runs``, which keeps the
    run's arrays, checked against the fraction_removed and scf cells as
    read."""
    (scenario, model, seed_cell), seed, (order, frac, ff, scf, ton, gcc) = run
    try:
        if len(frac) > 1 and not frac[1] > 0.0:
            raise ValueError("step 1 fraction_removed must be positive")
        n_nodes = round(1 / frac[1]) if len(frac) > 1 else ff[0]
        curve = RobustnessCurve(scenario, model or None, seed, n_nodes, ff[0], order, ff, ton, gcc)
        if tuple(frac) != curve.fraction_removed:
            raise ValueError("fraction_removed is not step/n_nodes")
        if scf != _scf(curve):  # not curve.scf, which would keep the column
            raise ValueError("scf is not ff/tf")
    except (ValueError, OverflowError) as exc:  # overflow: a subnormal step-1 fraction
        raise DataError(f"curve {scenario!r}/{model!r}/{seed_cell!r}: {exc}", path=path) from exc
    return curve


def _join_ranges(parts: Iterator[list[dict]]) -> list[RobustnessCurve] | None:
    """The curves of the ranges' ``_shipped_curves``, in file order, each
    ``order`` a tuple of ids taken from one dict for the whole file; None
    where two curves share a key, as where one curve's rows resume after
    another's, for the in-process reader to name the line."""
    ids: dict[int, int] = {}
    curves = []
    for part in parts:
        for state in part:
            order = state["order"]
            curves.append(_restored(state, tuple(map(ids.setdefault, order, order))))
    if len({(c.scenario, c.model, c.seed) for c in curves}) < len(curves):
        return None
    return curves
