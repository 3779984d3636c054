"""Independent checks of a run's outputs, valid for any seed.

Reference digests pin outputs only for the seeds they were recorded at;
these checks recompute centrality scores and surviving-component sizes
with networkx from the network the run wrote. They return a list of
problems, empty when the outputs agree.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import networkx as nx

# step positions checked per curve, as fractions of the node count
CHECK_AT = (0.0, 0.25, 0.5, 0.75)


def _rows(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        yield from csv.DictReader(fh)


def _graph(out: Path):
    g = nx.Graph()
    g.add_nodes_from(int(r["id"]) for r in _rows(out / "network_nodes.csv"))
    g.add_edges_from((int(r["src"]), int(r["dst"])) for r in _rows(out / "network_edges.csv"))
    return g


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def check_centrality(out: Path, g) -> list[str]:
    expected = {
        ("degree", "false"): {v: float(d) for v, d in g.degree()},
        ("closeness", "true"): nx.closeness_centrality(g, wf_improved=True),
        ("betweenness", "false"): nx.betweenness_centrality(g, normalized=False),
    }
    problems = []
    seen = {key: 0 for key in expected}
    for r in _rows(out / "centrality_scores.csv"):
        key = (r["kind"], r["normalized"])
        if key not in expected:
            continue
        seen[key] += 1
        want = expected[key][int(r["node_id"])]
        if not _close(float(r["score"]), want):
            problems.append(f"{key[0]} of node {r['node_id']}: {r['score']} != {want!r}")
    for key, count in seen.items():
        if count != g.number_of_nodes():
            problems.append(f"{key[0]} scores for {count} of {g.number_of_nodes()} nodes")
    return problems[:5]


def check_curves(out: Path, g) -> list[str]:
    """Surviving-component size ``ff`` of the first curve of each scenario."""
    curves: dict[str, list[dict]] = {}
    first: dict[str, tuple] = {}
    for r in _rows(out / "curves.csv"):
        key = (r["scenario"], r["model"], r["seed"])
        if first.setdefault(r["scenario"], key) == key:
            curves.setdefault(r["scenario"], []).append(r)
    problems = []
    n = g.number_of_nodes()
    for scenario, steps in curves.items():
        if len(steps) != n + 1:
            problems.append(f"{scenario}: {len(steps)} steps for {n} nodes")
            continue
        order = [int(r["node_id"]) for r in steps[1:]]
        for frac in CHECK_AT:
            k = int(frac * n)
            survivors = g.subgraph(order[k:])
            ff = max((len(c) for c in nx.connected_components(survivors)), default=0)
            if int(steps[k]["ff"]) != ff:
                problems.append(f"{scenario} step {k}: ff {steps[k]['ff']} != {ff}")
    return problems


def check(out: Path) -> list[str]:
    """All checks that apply to one output directory of a full run."""
    g = _graph(out)
    problems = check_curves(out, g)
    if (out / "centrality_scores.csv").is_file():
        problems += check_centrality(out, g)
    return problems
