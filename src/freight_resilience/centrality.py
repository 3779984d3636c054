"""Degree, closeness, and betweenness centrality with deterministic rankings.

Shortest paths are hop counts (the freight networks are unweighted and
bidirectional). Betweenness follows the unordered-pair convention: each
pair {s, t} contributes once. Summing over ordered pairs, as some
definitions do, exactly doubles every score on an undirected graph and
leaves all rankings and removal orders unchanged.

The kernels run on dense positions: ``FreightNetwork.dense_adjacency``
lists each node's neighbours by position, and position order is id
order, so "ties go to the lower id" is "ties go to the lower position".
Distances and path counts live in flat lists. One all-sources sweep
(``_sweep``) gives a run's betweenness scores and rank key, and every
adaptive betweenness re-ranking. It first folds the trees hanging off
the network into the nodes they hang from (``_peel``): each core node
gets an integer weight, 1 plus the sizes of the trees folded into it.
Brandes' accumulation then runs on the core alone, one breadth-first
search per core node, with source and target counts weighted. The pairs
that the trees fix are added in closed form: a node v of weight W in a
component of C nodes, with folded subtrees of sizes c_i, carries
((C - 1)^2 - sum of c_i^2 - (C - W)^2) / 2 pairs that every shortest
path routes through it; for a folded node W is its subtree's size.
Every closeness score and key (``all_scores``, ``closeness_centrality``
and every adaptive closeness re-ranking) comes from one kernel that
grows all nodes' balls at once (``_ball_sums``): about diameter rounds
of one big-int OR per edge.

Every ranking follows one rule, ``rank_order``: descending key, ties to
the lower id. Adaptive ranking takes the first maximum of the survivors'
keys in position order, which is the same rule.

Path counts are exact integers. Brandes' accumulation runs in integers
over one common denominator, and one exact ``Fraction`` per node is built
at the end, so scores are independent of node iteration order and safe
to compare exactly against pairwise path-count oracles. Floats appear
only once, in the final, exactly rounded conversion of each score.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import Mapping, Sequence

from .network import FreightNetwork
from .tables import write_table

CENTRALITY_KINDS = ("degree", "closeness", "betweenness")


@dataclass(frozen=True)
class CentralityScores:
    """Per-node scores for one centrality kind.

    Every node of the source network has exactly one score; normalized
    scores lie in [0, 1].
    """

    kind: str
    scores: Mapping[int, float]
    normalized: bool

    def __post_init__(self):
        if self.kind not in CENTRALITY_KINDS:
            raise ValueError(f"kind must be one of {CENTRALITY_KINDS}, got {self.kind!r}")
        for node, value in self.scores.items():
            if value < 0:
                raise ValueError(f"negative score {value} for node {node}")
            if self.normalized and value > 1:
                raise ValueError(f"normalized score {value} > 1 for node {node}")


def _bfs_counts(adj: Sequence[Sequence[int]], source: int):
    """Shortest-path counts, BFS order and each reached node's shortest-path
    predecessors from position ``source`` over dense adjacency ``adj``.
    Unreached positions have count 0; they and the source have
    predecessors None."""
    dist = [-1] * len(adj)
    sigma = [0] * len(adj)
    preds = [None] * len(adj)
    dist[source] = 0
    sigma[source] = 1
    order = [source]
    for v in order:  # the order list is its own queue
        dv1 = dist[v] + 1
        sv = sigma[v]
        for w in adj[v]:
            dw = dist[w]
            if dw < 0:
                dist[w] = dv1
                sigma[w] = sv
                preds[w] = [v]
                order.append(w)
            elif dw == dv1:
                sigma[w] += sv
                preds[w].append(v)
    return sigma, order, preds


def _ball_sums(adj: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """(reach, sum of hop distances to the reachable set) of every position
    of dense adjacency ``adj``; (0, 0) where a position has no neighbours.

    Each position's ball of radius d is one int with a bit per position:
    ball_{d+1}(v) = ball_d(v) | the OR of ball_d(w) over neighbours w, so
    the bits new in round d are the positions at distance d. A position
    drops out of the rounds once its ball stops growing."""
    ball = [1 << v for v in range(len(adj))]
    size = [1] * len(adj)
    total = [0] * len(adj)
    active = [v for v, neighbours in enumerate(adj) if neighbours]
    depth = 0
    while active:
        depth += 1
        # every ball of this round is built from the previous round's balls
        grown = [reduce(or_, map(ball.__getitem__, adj[v]), ball[v]) for v in active]
        still = []
        for v, b in zip(active, grown):
            k = b.bit_count()
            if k > size[v]:
                ball[v] = b
                total[v] += depth * (k - size[v])
                size[v] = k
                still.append(v)
        active = still
    return [(k - 1, t) for k, t in zip(size, total)]


def _peel(adj: Sequence[Sequence[int]]):
    """Fold the trees hanging off dense adjacency ``adj`` into the positions
    they hang from: repeatedly fold a position with one neighbour left into
    that neighbour. What is left is the core: every component with a cycle
    keeps its 2-core, and a component that is a tree keeps one position.

    Returns ``(core, weight, squares, folds)``. ``core[v]`` lists v's
    neighbours in the core, empty for a folded position and for a tree's
    last position. ``weight[v]`` is 1 plus the sizes of the subtrees
    folded into v, and ``squares[v]`` the sum of their squared sizes; for
    a folded position these describe its own subtree. ``folds`` lists
    (position, the position it folded into) in folding order."""
    degree = [len(neighbours) for neighbours in adj]
    weight = [1] * len(adj)
    squares = [0] * len(adj)
    folds = []
    leaves = [v for v, d in enumerate(degree) if d == 1]
    for x in leaves:  # the leaves list is its own queue
        if degree[x] != 1:
            continue  # its last neighbour folded into it: the last of a tree
        degree[x] = 0
        p = next(w for w in adj[x] if degree[w])  # folded positions have degree 0
        folds.append((x, p))
        weight[p] += weight[x]
        squares[p] += weight[x] ** 2
        degree[p] -= 1
        if degree[p] == 1:
            leaves.append(p)
    core = [
        [w for w in neighbours if degree[w]] if degree[v] else []
        for v, neighbours in enumerate(adj)
    ]
    return core, weight, squares, folds


def _sweep(adj: Sequence[Sequence[int]]):
    """Betweenness of every position of dense adjacency ``adj``: Brandes'
    accumulation over the folded core (``_peel``) plus the pairs the
    folded trees fix in closed form.

    Core pairs. For core positions a != b, every position of a's trees
    reaches every position of b's trees along the shortest a-b paths of
    the core, so a core position v between them carries W(a) W(b) of
    those pairs, shared as sigma_ab(v) / sigma_ab, where W is the weight.
    One search per core position s with a core neighbour gives them. Let
    sigma(v) count the shortest s-v paths, delta(v) be the weighted
    dependency of s on v, and l be the lcm of sigma over the positions s
    reaches. Then omega(v) = l * delta(v) / sigma(v) is an integer:

        omega(v) = sum over successors w of v of (l / sigma(w) * W(w) + omega(w))

    where w succeeds v when v is one of w's shortest-path predecessors,
    and s adds W(s) * delta(v) to v. Each position keeps one int,
    W(s) * delta(v) * g = W(s) * sigma(v) * omega(v) * (g / l), over a
    common denominator g; when a source's l does not divide g, g grows to
    lcm(g, l) and every accumulator is rescaled. Each unordered pair is
    counted from both endpoints.

    Tree pairs. Every other pair through v has an endpoint in v's folded
    subtrees, of sizes c_i, and every shortest path of it runs through v.
    Removing v leaves those subtrees and the rest of its component, of
    size C - W(v) with C the component's size, and v carries every pair
    split between two of these parts:

        ((C - 1)**2 - sum of c_i**2 - (C - W(v))**2) / 2

    For a folded position the subtrees are those folded into it and the
    rest is everything else. These are added as integers times 2 g, so
    betweenness is acc / (2 g). Returns the accumulators by position and
    g. No folded position is searched, and neither is the last position
    of a tree nor one with no neighbours (its accumulator is 0).
    """
    core, weight, squares, folds = _peel(adj)
    size = weight[:]  # becomes the size of each position's component
    acc = [0] * len(adj)
    g = 1
    for s, neighbours in enumerate(core):
        if not neighbours:
            continue
        sigma, order, preds = _bfs_counts(core, s)
        size[s] = sum(map(weight.__getitem__, order))
        l = lcm(*map(sigma.__getitem__, order))
        if g % l:
            scale = l // gcd(g, l)
            g *= scale
            acc = [a * scale for a in acc]
        step = g // l * weight[s]
        omega = [0] * len(adj)
        for w in order[:0:-1]:  # every position but s, farthest first
            sw = sigma[w]
            ow = omega[w]
            acc[w] += sw * ow * step
            ow += l // sw * weight[w]
            for v in preds[w]:
                omega[v] += ow
    for x, p in reversed(folds):
        size[x] = size[p]
    for v, (c, w) in enumerate(zip(size, weight)):
        acc[v] += g * ((c - 1) ** 2 - squares[v] - (c - w) ** 2)
    return acc, g


def _normalized_closeness(n: int, reach: int, total: int) -> float:
    """(reach / (n - 1)) * (reach / total), exactly rounded; 0 when isolated."""
    return reach * reach / ((n - 1) * total) if reach else 0.0


def _closeness_scores(
    net: FreightNetwork, sums: Sequence[tuple[int, int]], normalized: bool
) -> CentralityScores:
    # int / int true division rounds the exact ratio once
    n = net.node_count
    if normalized:
        values = (_normalized_closeness(n, reach, total) for reach, total in sums)
    else:
        values = (1 / total if reach else 0.0 for reach, total in sums)
    return CentralityScores("closeness", dict(zip(net.node_ids, values)), normalized)


def degree_centrality(net: FreightNetwork, normalized: bool = False) -> CentralityScores:
    """Score(i) = number of neighbors; normalized divides by (n - 1)."""
    n = net.node_count
    raw = {i: len(net.adjacency[i]) for i in net.node_ids}
    if normalized:
        scores = {i: (d / (n - 1) if n > 1 else 0.0) for i, d in raw.items()}
    else:
        scores = {i: float(d) for i, d in raw.items()}
    return CentralityScores("degree", scores, normalized)


def closeness_centrality(net: FreightNetwork, normalized: bool = True) -> CentralityScores:
    """Closeness by proximity to all reachable nodes.

    Raw score of node i is 1 / sum of hop distances to its reachable set
    R(i). The normalized form applies the component-size correction
    (|R| / (n - 1)) * (|R| / sum dist), which keeps scores in [0, 1] on
    disconnected graphs where plain inverse distance is undefined.
    Isolated nodes score 0.
    """
    return _closeness_scores(net, _ball_sums(net.dense_adjacency), normalized)


def _exact(net: FreightNetwork, acc: Sequence[int], g: int) -> dict[int, Fraction]:
    return {i: Fraction(value, 2 * g) for i, value in zip(net.node_ids, acc)}


def betweenness_exact(net: FreightNetwork) -> dict[int, Fraction]:
    """Unordered-pair betweenness as exact rationals, from Brandes'
    accumulation in integers (see ``_sweep``)."""
    return _exact(net, *_sweep(net.dense_adjacency))


def _betweenness_scores(
    n: int, exact: Mapping[int, Fraction], normalized: bool
) -> CentralityScores:
    pairs = (n - 1) * (n - 2)  # == 2 * C(n-1, 2)
    if normalized:
        scores = {i: (float(2 * v / pairs) if pairs > 0 else 0.0) for i, v in exact.items()}
    else:
        scores = {i: float(v) for i, v in exact.items()}
    return CentralityScores("betweenness", scores, normalized)


def betweenness_centrality(net: FreightNetwork, normalized: bool = False) -> CentralityScores:
    """Shortest-path betweenness over unordered pairs {s, t}, s != t != i.

    Pairs with no connecting path contribute 0. The normalized variant
    divides by (n - 1)(n - 2) / 2, the number of pairs excluding i.
    """
    return _betweenness_scores(net.node_count, betweenness_exact(net), normalized)


def all_scores(
    net: FreightNetwork,
) -> tuple[tuple[CentralityScores, ...], dict[str, Mapping[int, object]]]:
    """Raw and normalized scores of every kind from one all-sources sweep
    and one ball growth, plus the key each kind ranks by: int degree,
    normalized closeness, exact betweenness."""
    n = net.node_count
    exact = _exact(net, *_sweep(net.dense_adjacency))
    sums = _ball_sums(net.dense_adjacency)
    closeness = _closeness_scores(net, sums, True)
    score_sets = (
        degree_centrality(net, normalized=False),
        degree_centrality(net, normalized=True),
        _closeness_scores(net, sums, False),
        closeness,
        _betweenness_scores(n, exact, False),
        _betweenness_scores(n, exact, True),
    )
    rank_keys = {
        "degree": {i: net.degree(i) for i in net.node_ids},
        "closeness": closeness.scores,
        "betweenness": exact,
    }
    return score_sets, rank_keys


def dense_rank_keys(
    adj: Sequence[Sequence[int]], alive: Sequence[int], kind: str
) -> Sequence[int | float]:
    """The rank key of every position in ``alive``, the ascending positions
    of the nodes left in dense adjacency ``adj`` (removed positions have no
    neighbours). Keys compare exactly: degree, normalized closeness over
    the survivors, and betweenness as integers over one denominator.
    Other positions' keys are meaningless."""
    if kind == "degree":
        return [len(neighbours) for neighbours in adj]
    if kind == "closeness":
        n = len(alive)
        return [_normalized_closeness(n, reach, total) for reach, total in _ball_sums(adj)]
    if kind == "betweenness":
        return _sweep(adj)[0]
    raise ValueError(f"unknown centrality kind {kind!r}")


def rank_order(keys: Mapping[int, object]) -> tuple[int, ...]:
    """The ids of ``keys`` by descending key, ties to the lower id."""
    return tuple(sorted(keys, key=lambda i: (-keys[i], i)))


def write_scores_csv(all_scores: Sequence[CentralityScores], path) -> None:
    """Export score sets as ``node_id,kind,score,normalized`` rows."""
    rows = (
        [node, cs.kind, cs.scores[node], "true" if cs.normalized else "false"]
        for cs in all_scores
        for node in sorted(cs.scores)
    )
    write_table(path, ("node_id", "kind", "score", "normalized"), rows)


def write_ranking_csv(
    order: Sequence[int], keys: Mapping[int, object], names: Mapping[int, str], path
) -> None:
    """Export ids in ranking ``order`` as ``rank,node_id,name,score`` rows,
    each score the float of the id's exact rank key."""
    rows = (
        [rank, node, names.get(node, ""), float(keys[node])] for rank, node in enumerate(order, 1)
    )
    write_table(path, ("rank", "node_id", "name", "score"), rows)
