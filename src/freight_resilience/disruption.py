"""Node removal orders for disruption experiments.

Three ways to order removals: uniformly random (seeded), by centrality
(highest first, either ranked once on the intact network or re-ranked
after every removal), and by projected hot-day increase (largest gain
first). In the hot-day order, nodes whose change is zero or negative
are appended after all positively affected nodes and tagged as beyond
the selection criterion, so downstream consumers can truncate or plot
the criterion-driven prefix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .centrality import CENTRALITY_KINDS, dense_rank_keys
from .network import FreightNetwork
from .tables import render_record, write_blocks

TARGETED_SCENARIOS = ("targeted_degree", "targeted_closeness", "targeted_betweenness")

SCENARIOS = ("random",) + TARGETED_SCENARIOS + ("hot_days",)

RANKING_MODES = ("static", "adaptive")


@dataclass(frozen=True)
class RemovalSequence:
    """A full removal order over a network's nodes.

    ``model`` identifies the climate model behind a hot-day order and
    ``seed`` the RNG seed behind a random order; both stay None where
    they do not apply. ``beyond_criterion`` marks hot-day entries whose
    projected change was not positive.
    """

    scenario: str
    order: tuple[int, ...]
    mode: str = "static"
    model: str | None = None
    seed: int | None = None
    beyond_criterion: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.mode not in RANKING_MODES:
            raise ValueError(f"unknown ranking mode {self.mode!r}")
        if self.scenario not in TARGETED_SCENARIOS and self.mode != "static":
            raise ValueError("ranking mode applies only to targeted scenarios")
        if len(set(self.order)) != len(self.order):
            raise ValueError("removal order contains duplicate nodes")
        if self.scenario == "random" and self.seed is None:
            raise ValueError("random sequences must record their seed")
        if self.scenario == "hot_days" and self.model is None:
            raise ValueError("hot-day sequences must record their climate model")
        if self.beyond_criterion and self.scenario != "hot_days":
            raise ValueError("beyond_criterion applies only to hot-day sequences")
        if not self.beyond_criterion <= set(self.order):
            raise ValueError("beyond_criterion must be a subset of the order")

    def __len__(self) -> int:
        return len(self.order)

    def truncated(self, k: int) -> "RemovalSequence":
        """The first k removals as a sequence of their own."""
        if not 0 <= k <= len(self.order):
            raise ValueError(f"k={k} outside [0, {len(self.order)}]")
        head = self.order[:k]
        return RemovalSequence(
            scenario=self.scenario,
            order=head,
            mode=self.mode,
            model=self.model,
            seed=self.seed,
            beyond_criterion=self.beyond_criterion & set(head),
        )


def _rand_below(rng: random.Random, n: int) -> int:
    # rejection sampling over getrandbits: unbiased, and stable across
    # Python versions (randrange's internals are not guaranteed)
    bits = n.bit_length()
    value = rng.getrandbits(bits)
    while value >= n:
        value = rng.getrandbits(bits)
    return value


def _shuffled(items: Sequence[int], rng: random.Random) -> list[int]:
    # Fisher-Yates, spelled out so the draw sequence is pinned by this
    # module rather than by random.shuffle's implementation
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = _rand_below(rng, i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def random_sequence(net: FreightNetwork, seed: int) -> RemovalSequence:
    """Uniformly random removal order, reproducible from the seed."""
    rng = random.Random(seed)
    order = _shuffled(net.node_ids, rng)
    return RemovalSequence(scenario="random", order=tuple(order), seed=seed)


def static_sequence(kind: str, scores: Mapping[int, object]) -> RemovalSequence:
    """Targeted removal order ranked once from exact scores: highest
    first, ties toward the lower node id."""
    order = sorted(scores, key=lambda n: (-scores[n], n))
    return RemovalSequence(scenario=f"targeted_{kind}", order=tuple(order), mode="static")


def targeted_sequence(
    net: FreightNetwork, kind: str, mode: str = "static"
) -> RemovalSequence:
    """Highest-centrality-first removal order.

    Static mode ranks the intact network once; adaptive mode re-scores
    the surviving subnetwork before every removal. Ties break toward
    the lower node id in both modes.
    """
    if kind not in CENTRALITY_KINDS:
        raise ValueError(f"unknown centrality kind {kind!r}")
    if mode not in RANKING_MODES:
        raise ValueError(f"unknown ranking mode {mode!r}")
    ids = net.node_ids
    alive = list(range(net.node_count))
    if mode == "static":
        keys = dense_rank_keys(net.dense_adjacency, alive, kind)
        return static_sequence(kind, {ids[v]: keys[v] for v in alive})
    # one mutable adjacency; a victim leaves its neighbours' lists
    adj = [list(neighbours) for neighbours in net.dense_adjacency]
    order = []
    while alive:
        keys = dense_rank_keys(adj, alive, kind)
        victim = max(alive, key=keys.__getitem__)  # first maximum: the lower id
        alive.remove(victim)
        for w in adj[victim]:
            adj[w].remove(victim)
        adj[victim] = []
        order.append(ids[victim])
    return RemovalSequence(scenario=f"targeted_{kind}", order=tuple(order), mode=mode)


def hot_day_sequence(
    net: FreightNetwork, delta: Mapping[int, int], model: str
) -> RemovalSequence:
    """Removal order by projected hot-day increase, largest first.

    Nodes with a zero or negative change follow the affected ones (still
    in decreasing-change order) and are tagged beyond_criterion. Every
    network node needs a delta; extra delta entries are ignored.
    """
    missing = [n for n in net.node_ids if n not in delta]
    if missing:
        raise ValueError(f"missing hot-day delta for nodes {missing}")
    order = sorted(net.node_ids, key=lambda n: (-delta[n], n))
    beyond = frozenset(n for n in order if delta[n] <= 0)
    return RemovalSequence(
        scenario="hot_days", order=tuple(order), model=model, beyond_criterion=beyond
    )


def write_sequences_csv(sequences: Sequence[RemovalSequence], path) -> None:
    """Export removal orders, one row per step, steps numbered from 1."""

    def block(seq: RemovalSequence) -> str:
        # every cell after node_id is the same for the whole sequence,
        # apart from the beyond_criterion flag
        cells = render_record((seq.scenario, seq.model, seq.seed))
        plain, beyond = f",{cells},false\n", f",{cells},true\n"
        marked = seq.beyond_criterion
        return "".join([
            f"{j},{v}{beyond if v in marked else plain}" for j, v in enumerate(seq.order, 1)
        ])

    header = ("step", "node_id", "scenario", "model", "seed", "beyond_criterion")
    write_blocks(path, header, map(block, sequences))
