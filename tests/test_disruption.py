import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    er_edges,
    grid_net,
    make_net,
    mixed_graphs,
    oracle_betweenness,
    oracle_closeness,
    oracle_closeness_fractions,
    oracle_degree,
    rail_density_net,
    tree_edges,
)
from freight_resilience.centrality import CENTRALITY_KINDS
from freight_resilience.disruption import (
    RANKING_MODES,
    SCENARIOS,
    RemovalSequence,
    hot_day_sequence,
    random_sequence,
    targeted_sequence,
    write_sequences_csv,
)
from freight_resilience.network import FreightNetwork


def naive_adaptive_order(net, score_fn):
    """Re-score the survivors from scratch before every pick."""
    nodes = {n.id: n for n in net.nodes}
    remaining = set(net.node_ids)
    order = []
    while remaining:
        sub = FreightNetwork.build(
            [nodes[i] for i in sorted(remaining)],
            [(a, b) for a, b in net.edges if a in remaining and b in remaining],
        )
        scores = score_fn(sub)
        victim = min(remaining, key=lambda n: (-scores[n], n))
        order.append(victim)
        remaining.discard(victim)
    return tuple(order)


def pendant_heavy_net(name: str) -> FreightNetwork:
    """``er-with-trees-<seed>``: a sparse Erdos-Renyi core of 4-8 nodes
    with 6-12 tree nodes hung off it; ``cycle-with-chains``: an 8-cycle
    with a 3-node chain off every node; ``ladder``: the 2 x 9 grid."""
    if name == "cycle-with-chains":
        return make_net(32, [(i, i % 8 + 1) for i in range(1, 9)] + [(v, v + 8) for v in range(1, 25)])
    if name == "ladder":
        return grid_net(2, 9)
    rng = random.Random(int(name.rsplit("-", 1)[1]))
    core = rng.randint(4, 8)
    n = core + rng.randint(6, 12)
    return make_net(n, er_edges(core, 0.5, rng) + tree_edges(core, n, rng))


class TestScenarioTables:
    def test_catalog(self):
        assert SCENARIOS == (
            "random",
            "targeted_degree",
            "targeted_closeness",
            "targeted_betweenness",
            "hot_days",
        )
        assert RANKING_MODES == ("static", "adaptive")


class TestSequenceValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            RemovalSequence("flood", (1,))

    def test_duplicate_order(self):
        with pytest.raises(ValueError, match="duplicate"):
            RemovalSequence("random", (1, 2, 1), seed=0)

    def test_random_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            RemovalSequence("random", (1, 2))

    def test_hot_days_needs_model(self):
        with pytest.raises(ValueError, match="model"):
            RemovalSequence("hot_days", (1, 2))

    def test_beyond_criterion_only_for_hot_days(self):
        with pytest.raises(ValueError, match="beyond_criterion"):
            RemovalSequence("random", (1, 2), seed=0, beyond_criterion=frozenset({2}))

    def test_beyond_criterion_subset(self):
        with pytest.raises(ValueError, match="subset"):
            RemovalSequence(
                "hot_days", (1, 2), model="m", beyond_criterion=frozenset({9})
            )


class TestRandomOrder:
    def test_reproducible(self):
        net = make_net(20, er_edges(20, 0.2, random.Random(0)))
        a = random_sequence(net, 123)
        b = random_sequence(net, 123)
        assert a == b
        assert a.seed == 123

    def test_seed_changes_order(self):
        net = make_net(20, er_edges(20, 0.2, random.Random(0)))
        orders = {random_sequence(net, s).order for s in range(30)}
        assert len(orders) > 25

    def test_pinned_draw_sequence(self):
        # frozen expectation: any platform must reproduce this order for
        # seed 42, since the shuffle uses only getrandbits
        net = make_net(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        assert random_sequence(net, 42).order == (4, 2, 3, 5, 1)

    def test_permutation_of_node_ids(self):
        net = make_net(9, er_edges(9, 0.3, random.Random(4)))
        seq = random_sequence(net, 7)
        assert sorted(seq.order) == list(net.node_ids)

    def test_positionwise_uniformity(self):
        """Every node lands in every slot about 1/n of the time."""
        net = make_net(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        trials = 10_000
        hits = [Counter() for _ in range(5)]
        for seed in range(trials):
            for pos, node in enumerate(random_sequence(net, seed).order):
                hits[pos][node] += 1
        for pos in range(5):
            for node in range(1, 6):
                assert abs(hits[pos][node] / trials - 0.2) < 0.02


class TestTargetedStatic:
    def test_star_hub_first_then_id_order(self, star5):
        for kind in ("degree", "closeness", "betweenness"):
            assert targeted_sequence(star5, kind).order == (1, 2, 3, 4, 5)

    def test_matches_intact_scores(self):
        rng = random.Random(11)
        for trial in range(20):
            n = rng.randint(4, 16)
            net = make_net(n, er_edges(n, 0.35, rng))
            for kind, oracle in (
                ("degree", oracle_degree),
                ("closeness", oracle_closeness),
                ("betweenness", oracle_betweenness),
            ):
                scores = oracle(net)
                expected = tuple(sorted(scores, key=lambda v: (-scores[v], v)))
                assert targeted_sequence(net, kind).order == expected

    def test_unknown_kind(self, star5):
        with pytest.raises(ValueError, match="unknown centrality kind"):
            targeted_sequence(star5, "pagerank")

    def test_unknown_mode(self, star5):
        with pytest.raises(ValueError, match="unknown ranking mode"):
            targeted_sequence(star5, "degree", mode="greedy")


class TestTargetedAdaptive:
    def test_differs_from_static_on_a_path(self):
        # path 1-2-3-4-5: static degree order is (2, 3, 4, 1, 5); after
        # removing 2 the survivors re-rank and 4 outranks 3
        net = make_net(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        static = targeted_sequence(net, "degree", mode="static")
        adaptive = targeted_sequence(net, "degree", mode="adaptive")
        assert static.order == (2, 3, 4, 1, 5)
        assert adaptive.order == (2, 4, 1, 3, 5)

    @pytest.mark.parametrize(
        "kind,oracle",
        [
            ("degree", oracle_degree),
            ("closeness", oracle_closeness),
            ("betweenness", oracle_betweenness),
        ],
    )
    def test_matches_naive_recompute(self, kind, oracle):
        rng = random.Random(ord(kind[0]))
        for trial in range(12):
            n = rng.randint(3, 12)
            net = make_net(n, er_edges(n, 0.4, rng))
            got = targeted_sequence(net, kind, mode="adaptive").order
            assert got == naive_adaptive_order(net, oracle)


    @settings(max_examples=60, deadline=None)
    @given(mixed_graphs(), st.sampled_from(CENTRALITY_KINDS))
    def test_matches_naive_recompute_on_mixed_graphs(self, net, kind):
        oracle = {
            "degree": oracle_degree,
            "closeness": oracle_closeness_fractions,
            "betweenness": oracle_betweenness,
        }[kind]
        got = targeted_sequence(net, kind, mode="adaptive").order
        assert got == naive_adaptive_order(net, oracle)

    @pytest.mark.parametrize(
        "kind,oracle",
        [("closeness", oracle_closeness_fractions), ("betweenness", oracle_betweenness)],
    )
    def test_matches_naive_recompute_at_rail_density(self, kind, oracle):
        net = rail_density_net()
        got = targeted_sequence(net, kind, mode="adaptive").order
        assert got == naive_adaptive_order(net, oracle)

    @pytest.mark.parametrize(
        "name", [*(f"er-with-trees-{seed}" for seed in range(6)), "cycle-with-chains", "ladder"]
    )
    def test_betweenness_matches_naive_recompute_on_pendant_heavy_graphs(self, name):
        # the survivors fall apart into trees and paths as nodes go
        net = pendant_heavy_net(name)
        got = targeted_sequence(net, "betweenness", mode="adaptive").order
        assert got == naive_adaptive_order(net, oracle_betweenness)

    def test_rebuilds_no_network(self, monkeypatch):
        # survivors are re-ranked on one mutable adjacency: no
        # FreightNetwork per removal
        net = grid_net(4, 5)
        built = []
        post_init = FreightNetwork.__post_init__

        def counted_init(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(FreightNetwork, "__post_init__", counted_init)
        for kind in CENTRALITY_KINDS:
            assert len(targeted_sequence(net, kind, mode="adaptive")) == 20
        assert built == []


class TestHotDayOrder:
    DELTAS = {1: 5, 2: 0, 3: -1, 4: 9, 5: 2}

    def net(self):
        return make_net(5, [(1, 2), (2, 3), (3, 4), (4, 5)])

    def test_descending_delta_with_id_ties(self):
        seq = hot_day_sequence(self.net(), self.DELTAS, "modelx")
        assert seq.order == (4, 1, 5, 2, 3)
        assert seq.model == "modelx"

    def test_non_positive_tagged_beyond(self):
        seq = hot_day_sequence(self.net(), self.DELTAS, "m")
        assert seq.beyond_criterion == frozenset({2, 3})

    def test_tie_breaks_by_id(self):
        seq = hot_day_sequence(self.net(), {1: 3, 2: 3, 3: 3, 4: 1, 5: 1}, "m")
        assert seq.order == (1, 2, 3, 4, 5)

    def test_missing_delta_rejected(self):
        with pytest.raises(ValueError, match=r"missing hot-day delta for nodes \[5\]"):
            hot_day_sequence(self.net(), {1: 1, 2: 1, 3: 1, 4: 1}, "m")

    def test_extra_delta_entries_ignored(self):
        deltas = self.DELTAS | {99: 1000}
        seq = hot_day_sequence(self.net(), deltas, "m")
        assert 99 not in seq.order

    def test_all_positive_means_empty_beyond(self):
        seq = hot_day_sequence(self.net(), {i: i for i in range(1, 6)}, "m")
        assert seq.beyond_criterion == frozenset()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=30))
def test_random_order_is_always_a_permutation(seed, n):
    net = make_net(n, [(i, i + 1) for i in range(1, n)])
    seq = random_sequence(net, seed)
    assert sorted(seq.order) == list(range(1, n + 1))


class TestSequencesCsv:
    def test_layout(self, tmp_path):
        net = make_net(3, [(1, 2), (2, 3)])
        sequences = [
            random_sequence(net, 9),
            hot_day_sequence(net, {1: 4, 2: 0, 3: 7}, "mA"),
        ]
        path = tmp_path / "sequences.csv"
        write_sequences_csv(sequences, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,node_id,scenario,model,seed,beyond_criterion"
        assert len(lines) == 1 + 3 + 3
        random_rows = [l for l in lines[1:] if ",random," in l]
        assert all(row.endswith(",9,false") for row in random_rows)
        assert lines[4] == "1,3,hot_days,mA,,false"
        assert lines[6] == "3,2,hot_days,mA,,true"
