import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SEEDED_GRAPHS,
    complete_bipartite_net,
    er_edges,
    grid_net,
    hypercube_net,
    make_net,
    make_node,
    mixed_graphs,
    oracle_betweenness,
    oracle_brandes_fractions,
    oracle_closeness,
    oracle_degree,
    oracle_distance_matrix,
    oracle_two_core,
    path_net,
    rail_density_net,
    star_net,
    tree_edges,
)
from freight_resilience import centrality
from freight_resilience.centrality import (
    CentralityScores,
    _ball_sums,
    _peel,
    _sweep,
    all_scores,
    betweenness_centrality,
    betweenness_exact,
    closeness_centrality,
    degree_centrality,
    rank_order,
    write_ranking_csv,
    write_scores_csv,
)
from freight_resilience.network import FreightNetwork, load_network
from freight_resilience.synth import SynthSpec, generate_synthetic


class TestDegree:
    def test_path(self, path3):
        assert degree_centrality(path3).scores == {1: 1.0, 2: 2.0, 3: 1.0}

    def test_normalized_star(self, star5):
        scores = degree_centrality(star5, normalized=True).scores
        assert scores[1] == 1.0
        assert scores[2] == 0.25

    def test_single_node(self):
        net = make_net(1, [])
        assert degree_centrality(net, normalized=True).scores == {1: 0.0}


class TestCloseness:
    def test_path_endpoints(self, path3):
        scores = closeness_centrality(path3).scores
        assert scores[2] == 1.0
        assert scores[1] == pytest.approx(2 / 3)
        assert scores[3] == scores[1]

    def test_raw_is_inverse_distance_sum(self, path3):
        raw = closeness_centrality(path3, normalized=False).scores
        assert raw[2] == 0.5  # distances 1 + 1
        assert raw[1] == pytest.approx(1 / 3)

    def test_isolated_node_scores_zero(self):
        net = make_net(3, [(1, 2)])
        scores = closeness_centrality(net).scores
        assert scores[3] == 0.0

    def test_component_correction_on_two_pairs(self):
        # two disjoint edges in a 4-node graph: reach 1, distance 1,
        # so each node scores (1/3) * (1/1) = 1/3
        net = make_net(4, [(1, 2), (3, 4)])
        scores = closeness_centrality(net).scores
        assert all(v == pytest.approx(1 / 3) for v in scores.values())

    def test_bounded_even_when_disconnected(self):
        rng = random.Random(99)
        for trial in range(20):
            net = make_net(12, er_edges(12, 0.15, rng))
            for v in closeness_centrality(net).scores.values():
                assert 0.0 <= v <= 1.0


class TestBetweenness:
    def test_path_middle(self, path3):
        assert betweenness_centrality(path3).scores == {1: 0.0, 2: 1.0, 3: 0.0}

    def test_star_hub_counts_leaf_pairs(self, star5):
        # 4 leaves -> C(4,2) = 6 pairs routed through the hub
        assert betweenness_centrality(star5).scores[1] == 6.0

    def test_cycle_splits_pairs(self):
        # on C4 each opposite pair has two shortest paths, 1/2 through
        # each intermediate node
        net = make_net(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        exact = betweenness_exact(net)
        assert all(v == Fraction(1, 2) for v in exact.values())

    def test_normalized_star(self, star5):
        scores = betweenness_centrality(star5, normalized=True).scores
        assert scores[1] == 1.0

    def test_tiny_graphs_normalize_to_zero(self):
        for n in (1, 2):
            net = make_net(n, [(1, 2)] if n == 2 else [])
            assert set(betweenness_centrality(net, normalized=True).scores.values()) == {0.0}


def oracle_sums(net: FreightNetwork) -> list[tuple[int, int]]:
    """(reach, sum of hop distances) of every node, in id order."""
    return [
        (int(np.isfinite(row).sum()) - 1, int(row[np.isfinite(row)].sum()))
        for row in oracle_distance_matrix(net)
    ]


@settings(max_examples=150, deadline=None)
@given(mixed_graphs())
def test_sweep_matches_oracles(net):
    """One sweep gives Brandes' Fractions; ball growth gives every node's
    (reach, sum of distances)."""
    adj = net.dense_adjacency
    acc, g = _sweep(adj)
    exact = {v: Fraction(a, 2 * g) for v, a in zip(net.node_ids, acc)}
    assert exact == oracle_brandes_fractions(net)
    assert betweenness_exact(net) == exact
    if net.node_count <= 12:
        assert exact == oracle_betweenness(net)
    assert _ball_sums(adj) == oracle_sums(net)


@pytest.mark.parametrize(
    "build",
    [lambda: hypercube_net(5), lambda: complete_bipartite_net(5, 7), rail_density_net],
    ids=["5-cube", "K(5,7)", "rail-30"],
)
def test_kernels_on_dense_multipath_graphs(build):
    """Many shortest-path predecessors per node, at depth 3 and more on
    the 5-cube and the rail-density network."""
    net = build()
    adj = net.dense_adjacency
    acc, g = _sweep(adj)
    exact = {v: Fraction(a, 2 * g) for v, a in zip(net.node_ids, acc)}
    assert exact == oracle_brandes_fractions(net)
    assert _ball_sums(adj) == oracle_sums(net)


def forest_net() -> FreightNetwork:
    """A random 7-node tree, a 5-node star and an isolated node."""
    star = [(8, v) for v in range(9, 13)]
    return make_net(13, tree_edges(1, 7, random.Random(4)) + star)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_net(15, tree_edges(1, 15, random.Random(3))),
        forest_net,
        lambda: make_net(2, [(1, 2)]),
        # a 5-cycle with the chain 5-6-7-8 hanging off it
        lambda: make_net(8, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (5, 6), (6, 7), (7, 8)]),
        lambda: star_net(7),
    ],
    ids=["all-tree", "forest", "single-edge", "pendant-chain-off-cycle", "star"],
)
def test_folded_shapes_match_oracles(build):
    net = build()
    assert betweenness_exact(net) == oracle_brandes_fractions(net) == oracle_betweenness(net)


def test_star_folds_into_its_hub():
    # the hub is the only core node, weighted with every leaf, and has no
    # core neighbour to search from
    core, weight, squares, folds = _peel(star_net(7).dense_adjacency)
    assert core == [[]] * 7
    assert weight[0] == 7 and squares[0] == 6
    assert sorted(folds) == [(leaf, 0) for leaf in range(1, 7)]


@settings(max_examples=80, deadline=None)
@given(mixed_graphs())
def test_sweep_searches_only_the_two_core(net):
    """One search from each position of the 2-core, none from a node of a
    folded tree."""
    sources = []
    search = centrality._bfs_counts

    def counted(adj, source):
        sources.append(source)
        return search(adj, source)

    with mock.patch.object(centrality, "_bfs_counts", counted):
        betweenness_exact(net)
    core = oracle_two_core(net.adjacency)
    assert sources == [k for k, v in enumerate(net.node_ids) if v in core]


def test_ball_sums_edge_cases():
    assert _ball_sums([]) == []
    assert _ball_sums([[]]) == [(0, 0)]
    # position 1 was removed: it has no neighbours and no list holds it
    assert _ball_sums([[2], [], [0, 3], [2]]) == [(2, 3), (0, 0), (2, 2), (2, 3)]


@settings(max_examples=60, deadline=None)
@given(mixed_graphs())
def test_all_scores_equal_the_single_kind_functions(net):
    score_sets, rank_keys = all_scores(net)
    assert score_sets == (
        degree_centrality(net, normalized=False),
        degree_centrality(net, normalized=True),
        closeness_centrality(net, normalized=False),
        closeness_centrality(net, normalized=True),
        betweenness_centrality(net, normalized=False),
        betweenness_centrality(net, normalized=True),
    )
    assert rank_keys["betweenness"] == betweenness_exact(net)
    assert rank_keys["closeness"] == closeness_centrality(net).scores
    assert rank_keys["degree"] == oracle_degree(net)


@pytest.mark.parametrize("n,p,seed", SEEDED_GRAPHS[:36])
def test_oracle_agreement_on_er_graphs(n, p, seed):
    """Degree/closeness/betweenness vs the brute-force oracles."""
    net = make_net(n, er_edges(n, p, random.Random(seed)))
    assert degree_centrality(net).scores == {
        v: float(d) for v, d in oracle_degree(net).items()
    }
    expected = oracle_closeness(net)
    got = closeness_centrality(net).scores
    assert all(abs(got[v] - expected[v]) <= 1e-9 for v in got)
    assert betweenness_exact(net) == oracle_betweenness(net)


def disconnected_net() -> FreightNetwork:
    """A 6x6 grid, a 3-cube, a 3-node path and three isolated nodes."""
    cube = [(a + 36, b + 36) for a, b in hypercube_net(3).edges]
    return make_net(50, list(grid_net(6, 6).edges) + cube + [(45, 46), (46, 47)])


@pytest.mark.parametrize(
    "build",
    [lambda: grid_net(7, 7), lambda: hypercube_net(4), lambda: complete_bipartite_net(3, 4),
     disconnected_net],
    ids=["grid-7x7", "4-cube", "K(3,4)", "disconnected"],
)
def test_oracle_agreement_on_lattices(build):
    """Many equal-length paths: large path counts and common denominators."""
    net = build()
    assert betweenness_exact(net) == oracle_betweenness(net)


def test_lattice_values_by_hand():
    # the 4-cube is vertex-transitive: sum over pairs of (d - 1) is
    # 8 * (6*1 + 4*2 + 1*3) = 136, shared by 16 nodes
    assert set(betweenness_exact(hypercube_net(4)).values()) == {Fraction(17, 2)}
    # K(3,4): each of the 6 pairs on the 4-side splits over 3 middles,
    # each of the 3 pairs on the 3-side over 4 middles
    expected = {v: Fraction(2) if v <= 3 else Fraction(3, 4) for v in range(1, 8)}
    assert betweenness_exact(complete_bipartite_net(3, 4)) == expected


class TestFractionOracle:
    """Integer accumulation against Brandes' accumulation in Fractions, on
    graphs too large for pairwise path counting."""

    def test_grid_20x20(self):
        net = grid_net(20, 20)
        assert betweenness_exact(net) == oracle_brandes_fractions(net)

    def test_synthetic_500(self, tmp_path):
        paths = generate_synthetic(SynthSpec(500, 4.0, 1, models=()), tmp_path)
        net = load_network(paths["nodes"], paths["edges"])
        assert betweenness_exact(net) == oracle_brandes_fractions(net)

    def test_disconnected(self):
        net = disconnected_net()
        assert betweenness_exact(net) == oracle_brandes_fractions(net)


def assert_agrees_with_networkx(net: FreightNetwork) -> None:
    """Float betweenness and normalized closeness vs networkx."""
    nx = pytest.importorskip("networkx")
    graph = nx.Graph()
    graph.add_nodes_from(net.node_ids)
    graph.add_edges_from(net.edges)
    exact = {v: float(x) for v, x in betweenness_exact(net).items()}
    assert exact == pytest.approx(nx.betweenness_centrality(graph, normalized=False), rel=1e-9)
    closeness = nx.closeness_centrality(graph, wf_improved=True)
    assert closeness_centrality(net).scores == pytest.approx(closeness, rel=1e-9)


@pytest.mark.parametrize("n,p,seed", SEEDED_GRAPHS[:36])
def test_networkx_agreement_on_er_graphs(n, p, seed):
    assert_agrees_with_networkx(make_net(n, er_edges(n, p, random.Random(seed))))


def test_networkx_agreement_on_rail_density():
    assert_agrees_with_networkx(rail_density_net())


def test_betweenness_pair_sum_identity():
    """Summed betweenness counts interior nodes of every shortest path:
    sum_i bc(i) = sum over connected pairs of (d(s,t) - 1)."""
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(4, 20)
        net = make_net(n, er_edges(n, 0.3, rng))
        dist = oracle_distance_matrix(net)
        finite = dist[np.triu_indices_from(dist, k=1)]
        finite = finite[np.isfinite(finite)]
        expected = Fraction(int((finite - 1).sum()))
        assert sum(betweenness_exact(net).values(), Fraction(0)) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=4, max_value=14))
def test_relabeling_invariance(seed, n):
    """Scores depend on structure, not on node ids."""
    rng = random.Random(seed)
    edges = er_edges(n, 0.4, rng)
    net = make_net(n, edges)
    shift = {i: i + 100 for i in range(1, n + 1)}
    relabeled = FreightNetwork.build(
        [make_node(shift[i]) for i in range(1, n + 1)],
        [(shift[a], shift[b]) for a, b in edges],
    )
    for fn in (degree_centrality, closeness_centrality, betweenness_centrality):
        original = fn(net).scores
        moved = fn(relabeled).scores
        assert all(moved[shift[v]] == original[v] for v in original)


def ranking_lines(order, keys, tmp_path):
    path = tmp_path / "ranking.csv"
    write_ranking_csv(order, keys, {}, path)
    return path.read_text().splitlines()[1:]


class TestRanking:
    def test_tie_broken_by_ascending_id(self, tmp_path):
        keys = {3: 2.0, 1: 2.0, 2: 1.0}
        assert rank_order(keys) == (1, 3, 2)
        lines = ranking_lines(rank_order(keys), keys, tmp_path)
        assert lines == ["1,1,,2.0", "2,3,,2.0", "3,2,,1.0"]

    def test_star_hub_ranks_first(self, star5):
        assert rank_order(degree_centrality(star5).scores)[0] == 1

    def test_order_independent_of_mapping_insertion(self, tmp_path):
        a = {1: 1.0, 2: 3.0, 3: 2.0}
        b = {3: 2.0, 2: 3.0, 1: 1.0}
        assert rank_order(a) == rank_order(b) == (2, 3, 1)
        expected = ["1,2,,3.0", "2,3,,2.0", "3,1,,1.0"]
        assert ranking_lines(rank_order(a), a, tmp_path) == expected
        assert ranking_lines(rank_order(b), b, tmp_path) == expected

    @given(st.dictionaries(st.integers(-50, 50), st.integers(-3, 3)))
    def test_rank_order_is_first_maximum_repeated(self, keys):
        # the adaptive rule, applied to keys that never change
        left, expected = sorted(keys), []
        while left:
            expected.append(max(left, key=keys.__getitem__))
            left.remove(expected[-1])
        assert rank_order(keys) == tuple(expected)

    def test_rank_order_compares_keys_exactly(self):
        keys = {4: Fraction(1, 3), 2: Fraction(1, 3), 9: 1 / 3, 1: 0}
        assert rank_order(keys) == (2, 4, 9, 1)  # 1/3 rounds down as a float

    def test_exact_keys_that_round_alike_keep_their_order(self, tmp_path):
        # both keys round to 1.0; the higher one, node 2, ranks first, and
        # the rows keep that order although their scores read as an id tie
        keys = {1: Fraction(10**17 + 1, 10**17), 2: Fraction(10**17 + 2, 10**17)}
        assert rank_order(keys) == (2, 1)
        assert ranking_lines(rank_order(keys), keys, tmp_path) == ["1,2,,1.0", "2,1,,1.0"]


class TestScoreContainers:
    def test_normalized_scores_must_fit_unit_interval(self):
        with pytest.raises(ValueError):
            CentralityScores("degree", {1: 1.5}, normalized=True)

    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError):
            CentralityScores("degree", {1: -0.1}, normalized=False)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CentralityScores("pagerank", {1: 0.5}, normalized=True)


class TestCsvExports:
    def test_scores_csv_shape(self, tmp_path, star5):
        path = tmp_path / "scores.csv"
        write_scores_csv([degree_centrality(star5), closeness_centrality(star5)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "node_id,kind,score,normalized"
        assert len(lines) == 1 + 2 * 5
        assert lines[1] == "1,degree,4.0,false"

    def test_ranking_csv_shape(self, tmp_path, star5):
        path = tmp_path / "ranking.csv"
        names = {i: f"n{i}" for i in star5.node_ids}
        keys = {i: star5.degree(i) for i in star5.node_ids}
        write_ranking_csv(rank_order(keys)[:2], keys, names, path)
        lines = path.read_text().splitlines()
        assert lines == ["rank,node_id,name,score", "1,1,n1,4.0", "2,2,n2,1.0"]
