import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SEEDED_GRAPHS,
    er_edges,
    make_net,
    oracle_curve_states,
    path_net,
    star_net,
)
from freight_resilience.disruption import (
    RemovalSequence,
    hot_day_sequence,
    random_sequence,
    targeted_sequence,
)
from freight_resilience.errors import DataError
from freight_resilience.metrics import (
    CollapseRow,
    CurveStep,
    RobustnessCurve,
    aggregate_curves,
    collapse_point,
    gcc_size,
    read_curves_csv,
    replay,
    write_collapse_csv,
    write_curves_csv,
)


def all_sequences_for(net, trial):
    """One sequence per scenario family, deltas synthesized from ids."""
    rng = random.Random(trial * 31 + 1)
    delta = {v: rng.randint(-3, 12) for v in net.node_ids}
    return [
        random_sequence(net, seed=trial),
        targeted_sequence(net, "degree", mode="static"),
        targeted_sequence(net, "closeness", mode="adaptive"),
        targeted_sequence(net, "betweenness", mode="static"),
        hot_day_sequence(net, delta, model="syn"),
    ]


def assert_matches_oracle(net, seq):
    curve = replay(net, seq)
    states = oracle_curve_states(net, seq.order)
    total = sum((Fraction(rec.tonnage) for rec in net.nodes), Fraction(0))
    tf = states[0][0]
    assert curve.tf == tf
    assert len(curve.steps) == len(states)
    for step, (ff, gcc_tons, remaining) in zip(curve.steps, states):
        assert step.ff == ff
        assert step.scf == ff / tf
        if total:
            assert step.tonnage_fraction == float(remaining / total)
            assert step.tonnage_fraction_gcc == float(gcc_tons / total)
        else:  # no tonnage at all: everything counts as still carried
            assert step.tonnage_fraction == 1.0
            assert step.tonnage_fraction_gcc == (1.0 if ff else 0.0)


class TestGccSize:
    def test_path(self):
        assert gcc_size(path_net(6)) == 6

    def test_two_components(self):
        assert gcc_size(make_net(5, [(1, 2), (3, 4), (4, 5)])) == 3

    def test_isolated_nodes(self):
        assert gcc_size(make_net(3, [])) == 1

    def test_empty(self):
        from freight_resilience.network import FreightNetwork

        assert gcc_size(FreightNetwork((), ())) == 0


class TestReplayBasics:
    def test_star_hub_first(self, star5):
        curve = replay(star5, targeted_sequence(star5, "degree"))
        first, second = curve.steps[0], curve.steps[1]
        assert (first.step, first.node_id, first.ff, first.scf) == (0, None, 5, 1.0)
        assert first.tonnage_fraction == 1.0
        assert (second.node_id, second.ff, second.scf) == (1, 1, 0.2)
        assert second.tonnage_fraction == 0.8
        assert second.tonnage_fraction_gcc == 0.2
        assert curve.steps[-1].ff == 0
        assert curve.removed_order == (1, 2, 3, 4, 5)

    def test_partial_sequence(self, star5):
        seq = RemovalSequence("random", (3, 5), seed=0)
        curve = replay(star5, seq)
        assert len(curve.steps) == 3
        assert curve.steps[-1].ff == 3

    def test_unknown_node_rejected(self, star5):
        with pytest.raises(ValueError, match="not in the network"):
            replay(star5, RemovalSequence("random", (99,), seed=0))

    def test_empty_network_rejected(self):
        from freight_resilience.network import FreightNetwork

        with pytest.raises(ValueError, match="empty network"):
            replay(FreightNetwork((), ()), RemovalSequence("random", (), seed=0))

    def test_zero_total_tonnage(self):
        net = make_net(3, [(1, 2)], tons={1: 0.0, 2: 0.0, 3: 0.0})
        curve = replay(net, RemovalSequence("random", (1, 2, 3), seed=0))
        assert [s.tonnage_fraction for s in curve.steps] == [1.0] * 4
        assert curve.steps[-1].tonnage_fraction_gcc == 0.0
        assert curve.steps[0].tonnage_fraction_gcc == 1.0


class TestReplayOracle:
    def test_weighted_er_graphs_all_scenarios(self):
        rng = random.Random(17)
        for trial in range(12):
            n = rng.randint(2, 24)
            tons = {i: rng.choice([0.0, 0.5, 1.0, 2.25, 1e6]) for i in range(1, n + 1)}
            if all(v == 0.0 for v in tons.values()):
                tons[1] = 1.0
            net = make_net(n, er_edges(n, 0.3, rng), tons=tons)
            for seq in all_sequences_for(net, trial):
                assert_matches_oracle(net, seq)

    def test_partial_prefixes(self):
        rng = random.Random(23)
        net = make_net(15, er_edges(15, 0.25, rng), tons={i: float(i) for i in range(1, 16)})
        full = random_sequence(net, 4)
        for k in (0, 1, 7, 14):
            assert_matches_oracle(net, full.truncated(k))

    def test_closed_form_tonnage_identity(self):
        """Remaining tonnage equals 1 - removed/total, bit for bit."""
        rng = random.Random(29)
        for trial in range(8):
            n = rng.randint(3, 20)
            tons = {i: rng.uniform(0.1, 9e5) for i in range(1, n + 1)}
            net = make_net(n, er_edges(n, 0.4, rng), tons=tons)
            seq = random_sequence(net, trial)
            curve = replay(net, seq)
            total = sum((Fraction(tons[i]) for i in tons), Fraction(0))
            cum = Fraction(0)
            assert curve.steps[0].tonnage_fraction == 1.0
            for k, v in enumerate(seq.order, start=1):
                cum += Fraction(tons[v])
                assert curve.steps[k].tonnage_fraction == float(1 - cum / total)

    def test_gcc_tie_takes_heavier_component(self):
        # removing 3 splits a 5-path into {1,2} and {4,5}; both have size
        # 2 but {4,5} carries more tonnage
        net = path_net(5, tons={1: 10.0, 2: 20.0, 3: 5.0, 4: 40.0, 5: 30.0})
        curve = replay(net, RemovalSequence("random", (3,), seed=0))
        assert curve.steps[1].ff == 2
        assert curve.steps[1].tonnage_fraction == float(Fraction(100, 105))
        assert curve.steps[1].tonnage_fraction_gcc == float(Fraction(70, 105))


class TestCurveInvariants:
    def test_endpoints_and_monotonicity(self):
        rng = random.Random(5)
        for trial in range(10):
            n = rng.randint(2, 18)
            net = make_net(n, er_edges(n, 0.35, rng))
            curve = replay(net, random_sequence(net, trial))
            assert curve.steps[0].scf == 1.0
            assert curve.steps[-1].scf == 0.0
            assert curve.steps[-1].tonnage_fraction == 0.0
            for prev, cur in zip(curve.steps, curve.steps[1:]):
                assert cur.scf <= prev.scf
                assert cur.tonnage_fraction <= prev.tonnage_fraction
            for k, step in enumerate(curve.steps):
                assert step.fraction_removed == k / n

    def test_hub_first_dominates_every_order(self):
        """On a star, removing the hub first is the worst case: no other
        order gives a lower SCF at any step. Exhaustive over n <= 6."""
        for n in (4, 5, 6):
            net = star_net(n)
            hub_first = replay(net, targeted_sequence(net, "degree"))
            for perm in itertools.permutations(range(1, n + 1)):
                other = replay(net, RemovalSequence("random", perm, seed=0))
                for k in range(n + 1):
                    assert hub_first.steps[k].scf <= other.steps[k].scf


class TestStepAndCurveValidation:
    def test_step_zero_node_id(self):
        with pytest.raises(ValueError, match="node_id"):
            CurveStep(0, 4, 0.0, 3, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="node_id"):
            CurveStep(1, None, 0.5, 3, 1.0, 1.0, 1.0)

    def test_unit_interval_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            CurveStep(1, 7, 0.5, 3, 1.5, 1.0, 1.0)

    def test_curve_requires_intact_first_step(self):
        good = CurveStep(0, None, 0.0, 2, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="intact"):
            RobustnessCurve(
                "random",
                None,
                0,
                2,
                2,
                (CurveStep(0, None, 0.0, 1, 0.5, 1.0, 1.0),),
            )
        RobustnessCurve("random", None, 0, 2, 2, (good,))

    def test_curve_rejects_ff_exceeding_survivors(self):
        steps = (
            CurveStep(0, None, 0.0, 1, 1.0, 1.0, 0.5),
            CurveStep(1, 2, 0.5, 1, 1.0, 0.5, 0.5),
            CurveStep(2, 1, 1.0, 1, 1.0, 0.0, 0.0),
        )
        # ff staying flat is fine; ff cannot exceed survivors though
        with pytest.raises(ValueError, match="exceeds surviving"):
            RobustnessCurve("random", None, 0, 2, 1, steps)


class TestCollapsePoint:
    def test_large_star_collapses_at_first_removal(self):
        for n in (11, 13, 40):
            net = star_net(n)
            curve = replay(net, targeted_sequence(net, "degree"))
            assert collapse_point(curve) == (1, 1 / n)

    def test_small_star_survives_hub_loss(self):
        # 1/5 = 0.2 > 0.10, so the hub alone does not collapse a 5-star
        curve = replay(star_net(5), targeted_sequence(star_net(5), "degree"))
        point = collapse_point(curve)
        assert point is not None and point[0] > 1

    def test_partial_curve_may_never_collapse(self, star5):
        curve = replay(star5, RemovalSequence("random", (2,), seed=0))
        assert collapse_point(curve) is None

    def test_threshold_bounds(self, star5):
        curve = replay(star5, random_sequence(star5, 0))
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="threshold"):
                collapse_point(curve, bad)

    def test_threshold_shifts_the_point(self):
        net = path_net(10)
        curve = replay(net, targeted_sequence(net, "degree"))
        loose = collapse_point(curve, 0.5)
        strict = collapse_point(curve, 0.05)
        assert loose[0] < strict[0]


class TestAggregate:
    def curves(self, n=16, k=8):
        net = make_net(n, er_edges(n, 0.3, random.Random(1)))
        return [replay(net, random_sequence(net, s)) for s in range(k)]

    def test_against_two_pass_oracle(self):
        curves = self.curves()
        ensemble = aggregate_curves(curves)
        assert ensemble.n_curves == len(curves)
        for k in range(len(curves[0].steps)):
            for field, stats in (("scf", ensemble.scf), ("tonnage_fraction", ensemble.tonnage_fraction)):
                column = np.array([getattr(c.steps[k], field) for c in curves])
                s = stats[k]
                assert abs(s.mean - column.mean()) <= 1e-12
                assert abs(s.sd - column.std(ddof=1)) <= 1e-12
                assert s.min == column.min() and s.max == column.max()
                assert s.min <= s.mean <= s.max

    def test_collapse_summary_when_all_collapse(self):
        curves = self.curves()
        ensemble = aggregate_curves(curves)
        # full random removal always ends at scf 0, so every curve collapses
        points = [collapse_point(c)[1] for c in curves]
        assert ensemble.collapse is not None
        assert abs(ensemble.collapse.mean - np.mean(points)) <= 1e-12

    def test_no_collapse_summary_when_any_curve_survives(self, star5):
        partial = replay(star5, RemovalSequence("random", (2,), seed=0))
        full = replay(star5, RemovalSequence("random", (2, 1, 3), seed=1))
        ensemble = aggregate_curves([partial, partial])
        assert ensemble.collapse is None
        with pytest.raises(ValueError, match="shapes"):
            aggregate_curves([partial, full])

    def test_scenario_mix_rejected(self, star5):
        a = replay(star5, random_sequence(star5, 0))
        b = replay(star5, targeted_sequence(star5, "degree"))
        with pytest.raises(ValueError, match="mix"):
            aggregate_curves([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_curves([])


class TestCurvesCsv:
    def sample_curves(self):
        net = make_net(6, er_edges(6, 0.5, random.Random(2)), tons={1: 3.5})
        deltas = {v: v % 3 - 1 for v in net.node_ids}
        return [
            replay(net, random_sequence(net, 11)),
            replay(net, targeted_sequence(net, "degree")),
            replay(net, hot_day_sequence(net, deltas, "mB")),
        ]

    def test_round_trip(self, tmp_path):
        curves = self.sample_curves()
        path = tmp_path / "curves.csv"
        write_curves_csv(curves, path)
        assert read_curves_csv(path) == curves

    def test_header_and_blank_cells(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(self.sample_curves(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "scenario,model,seed,step,node_id,fraction_removed,ff,scf,"
            "tonnage_fraction,tonnage_fraction_gcc"
        )
        assert lines[1].startswith("random,,11,0,,")
        hot_rows = [l for l in lines if l.startswith("hot_days,")]
        assert hot_rows and all(",mB,," in l for l in hot_rows)

    def test_missing_step0_rejected(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(self.sample_curves()[:1], path)
        lines = path.read_text().splitlines()
        del lines[1]  # drop the intact row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="step-0"):
            read_curves_csv(path)

    def test_malformed_row_line_number(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(self.sample_curves()[:1], path)
        text = path.read_text().splitlines()
        text[2] = text[2].replace("random", "random").replace(",1,", ",x,", 1)
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DataError, match=r"curves\.csv:3"):
            read_curves_csv(path)

    def test_subnormal_step_fraction_rejected(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(self.sample_curves()[:1], path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[5] = "1e-320"  # 1 / fraction_removed overflows to infinity
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="curve 'random'"):
            read_curves_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_curves_csv(tmp_path / "none.csv")


class TestCollapseCsv:
    def test_layout(self, tmp_path):
        rows = [
            CollapseRow("random", None, 0.1, 0.55),
            CollapseRow("hot_days", "mA", 0.1, None),
        ]
        path = tmp_path / "collapse.csv"
        write_collapse_csv(rows, path)
        assert path.read_text().splitlines() == [
            "scenario,model,threshold,collapse_fraction",
            "random,,0.1,0.55",
            "hot_days,mA,0.1,",
        ]


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=16))
def test_replay_matches_oracle_property(seed, n):
    rng = random.Random(seed)
    net = make_net(n, er_edges(n, 0.3, rng), tons={i: rng.uniform(0, 10) for i in range(1, n + 1)})
    assert_matches_oracle(net, random_sequence(net, seed))


# non-negative doubles from the subnormals up to 1e308, so the node
# tonnages of one network mix binary exponents
EXTREME_TONS = st.floats(0, 1e308, allow_nan=False, allow_infinity=False, allow_subnormal=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(EXTREME_TONS, min_size=1, max_size=12), st.integers(min_value=0, max_value=10**6))
def test_replay_exact_on_extreme_tonnages_property(tons, seed):
    n = len(tons)
    net = make_net(n, er_edges(n, 0.4, random.Random(seed)), tons=dict(enumerate(tons, 1)))
    assert_matches_oracle(net, random_sequence(net, seed))
    assert_matches_oracle(net, targeted_sequence(net, "degree"))


@pytest.mark.parametrize(
    "tons",
    [
        [5e-324, 1e308, 2.2250738585072014e-308, 1.0, 0.0, 5e-324],
        [5e-324, 5e-324, 1e-323, 5e-324, 5e-324],
        [2.2250738585072014e-308, 5e-324, 2.2250738585072014e-308, 0.0],
        [1e308] * 6,  # the total is past the largest double
        [0.0, 0.0, 0.0, 0.0],
        [5e-324],
        [1e308],
        [0.0],
    ],
    ids=[
        "mixed",
        "subnormal",
        "smallest-normal",
        "huge-total",
        "all-zero",
        "one-min",
        "one-max",
        "one-zero",
    ],
)
def test_replay_exact_on_extreme_tonnages(tons):
    n = len(tons)
    net = make_net(n, er_edges(n, 0.5, random.Random(n)), tons=dict(enumerate(tons, 1)))
    for seq in (random_sequence(net, 3), targeted_sequence(net, "degree")):
        assert_matches_oracle(net, seq)


@pytest.mark.parametrize("n,p,seed", SEEDED_GRAPHS[:36])
def test_replay_ff_matches_networkx(n, p, seed):
    """FF after every removal vs networkx components of the survivors."""
    nx = pytest.importorskip("networkx")
    net = make_net(n, er_edges(n, p, random.Random(seed)))
    graph = nx.Graph()
    graph.add_nodes_from(net.node_ids)
    graph.add_edges_from(net.edges)
    for seq in (random_sequence(net, seed), targeted_sequence(net, "degree")):
        for step in replay(net, seq).steps:
            survivors = set(net.node_ids).difference(seq.order[: step.step])
            sizes = [len(c) for c in nx.connected_components(graph.subgraph(survivors))]
            assert step.ff == max(sizes, default=0)
