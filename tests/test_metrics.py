import itertools
import math
import pickle
import random
import tempfile
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

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
    sequence_prefix,
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
    _CURVE_HEADER,
    RobustnessCurve,
    aggregate_curves,
    collapse_point,
    gcc_size,
    read_curves_csv,
    replay,
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
    assert len(curve.ff) == len(states)
    for k, (ff, gcc_tons, remaining) in enumerate(states):
        assert curve.ff[k] == ff
        assert curve.scf[k] == ff / tf
        if total:
            assert curve.tonnage_fraction[k] == float(remaining / total)
            assert curve.tonnage_fraction_gcc[k] == float(gcc_tons / total)
        else:  # no tonnage at all: everything counts as still carried
            assert curve.tonnage_fraction[k] == 1.0
            assert curve.tonnage_fraction_gcc[k] == (1.0 if ff else 0.0)


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
        assert (curve.ff[0], curve.scf[0], curve.tonnage_fraction[0]) == (5, 1.0, 1.0)
        assert (curve.order[0], curve.ff[1], curve.scf[1]) == (1, 1, 0.2)
        assert curve.tonnage_fraction[1] == 0.8
        assert curve.tonnage_fraction_gcc[1] == 0.2
        assert curve.ff[-1] == 0
        assert curve.order == (1, 2, 3, 4, 5)

    def test_partial_sequence(self, star5):
        seq = RemovalSequence("random", (3, 5), seed=0)
        curve = replay(star5, seq)
        assert len(curve.ff) == 3
        assert curve.ff[-1] == 3

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
        assert curve.tonnage_fraction == (1.0,) * 4
        assert curve.tonnage_fraction_gcc[-1] == 0.0
        assert curve.tonnage_fraction_gcc[0] == 1.0


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
            assert_matches_oracle(net, sequence_prefix(full, k))

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
            assert curve.tonnage_fraction[0] == 1.0
            for k, v in enumerate(seq.order, start=1):
                cum += Fraction(tons[v])
                assert curve.tonnage_fraction[k] == float(1 - cum / total)

    def test_gcc_tie_takes_heavier_component(self):
        # removing 3 splits a 5-path into {1,2} and {4,5}; both have size
        # 2 but {4,5} carries more tonnage
        net = path_net(5, tons={1: 10.0, 2: 20.0, 3: 5.0, 4: 40.0, 5: 30.0})
        curve = replay(net, RemovalSequence("random", (3,), seed=0))
        assert curve.ff[1] == 2
        assert curve.tonnage_fraction[1] == float(Fraction(100, 105))
        assert curve.tonnage_fraction_gcc[1] == float(Fraction(70, 105))


class TestCurveInvariants:
    def test_endpoints_and_monotonicity(self):
        rng = random.Random(5)
        for trial in range(10):
            n = rng.randint(2, 18)
            net = make_net(n, er_edges(n, 0.35, rng))
            curve = replay(net, random_sequence(net, trial))
            assert curve.scf[0] == 1.0
            assert curve.scf[-1] == 0.0
            assert curve.tonnage_fraction[-1] == 0.0
            for column in (curve.scf, curve.tonnage_fraction):
                assert all(cur <= prev for prev, cur in zip(column, column[1:]))
            assert curve.fraction_removed == tuple(k / n for k in range(n + 1))

    def test_hub_first_dominates_every_order(self):
        """On a star, removing the hub first is the worst case: no other
        order gives a lower SCF at any step. Exhaustive over n <= 6."""
        for n in (4, 5, 6):
            net = star_net(n)
            hub_first = replay(net, targeted_sequence(net, "degree"))
            for perm in itertools.permutations(range(1, n + 1)):
                other = replay(net, RemovalSequence("random", perm, seed=0))
                for k in range(n + 1):
                    assert hub_first.scf[k] <= other.scf[k]


def columns_curve(**changes):
    """A valid curve of three nodes after two removals, with ``changes``
    applied to the constructor's fields."""
    fields = dict(
        scenario="random",
        model=None,
        seed=0,
        n_nodes=3,
        tf=3,
        order=(2, 1),
        ff=(3, 1, 1),
        tonnage_fraction=(1.0, 0.5, 0.25),
        tonnage_fraction_gcc=(1.0, 0.25, 0.25),
    )
    return RobustnessCurve(**{**fields, **changes})


class TestStepAndCurveValidation:
    def test_valid_columns_and_derived_values(self):
        curve = columns_curve()
        assert curve.fraction_removed == (0.0, 1 / 3, 2 / 3)
        assert curve.scf == (1.0, 1 / 3, 1 / 3)

    def test_step_zero_node_id(self):
        """The intact row removes no node: ``order`` is one entry shorter
        than the per-step columns."""
        for order in ((2,), (2, 1, 3)):
            with pytest.raises(ValueError, match="one entry per step"):
                columns_curve(order=order)

    def test_unit_interval_enforced(self):
        with pytest.raises(ValueError, match=r"tonnage_fraction must be .* within \[0, 1\]"):
            columns_curve(tonnage_fraction=(1.5, 0.5, 0.25))
        with pytest.raises(ValueError, match=r"tonnage_fraction must be .* within \[0, 1\]"):
            columns_curve(tonnage_fraction=(1.0, 0.5, -0.25))
        for gcc in ((1.0, 1.25, 0.25), (1.0, 0.25, -0.0625)):
            with pytest.raises(ValueError, match="tonnage_fraction_gcc outside"):
                columns_curve(tonnage_fraction_gcc=gcc)

    def test_nan_rejected_in_every_float_column(self):
        nan = float("nan")
        for ton in ((nan, 0.5, 0.25), (1.0, nan, 0.25), (1.0, 0.5, nan)):
            with pytest.raises(ValueError, match="tonnage_fraction must be"):
                columns_curve(tonnage_fraction=ton)
        for gcc in ((nan, 0.25, 0.25), (1.0, 0.25, nan)):
            with pytest.raises(ValueError, match="tonnage_fraction_gcc outside"):
                columns_curve(tonnage_fraction_gcc=gcc)

    def test_curve_requires_intact_first_step(self):
        with pytest.raises(ValueError, match="intact"):
            columns_curve(tf=2, ff=(3, 1, 1))
        with pytest.raises(ValueError, match="intact"):
            columns_curve(ff=(2, 1, 1))

    def test_curve_rejects_ff_exceeding_survivors(self):
        # ff staying flat is fine; ff cannot exceed survivors though
        with pytest.raises(ValueError, match="exceeds the surviving"):
            columns_curve(n_nodes=2, tf=1, ff=(1, 1, 1))
        with pytest.raises(ValueError, match="exceeds the surviving"):
            columns_curve(ff=(3, 3, 1))

    def test_node_count_and_tf_bounds(self):
        for n_nodes, tf in ((0, 0), (3, 0), (2, 3)):
            with pytest.raises(ValueError, match="1 <= tf <= n_nodes"):
                columns_curve(n_nodes=n_nodes, tf=tf, ff=(tf, 0, 0))

    def test_at_most_one_removal_per_node(self):
        with pytest.raises(ValueError, match="3 removals from 2 nodes"):
            columns_curve(
                n_nodes=2,
                tf=2,
                order=(1, 2, 3),
                ff=(2, 1, 0, 0),
                tonnage_fraction=(1.0,) * 4,
                tonnage_fraction_gcc=(1.0,) * 4,
            )

    def test_column_lengths_must_match(self):
        for field in ("ff", "tonnage_fraction", "tonnage_fraction_gcc"):
            with pytest.raises(ValueError, match="one entry per step"):
                columns_curve(**{field: (1.0, 1.0)})

    def test_ff_non_increasing_and_non_negative(self):
        with pytest.raises(ValueError, match="ff must be non-increasing"):
            columns_curve(ff=(3, 0, 1))
        with pytest.raises(ValueError, match="ff must be non-increasing and non-negative"):
            columns_curve(ff=(3, 1, -1))

    def test_tonnage_fraction_non_increasing(self):
        with pytest.raises(ValueError, match="tonnage_fraction must be non-increasing"):
            columns_curve(tonnage_fraction=(1.0, 0.25, 0.5))


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
        for k in range(len(curves[0].ff)):
            for field, stats in (("scf", ensemble.scf), ("tonnage_fraction", ensemble.tonnage_fraction)):
                column = np.array([getattr(c, field)[k] for c in curves])
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

    def test_plain_means_and_collapse_points_from_the_same_pass(self):
        curves = self.curves()
        ensemble = aggregate_curves(curves, 0.25)
        assert ensemble.collapse_points == tuple(collapse_point(c, 0.25) for c in curves)
        for field in ("scf", "tonnage_fraction"):
            columns = list(zip(*(getattr(c, field) for c in curves)))
            means = getattr(ensemble, f"{field}_mean")
            assert means == tuple(math.fsum(col) / len(curves) for col in columns)

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

    def test_read_peak_close_to_what_the_curves_keep(self, tmp_path):
        # each curve's lists are dropped as the curve is built; lists kept
        # until every curve exists would read about 1.7 here
        net = make_net(60, er_edges(60, 0.08, random.Random(5)))
        path = tmp_path / "curves.csv"
        write_curves_csv([replay(net, random_sequence(net, s)) for s in range(40)], path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            curves = read_curves_csv(path)
            kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(curves) == 40
        assert peak <= 1.2 * kept, f"peak {peak} B for {kept} B of curves"

    def test_intact_row_alone_reads_back_with_tf_nodes(self, tmp_path):
        # a documented limit: the file holds no node count, so a curve
        # with no removals reads back with n_nodes = tf
        net = make_net(2, [])
        curve = replay(net, RemovalSequence("random", (), seed=0))
        assert (curve.n_nodes, curve.tf) == (2, 1)
        path = tmp_path / "curves.csv"
        write_curves_csv([curve], path)
        (back,) = read_curves_csv(path)
        assert back.n_nodes == 1
        assert back == replace(curve, n_nodes=1)

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

    def test_curve_resumed_after_another_curve_names_its_line(self, tmp_path):
        # two 2-step curves whose rows alternate: write_curves_csv never
        # writes this, and the rows are not joined up again
        path = tmp_path / "curves.csv"
        path.write_text(
            ",".join(_CURVE_HEADER) + "\n"
            "random,,1,0,,0.0,2,1.0,1.0,1.0\n"
            "random,,2,0,,0.0,2,1.0,1.0,1.0\n"
            "random,,1,1,1,0.5,1,0.5,0.5,0.5\n"
            "random,,2,1,2,0.5,1,0.5,0.5,0.5\n"
        )
        message = r"curves\.csv:4: curve 'random'/''/'1' resumes after another curve's rows"
        with pytest.raises(DataError, match=message):
            read_curves_csv(path)

    def test_curves_of_one_node_count_share_fraction_removed(self, tmp_path):
        net = make_net(30, er_edges(30, 0.1, random.Random(3)))
        full = [replay(net, random_sequence(net, s)) for s in range(3)]
        partial = replay(net, RemovalSequence("random", full[0].order[:7], seed=9))
        path = tmp_path / "curves.csv"
        write_curves_csv([*full, partial], path)
        copies = pickle.loads(pickle.dumps([*full, partial]))
        for curves in (full + [partial], read_curves_csv(path), copies):
            *whole, part = curves
            assert whole[0].fraction_removed is full[0].fraction_removed
            assert all(c.fraction_removed is whole[0].fraction_removed for c in whole)
            assert whole[0].fraction_removed == tuple(j / 30 for j in range(31))
            assert part.fraction_removed == tuple(j / 30 for j in range(8))


def write_edited_curve(path, edits):
    """Write a 4-node random curve (order 1, 2, 3; ff 4, 1, 1, 1) and
    set cells of it: ``edits`` maps (line, column name) to the new text."""
    ton, gcc = (1.0, 0.75, 0.5, 0.25), (1.0, 0.25, 0.25, 0.25)
    curve = RobustnessCurve("random", None, 5, 4, 4, (1, 2, 3), (4, 1, 1, 1), ton, gcc)
    write_curves_csv([curve], path)
    lines = [line.split(",") for line in path.read_text().splitlines()]
    for (line, column), text in edits.items():
        lines[line - 1][lines[0].index(column)] = text
    path.write_text("".join(",".join(cells) + "\n" for cells in lines))
    return path


# a fault of the whole curve written by write_edited_curve
CURVE_FAULT = r"curves\.csv: curve 'random'/''/'5': "


class TestCurvesCsvFaults:
    """Row faults name the file and line; faults of a whole curve name
    the file and the curve."""

    def test_unedited_file_reads(self, tmp_path):
        (curve,) = read_curves_csv(write_edited_curve(tmp_path / "curves.csv", {}))
        assert curve.ff == (4, 1, 1, 1) and curve.scf == (1.0, 0.25, 0.25, 0.25)

    def test_step_gap_names_its_line(self, tmp_path):
        path = write_edited_curve(tmp_path / "curves.csv", {})
        lines = path.read_text().splitlines()
        del lines[2]  # step 1
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"curves\.csv:3: step 2 where the curve needs step 1"):
            read_curves_csv(path)

    def test_missing_step0_names_its_line(self, tmp_path):
        path = write_edited_curve(tmp_path / "curves.csv", {(2, "step"): "1"})
        with pytest.raises(DataError, match=r"csv:2: step 1 where the curve needs a step-0 row"):
            read_curves_csv(path)

    def test_node_id_at_step_zero(self, tmp_path):
        path = write_edited_curve(tmp_path / "curves.csv", {(2, "node_id"): "4"})
        with pytest.raises(DataError, match=r"csv:2: the step-0 row must leave node_id blank"):
            read_curves_csv(path)

    def test_blank_node_id_after_step_zero(self, tmp_path):
        path = write_edited_curve(tmp_path / "curves.csv", {(4, "node_id"): ""})
        with pytest.raises(DataError, match=r"curves\.csv:4: step 2 names no removed node_id"):
            read_curves_csv(path)

    @pytest.mark.parametrize("column", _CURVE_HEADER[2:])
    def test_non_numeric_cell(self, tmp_path, column):
        path = write_edited_curve(tmp_path / "curves.csv", {(3, column): "x"})
        with pytest.raises(DataError, match=r"curves\.csv:3: .*'x'"):
            read_curves_csv(path)

    def test_short_row(self, tmp_path):
        path = write_edited_curve(tmp_path / "curves.csv", {})
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 2)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"curves\.csv:4: "):
            read_curves_csv(path)

    def test_ff_increasing(self, tmp_path):
        path = write_edited_curve(tmp_path / "curves.csv", {(4, "ff"): "2", (4, "scf"): "0.5"})
        with pytest.raises(DataError, match=CURVE_FAULT + "ff must be non-increasing"):
            read_curves_csv(path)

    def test_scf_not_ff_over_tf(self, tmp_path):
        path = write_edited_curve(tmp_path / "curves.csv", {(3, "scf"): "0.3"})
        with pytest.raises(DataError, match=CURVE_FAULT + "scf is not ff/tf"):
            read_curves_csv(path)

    @pytest.mark.parametrize("line, text", [(2, "0.1"), (4, "0.6"), (5, "0.7")])
    def test_fraction_removed_mismatch(self, tmp_path, line, text):
        path = write_edited_curve(tmp_path / "curves.csv", {(line, "fraction_removed"): text})
        with pytest.raises(DataError, match=CURVE_FAULT + "fraction_removed is not step/n_nodes"):
            read_curves_csv(path)

    @pytest.mark.parametrize("text", ["0.0", "-0.25", "nan"])
    def test_step_one_fraction_not_positive(self, tmp_path, text):
        path = write_edited_curve(tmp_path / "curves.csv", {(3, "fraction_removed"): text})
        with pytest.raises(DataError, match=CURVE_FAULT + "step 1 fraction_removed must be positive"):
            read_curves_csv(path)

    def test_subnormal_step_one_fraction(self, tmp_path):
        path = write_edited_curve(tmp_path / "curves.csv", {(3, "fraction_removed"): "1e-320"})
        with pytest.raises(DataError, match=CURVE_FAULT):
            read_curves_csv(path)


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


def assert_columns_match_oracle(net, seq, curve):
    """Every column of ``curve``, stored or derived, against the oracle."""
    states = oracle_curve_states(net, seq.order)
    total = sum((Fraction(rec.tonnage) for rec in net.nodes), Fraction(0))
    ff = tuple(f for f, _, _ in states)
    n = net.node_count
    assert (curve.n_nodes, curve.tf, curve.order, curve.ff) == (n, ff[0], seq.order, ff)
    assert curve.fraction_removed == tuple(j / n for j in range(len(ff)))
    assert curve.scf == tuple(f / ff[0] for f in ff)
    if total:
        assert curve.tonnage_fraction == tuple(float(rem / total) for _, _, rem in states)
        assert curve.tonnage_fraction_gcc == tuple(float(g / total) for _, g, _ in states)
    else:
        assert curve.tonnage_fraction == (1.0,) * len(ff)
        assert curve.tonnage_fraction_gcc == tuple(1.0 if f else 0.0 for f in ff)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 5e-324, 1e308]) | EXTREME_TONS, min_size=1, max_size=14),
    st.integers(min_value=0, max_value=10**6),
    st.floats(0.0, 1.0),
)
def test_curves_csv_round_trip_property(tons, seed, cut):
    """Written and read back, curves of full and partial sequences are
    equal to the replayed ones, write the same bytes again, and hold
    exactly the oracle's values."""
    n = len(tons)
    rng = random.Random(seed)
    net = make_net(n, er_edges(n, rng.uniform(0.1, 0.6), rng), tons=dict(enumerate(tons, 1)))
    # at least one removal: a file holds no node count, and the reader
    # takes it from the step-1 fraction (tf for a lone intact row)
    k = max(1, round(cut * n))
    deltas = {v: rng.randint(-3, 5) for v in net.node_ids}
    seqs = [
        random_sequence(net, seed),
        sequence_prefix(random_sequence(net, seed + 1), k),
        targeted_sequence(net, "degree"),
        sequence_prefix(hot_day_sequence(net, deltas, "mA"), k),
    ]
    curves = [replay(net, s) for s in seqs]
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp, "curves.csv"), Path(tmp, "again.csv")
        write_curves_csv(curves, first)
        back = read_curves_csv(first)
        assert back == curves
        write_curves_csv(back, again)
        assert again.read_bytes() == first.read_bytes()
    for seq, curve in zip(seqs, back):
        assert_columns_match_oracle(net, seq, curve)


@pytest.mark.parametrize("n,p,seed", SEEDED_GRAPHS[:36])
def test_replay_ff_matches_networkx(n, p, seed):
    """FF after every removal vs networkx components of the survivors."""
    nx = pytest.importorskip("networkx")
    net = make_net(n, er_edges(n, p, random.Random(seed)))
    graph = nx.Graph()
    graph.add_nodes_from(net.node_ids)
    graph.add_edges_from(net.edges)
    for seq in (random_sequence(net, seed), targeted_sequence(net, "degree")):
        for k, ff in enumerate(replay(net, seq).ff):
            survivors = set(net.node_ids).difference(seq.order[:k])
            sizes = [len(c) for c in nx.connected_components(graph.subgraph(survivors))]
            assert ff == max(sizes, default=0)
