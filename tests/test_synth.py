import hashlib
import random
from datetime import date

import pytest

from conftest import count_hot_days, oracle_read_series
from freight_resilience.climate import PeriodSpec, count_series_csv
from freight_resilience.metrics import gcc_size
from freight_resilience.network import average_degree, load_network
from freight_resilience.synth import (
    DEFAULT_MODELS,
    SynthSpec,
    build_network,
    generate_synthetic,
)


class TestSpecValidation:
    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 2"):
            SynthSpec(n_nodes=1, avg_degree=0.5, seed=0)

    def test_degree_must_fit(self):
        with pytest.raises(ValueError, match="infeasible"):
            SynthSpec(n_nodes=5, avg_degree=5.0, seed=0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SynthSpec(n_nodes=5, avg_degree=2.0, seed=0, mode="air")

    def test_year_order(self):
        with pytest.raises(ValueError, match="start_year"):
            SynthSpec(n_nodes=5, avg_degree=2.0, seed=0, start_year=2010, end_year=2000)

    def test_duplicate_models(self):
        with pytest.raises(ValueError, match="unique"):
            SynthSpec(n_nodes=5, avg_degree=2.0, seed=0, models=("a", "a"))

    def test_edge_count_floor_is_spanning_tree(self):
        spec = SynthSpec(n_nodes=10, avg_degree=0.2, seed=0)
        assert spec.edge_count() == 9


class TestNetworkShape:
    def test_connected_by_construction(self):
        for seed in range(6):
            spec = SynthSpec(n_nodes=40, avg_degree=3.0, seed=seed)
            net = build_network(spec)
            assert gcc_size(net) == 40

    def test_two_nodes_single_edge(self):
        net = build_network(SynthSpec(n_nodes=2, avg_degree=1.0, seed=3))
        assert net.edges == ((1, 2),)

    def test_rail_scale_average_degree(self):
        # a synthetic stand-in for the published rail network's density
        net = build_network(SynthSpec(n_nodes=84, avg_degree=20.19, seed=7))
        assert net.node_count == 84
        assert abs(average_degree(net) - 20.19) / 20.19 < 0.05

    def test_dense_corner_exact(self):
        # average degree close to complete graph forces the non-edge
        # fallback path; result must still hit the target edge count
        spec = SynthSpec(n_nodes=8, avg_degree=6.5, seed=1)
        net = build_network(spec)
        assert net.edge_count == spec.edge_count() == 26

    def test_tonnage_and_coordinates_in_range(self):
        spec = SynthSpec(n_nodes=30, avg_degree=4.0, seed=9)
        for node in build_network(spec).nodes:
            assert 25.0 <= node.lat <= 49.0
            assert -124.0 <= node.lon <= -67.0
            assert node.tonnage > 0.0

    def test_mode_applied(self):
        net = build_network(SynthSpec(n_nodes=5, avg_degree=2.0, seed=0, mode="water"))
        assert all(n.mode == "water" for n in net.nodes)


class TestDeterminism:
    def test_same_spec_same_bytes(self, tmp_path):
        spec = SynthSpec(n_nodes=12, avg_degree=3.0, seed=5, end_year=2001)
        a = generate_synthetic(spec, tmp_path / "a")
        b = generate_synthetic(spec, tmp_path / "b")
        assert a.keys() == b.keys()
        for role in a:
            assert a[role].read_bytes() == b[role].read_bytes()

    def test_recorded_bytes(self, tmp_path):
        # sha256 of every file, recorded before the per-day terms were
        # shared across nodes and models: that change must move no byte
        spec = SynthSpec(
            n_nodes=5, avg_degree=2.0, seed=11, models=("m1", "m2"), start_year=1999, end_year=2001
        )
        paths = generate_synthetic(spec, tmp_path)
        digests = {role: hashlib.sha256(p.read_bytes()).hexdigest() for role, p in paths.items()}
        assert digests == {
            "nodes": "dbc666807c75ce33dd7c26ad34d2a66f7f8f877113989b6ba63e09bff251cca7",
            "edges": "1c3d67bb9b52c0ba1723d1793548ee7aea07dc68bddaa6faa2bb43e66e5fd5c9",
            "series:m1": "99d06bbcf7e589bb8b620cb15fb21a5eb6f2b8f735ec110e6d03b58557924821",
            "series:m2": "425200ac55dd417b4f8f87470c50db75242135c235b27625699fa0f037ba1137",
        }

    def test_seed_changes_network(self):
        nets = {build_network(SynthSpec(n_nodes=15, avg_degree=3.0, seed=s)).edges for s in range(5)}
        assert len(nets) == 5


class TestEmittedFiles:
    def test_roles_and_loadability(self, tmp_path):
        spec = SynthSpec(n_nodes=6, avg_degree=2.0, seed=2, end_year=2000)
        paths = generate_synthetic(spec, tmp_path)
        assert set(paths) == {"nodes", "edges"} | {f"series:{m}" for m in DEFAULT_MODELS}
        net = load_network(paths["nodes"], paths["edges"])
        assert net.node_count == 6
        series = oracle_read_series([paths["series:synth-a"]])
        assert set(series) == {("synth-a", i) for i in range(1, 7)}
        one = series[("synth-a", 1)]
        assert len(one.dates) == 366  # year 2000 alone
        assert one.dates[0] == date(2000, 1, 1)

    def test_no_models_skips_series(self, tmp_path):
        spec = SynthSpec(n_nodes=4, avg_degree=1.5, seed=0, models=())
        paths = generate_synthetic(spec, tmp_path)
        assert set(paths) == {"nodes", "edges"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edges.csv", "nodes.csv"]

    def test_series_file_format(self, tmp_path):
        spec = SynthSpec(n_nodes=3, avg_degree=1.0, seed=4, end_year=2000, models=("m1",))
        paths = generate_synthetic(spec, tmp_path)
        lines = paths["series:m1"].read_text().splitlines()
        assert lines[0] == "model,node_id,date,tmax_c"
        assert lines[1].startswith("m1,1,2000-01-01,")
        cell = lines[1].split(",")[3]
        assert len(cell.split(".")[1]) == 2  # two decimals


class TestWarmingTrend:
    def test_later_periods_have_more_hot_days(self, tmp_path):
        """With a positive trend and distant windows, every node must show
        at least as many hot days late as early (counted independently)."""
        spec = SynthSpec(
            n_nodes=8,
            avg_degree=2.0,
            seed=6,
            models=("m1",),
            start_year=2000,
            end_year=2059,
            trend_c_per_year=0.05,
            noise_sd_c=0.8,
        )
        paths = generate_synthetic(spec, tmp_path)
        series = oracle_read_series([paths["series:m1"]])
        early = PeriodSpec("early", 2000, 2019)
        late = PeriodSpec("late", 2040, 2059)
        threshold = 30.0
        counts = count_series_csv([paths["series:m1"]], (early, late), threshold)
        assert counts.keys() == series.keys()
        improvements = []
        for (model, node_id), s in sorted(series.items()):
            # direct scan, bypassing the counting helper
            n_early = sum(
                1 for d, v in zip(s.dates, s.tmax) if early.contains(d) and v > threshold
            )
            n_late = sum(
                1 for d, v in zip(s.dates, s.tmax) if late.contains(d) and v > threshold
            )
            assert count_hot_days(s, early, threshold) == n_early
            assert count_hot_days(s, late, threshold) == n_late
            assert counts[(model, node_id)] == (n_early, n_late)
            assert n_late >= n_early
            improvements.append(n_late - n_early)
        # 3 degrees of warming must show up somewhere, not just tie
        assert sum(improvements) > 0
