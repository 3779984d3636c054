import ast
import csv
import hashlib
import json
import math
import multiprocessing
import re
import tempfile
import tracemalloc
import types
from dataclasses import replace
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
import freight_resilience
from conftest import counted_in_ranges, make_node, oracle_emit_report, rail_density_net
from freight_resilience import centrality, metrics, pipeline
from freight_resilience.centrality import CENTRALITY_KINDS
from freight_resilience.cli import main
from freight_resilience.climate import (
    BASELINE,
    FUTURE_FAR,
    FUTURE_NEAR,
    HotDayProfile,
    count_gridded_series_csv,
    count_series_csv,
    read_profiles_csv,
    summarize,
    write_profiles_csv,
)
from freight_resilience.disruption import SCENARIOS, RemovalSequence, targeted_sequence
from freight_resilience.errors import ConfigError, DataError, PipelineError, exit_code_for
from freight_resilience.pipeline import (
    MANIFEST_NAME,
    STAGES,
    ClimateConfig,
    RunConfig,
    _Recorder,
    config_digest_dict,
    emit_report,
    load_config,
    report_from_curves,
    run,
)
from freight_resilience.metrics import (
    RobustnessCurve,
    aggregate_curves,
    read_curves_csv,
    replay,
    write_curves_csv,
)
from freight_resilience.network import load_network
from freight_resilience.synth import SynthSpec, generate_synthetic

ALL_PERIODS = {p.label: p for p in (BASELINE, FUTURE_NEAR, FUTURE_FAR)}


def write_demo_profiles(path, models=("mA", "mB"), n=10):
    """Hand-built hot-day profiles: near-future deltas are i - 5 for
    model mA and i - 3 for mB, so some nodes gain and some lose."""
    profiles = []
    for k, model in enumerate(models):
        base = {i: 10 for i in range(1, n + 1)}
        near = {i: max(0, 10 + i - 5 + 2 * k) for i in range(1, n + 1)}
        far = {i: 10 + 2 * i for i in range(1, n + 1)}
        profiles.append(HotDayProfile(model, BASELINE, base))
        profiles.append(HotDayProfile(model, FUTURE_NEAR, near))
        profiles.append(HotDayProfile(model, FUTURE_FAR, far))
    write_profiles_csv(profiles, path)


def write_mismatched_curves(path) -> Path:
    """Two random curves of one 2-node network, the second cut after its
    intact row (as in a truncated file)."""
    path.write_text(
        "scenario,model,seed,step,node_id,fraction_removed,ff,scf,"
        "tonnage_fraction,tonnage_fraction_gcc\n"
        "random,,0,0,,0.0,2,1.0,1.0,1.0\n"
        "random,,0,1,1,0.5,1,0.5,0.5,0.5\n"
        "random,,1,0,,0.0,2,1.0,1.0,1.0\n"
    )
    return path


@pytest.fixture
def demo(tmp_path):
    """A config file plus the tiny dataset it points at (paths relative
    to the config's own directory)."""
    data = tmp_path / "data"
    generate_synthetic(SynthSpec(n_nodes=10, avg_degree=3.0, seed=1, models=()), data)
    write_demo_profiles(data / "profiles.csv")
    config = {
        "nodes": "data/nodes.csv",
        "edges": "data/edges.csv",
        "out_dir": "out",
        "seeds": 3,
        "climate": {"profiles": "data/profiles.csv"},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


def manifest_of(out_dir) -> dict:
    return json.loads((Path(out_dir) / MANIFEST_NAME).read_text())


class TestLoadConfig:
    def test_defaults_and_path_resolution(self, demo):
        config = load_config(demo)
        base = demo.parent
        assert config.nodes == str(base / "data" / "nodes.csv")
        assert config.out_dir == str(base / "out")
        assert config.climate.profiles == str(base / "data" / "profiles.csv")
        assert config.seeds == 3
        assert config.scenarios == (
            "random",
            "targeted_degree",
            "targeted_closeness",
            "targeted_betweenness",
            "hot_days",
        )
        assert config.ranking == "static"
        assert config.collapse_threshold == 0.10

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_bom_prefixed_config_loads(self, demo):
        # Windows Notepad saves UTF-8 with a leading byte-order mark
        plain = load_config(demo)
        demo.write_bytes(b"\xef\xbb\xbf" + demo.read_bytes())
        assert load_config(demo) == plain

    @pytest.mark.parametrize(
        "content",
        [b"\xff{}", b'{"seeds": ' + b"1" * 5000 + b"}", b"[" * 100_000],
        ids=["not-utf8", "integer-past-digit-limit", "nested-too-deep"],
    )
    def test_unparseable_json(self, tmp_path, content):
        path = tmp_path / "c.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_unknown_field(self, demo):
        doc = json.loads(demo.read_text())
        doc["simulate_seeds"] = 3
        demo.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"unknown field\(s\) \['simulate_seeds'\]"):
            load_config(demo)

    def test_unknown_climate_field(self, demo):
        doc = json.loads(demo.read_text())
        doc["climate"]["warming"] = 2.0
        demo.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=r"climate: unknown field\(s\)"):
            load_config(demo)

    def test_required_fields(self, demo):
        doc = json.loads(demo.read_text())
        del doc["edges"]
        demo.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="edges: required field missing"):
            load_config(demo)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("seeds", "many", "seeds: expected an integer"),
            ("seeds", True, "seeds: expected an integer"),
            ("scenarios", "random", "expected a list"),
            ("collapse_threshold", "low", "expected a number"),
            ("mode", 3, "mode: expected a string"),
        ],
    )
    def test_type_errors(self, demo, field, value, message):
        doc = json.loads(demo.read_text())
        doc[field] = value
        demo.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            load_config(demo)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("scenarios", ["random", "meteor"], r"scenarios\[1\]: unknown scenario 'meteor'"),
            ("scenarios", ["random", "random"], r"scenarios\[1\]: duplicate"),
            ("scenarios", [], "at least one scenario"),
            ("seeds", 0, "at least 1 trial"),
            ("collapse_threshold", 1.5, r"in \(0, 1\)"),
            ("ranking", "greedy", "ranking: must be one of"),
            ("mode", "air", "mode: must be one of"),
        ],
    )
    def test_value_errors(self, demo, field, value, message):
        doc = json.loads(demo.read_text())
        doc[field] = value
        demo.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=message):
            load_config(demo)

    def test_hot_days_requires_climate(self, demo):
        doc = json.loads(demo.read_text())
        del doc["climate"]
        demo.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="climate: section required"):
            load_config(demo)

    def test_scenarios_without_climate_are_fine(self, demo):
        doc = json.loads(demo.read_text())
        del doc["climate"]
        doc["scenarios"] = ["random", "targeted_degree"]
        demo.write_text(json.dumps(doc))
        assert load_config(demo).climate is None

    def test_custom_periods(self, demo):
        doc = json.loads(demo.read_text())
        doc["climate"]["baseline"] = {"label": "b", "start_year": 1990, "end_year": 1999}
        doc["climate"]["futures"] = [{"label": "f", "start_year": 2040, "end_year": 2049}]
        doc["climate"]["sequence_period"] = "f"
        demo.write_text(json.dumps(doc))
        config = load_config(demo)
        assert config.climate.baseline.label == "b"
        assert config.climate.delta_period().label == "f"

    def test_period_shape_errors(self, demo):
        doc = json.loads(demo.read_text())
        doc["climate"]["baseline"] = {"label": "b", "start_year": 1990}
        demo.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="climate.baseline: expected keys"):
            load_config(demo)

    def test_sequence_period_must_be_a_future(self, demo):
        doc = json.loads(demo.read_text())
        doc["climate"]["sequence_period"] = "1991-2020"
        demo.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="not a future period label"):
            load_config(demo)

    def test_exactly_one_climate_source(self, demo):
        doc = json.loads(demo.read_text())
        doc["climate"]["series"] = ["data/profiles.csv"]
        demo.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="exactly one of"):
            load_config(demo)

    def test_overrides_win(self, demo, tmp_path):
        config = load_config(
            demo,
            overrides={
                "seeds": 7,
                "scenarios": ("random",),
                "collapse_threshold": 0.25,
                "out_dir": str(tmp_path / "elsewhere"),
            },
        )
        assert config.seeds == 7
        assert config.scenarios == ("random",)
        assert config.collapse_threshold == 0.25
        assert config.out_dir == str(tmp_path / "elsewhere")

    def test_threshold_c_override_targets_climate(self, demo):
        config = load_config(demo, overrides={"threshold_c": 40.0})
        assert config.climate.threshold_c == 40.0

    def test_threshold_c_override_needs_climate(self, demo):
        doc = json.loads(demo.read_text())
        del doc["climate"]
        doc["scenarios"] = ["random"]
        demo.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="requires a climate section"):
            load_config(demo, overrides={"threshold_c": 40.0})

    def test_unknown_override_rejected(self, demo):
        with pytest.raises(ConfigError, match="not a config field"):
            load_config(demo, overrides={"turbo": True})

    def test_digest_excludes_out_dir(self, demo, tmp_path):
        a = load_config(demo)
        b = replace(a, out_dir=str(tmp_path / "other"))
        assert config_digest_dict(a) == config_digest_dict(b)


EXPECTED_FULL_RUN_FILES = {
    "network_nodes.csv",
    "network_edges.csv",
    "centrality_scores.csv",
    "ranking_degree.csv",
    "ranking_closeness.csv",
    "ranking_betweenness.csv",
    "hotday_profiles.csv",
    "hotday_deltas.csv",
    "hotday_ensemble.csv",
    "hotday_topk.csv",
    "sequences.csv",
    "curves.csv",
    "collapse.csv",
    "collapse_ensemble.csv",
    "ensemble_scf_random.csv",
    "ensemble_tonnage_fraction_random.csv",
    "ensemble_scf_hot_days.csv",
    "ensemble_tonnage_fraction_hot_days.csv",
    "robustness.svg",
    "tonnage.svg",
    "hotday_map.svg",
}


class TestRun:
    def test_full_run_emits_everything(self, demo):
        bundle = run(load_config(demo))
        assert set(bundle.files) == EXPECTED_FULL_RUN_FILES
        for rel in bundle.files:
            assert (bundle.out_dir / rel).stat().st_size > 0

    def test_manifest_structure(self, demo):
        import hashlib

        bundle = run(load_config(demo))
        doc = manifest_of(bundle.out_dir)
        assert doc["format"] == "freight-resilience-manifest/1"
        assert doc["tool"]["name"] == "freight-resilience"
        assert doc["status"] == "complete"
        assert doc["failed_stage"] is None
        assert len(doc["config_sha256"]) == 64
        assert set(doc["files"]) == EXPECTED_FULL_RUN_FILES
        for rel, entry in doc["files"].items():
            data = (bundle.out_dir / rel).read_bytes()
            assert entry["bytes"] == len(data)
            assert entry["sha256"] == hashlib.sha256(data).hexdigest()

    def test_manifest_hashes_outputs_in_blocks(self, tmp_path):
        data = bytes(range(256)) * (4 << 12)  # 4 MB
        (tmp_path / "big.bin").write_bytes(data)
        tracemalloc.start()
        try:
            pipeline._write_manifest(tmp_path, "0" * 64, ["big.bin"], "complete", None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak traced allocation {peak / 2**20:.2f} MB"
        entry = manifest_of(tmp_path)["files"]["big.bin"]
        assert entry == {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}

    def test_manifest_refuses_an_empty_output(self, tmp_path):
        (tmp_path / "empty.csv").write_bytes(b"")
        with pytest.raises(RuntimeError, match="'empty.csv' is empty"):
            pipeline._write_manifest(tmp_path, "0" * 64, ["empty.csv"], "complete", None)
        pipeline._write_manifest(tmp_path, "0" * 64, ["empty.csv"], "incomplete", "report")
        assert manifest_of(tmp_path)["files"]["empty.csv"]["bytes"] == 0

    def test_deterministic_across_out_dirs(self, demo, tmp_path):
        config = load_config(demo)
        a = run(config)
        b = run(replace(config, out_dir=str(tmp_path / "out2")))
        assert a.manifest_sha256 == b.manifest_sha256
        assert a.manifest_path.read_bytes() == b.manifest_path.read_bytes()
        for rel in a.files:
            assert (a.out_dir / rel).read_bytes() == (b.out_dir / rel).read_bytes()

    def test_managed_rerun_reproduces(self, demo):
        config = load_config(demo)
        first = run(config)
        again = run(config)  # same dir, wiped via its manifest
        assert first.manifest_sha256 == again.manifest_sha256

    def test_stage_subset(self, demo):
        config = load_config(demo)
        bundle = run(config, stages=("ingest", "centrality"))
        assert set(bundle.files) == {
            "network_nodes.csv",
            "network_edges.csv",
            "centrality_scores.csv",
            "ranking_degree.csv",
            "ranking_closeness.csv",
            "ranking_betweenness.csv",
        }
        assert manifest_of(bundle.out_dir)["status"] == "complete"

    def test_unknown_stage(self, demo):
        with pytest.raises(ConfigError, match="unknown stage"):
            run(load_config(demo), stages=("ingest", "teardown"))

    def test_refuses_foreign_directory(self, demo):
        config = load_config(demo)
        out = Path(config.out_dir)
        out.mkdir()
        (out / "precious.txt").write_text("do not touch")
        with pytest.raises(ConfigError, match="refusing to overwrite"):
            run(config)
        assert (out / "precious.txt").read_text() == "do not touch"

    def test_refuses_unmanaged_leftovers(self, demo):
        config = load_config(demo)
        run(config)
        out = Path(config.out_dir)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        stray = out / "notes.txt"
        stray.write_text("mine")
        with pytest.raises(ConfigError, match="unmanaged files"):
            run(config)
        assert stray.read_text() == "mine"
        # the refused run deleted none of the previous results
        assert {p.name: p.read_bytes() for p in out.iterdir() if p != stray} == before

    @pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100_000], ids=["not-utf8", "deep"])
    def test_unparseable_manifest_rejected(self, demo, content):
        config = load_config(demo)
        run(config)
        manifest = Path(config.out_dir) / MANIFEST_NAME
        manifest.write_bytes(content)
        with pytest.raises(ConfigError, match=f"unreadable {MANIFEST_NAME}"):
            run(config)

    @pytest.mark.parametrize("escape", ["relative", "absolute", "nul"])
    def test_manifest_entries_outside_out_dir_rejected(self, demo, tmp_path, escape):
        config = load_config(demo)
        run(config)
        victim = tmp_path / "victim.txt"
        victim.write_text("not ours")
        manifest = Path(config.out_dir) / MANIFEST_NAME
        doc = json.loads(manifest.read_text())
        entry = {"relative": "../victim.txt", "absolute": str(victim), "nul": "a\0b"}[escape]
        doc["files"][entry] = {"sha256": "0" * 64, "bytes": 8}
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="is not a file inside"):
            run(config)
        assert victim.read_text() == "not ours"
        # the check runs before any listed file is deleted
        assert (Path(config.out_dir) / "curves.csv").is_file()

    def test_out_dir_is_a_file(self, demo):
        config = load_config(demo)
        Path(config.out_dir).write_text("oops")
        with pytest.raises(ConfigError, match="not a directory"):
            run(config)

    def test_failure_writes_incomplete_manifest(self, demo):
        doc = json.loads(demo.read_text())
        demo_dir = demo.parent
        # profiles that lack model mB's baseline: climate stage must fail
        profiles = [
            HotDayProfile("mA", BASELINE, {i: 1 for i in range(1, 11)}),
            HotDayProfile("mA", FUTURE_NEAR, {i: 2 for i in range(1, 11)}),
            HotDayProfile("mB", FUTURE_NEAR, {i: 2 for i in range(1, 11)}),
        ]
        write_profiles_csv(profiles, demo_dir / "data" / "broken.csv")
        doc["climate"]["profiles"] = "data/broken.csv"
        demo.write_text(json.dumps(doc))
        config = load_config(demo)
        with pytest.raises(PipelineError, match="stage 'climate'") as excinfo:
            run(config)
        assert exit_code_for(excinfo.value) == 3  # data problem underneath
        manifest = manifest_of(config.out_dir)
        assert manifest["status"] == "incomplete"
        assert manifest["failed_stage"] == "climate"
        # outputs from completed stages are still listed
        assert "network_nodes.csv" in manifest["files"]

    def test_hot_days_needs_climate_stage(self, demo):
        config = load_config(demo)
        with pytest.raises(PipelineError, match="stage 'simulate'"):
            run(config, stages=("ingest", "simulate"))

    @pytest.mark.parametrize(
        "stages",
        [
            ("centrality",),
            ("climate",),
            ("simulate",),
            ("ingest", "report"),
            ("ingest", "centrality", "climate", "report"),
        ],
    )
    def test_stage_set_without_a_prerequisite_is_refused(self, demo, stages):
        config = load_config(demo)
        out = Path(config.out_dir)
        with pytest.raises(ConfigError, match="needs stage") as excinfo:
            run(config, stages=stages)
        assert exit_code_for(excinfo.value) == 2
        assert not out.exists()
        run(config, stages=("ingest",))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(ConfigError, match="needs stage"):
            run(config, stages=stages)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_replay_fault_leaves_a_manifest_the_next_run_replaces(self, demo):
        config = load_config(demo)
        replay_one, calls = metrics.replay, []

        def faulty(net, sequence):
            calls.append(sequence)
            if len(calls) == 3:
                raise OSError("device lost")
            return replay_one(net, sequence)

        with mock.patch.object(metrics, "replay", faulty):
            with pytest.raises(PipelineError, match="stage 'simulate'"):
                run(config)
        manifest = manifest_of(config.out_dir)
        assert (manifest["status"], manifest["failed_stage"]) == ("incomplete", "simulate")
        # curves.csv was begun, so it is listed with what it holds
        curves = Path(config.out_dir) / "curves.csv"
        assert manifest["files"]["curves.csv"]["sha256"] == (
            hashlib.sha256(curves.read_bytes()).hexdigest()
        )
        assert main(["run", "--config", str(demo)]) == 0
        assert manifest_of(config.out_dir)["status"] == "complete"

    def test_output_declared_but_never_created_is_not_listed(self, demo):
        config = load_config(demo)
        with mock.patch.object(pipeline, "write_sequences_csv", side_effect=OSError("full")):
            with pytest.raises(PipelineError, match="stage 'simulate'"):
                run(config)
        manifest = manifest_of(config.out_dir)
        assert manifest["status"] == "incomplete"
        assert "sequences.csv" not in manifest["files"]
        assert "ranking_degree.csv" in manifest["files"]
        assert main(["run", "--config", str(demo)]) == 0

    def test_collapse_table_contents(self, demo):
        config = load_config(demo)
        bundle = run(config)
        lines = (bundle.out_dir / "collapse.csv").read_text().splitlines()
        assert lines[0] == "scenario,model,threshold,collapse_fraction"
        scenarios = {line.split(",")[0] for line in lines[1:]}
        assert scenarios == set(config.scenarios)
        # hot_days appears once per climate model
        assert sum(1 for l in lines[1:] if l.startswith("hot_days,")) == 2


def count_searches(monkeypatch) -> list[int]:
    """Record the source of every single-source search from here on."""
    sources: list[int] = []
    search = centrality._bfs_counts

    def counted(adj, source):
        sources.append(source)
        return search(adj, source)

    monkeypatch.setattr(centrality, "_bfs_counts", counted)
    return sources


class TestSharedCentrality:
    def test_full_run_sweeps_closeness_and_betweenness_once(self, demo, monkeypatch):
        config = load_config(demo)
        sources = count_searches(monkeypatch)
        run(config)
        net = load_network(config.nodes, config.edges)
        core = conftest.oracle_two_core(net.adjacency)
        # one shared sweep, searching once from each position of the
        # 2-core and never from a node of a tree folded into it
        assert 0 < len(core) < net.node_count
        assert sorted(sources) == [k for k, v in enumerate(net.node_ids) if v in core]

    def test_static_orders_match_targeted_sequence(self, demo):
        bundle = run(load_config(demo))
        out = bundle.out_dir
        net = load_network(out / "network_nodes.csv", out / "network_edges.csv")
        with (out / "sequences.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for kind in CENTRALITY_KINDS:
            order = tuple(int(r["node_id"]) for r in rows if r["scenario"] == f"targeted_{kind}")
            assert order == targeted_sequence(net, kind, "static").order

    def test_full_static_run_ranks_each_order_once(self, demo, monkeypatch):
        # the centrality and climate stages hand simulate finished orders
        calls = {"hot_day_sequence": [], "targeted_sequence": []}
        for name, seen in calls.items():
            fn = getattr(pipeline, name)

            def counted(*args, _fn=fn, _seen=seen):
                _seen.append(args)
                return _fn(*args)

            monkeypatch.setattr(pipeline, name, counted)
        bundle = run(load_config(demo))
        assert [args[2] for args in calls["hot_day_sequence"]] == ["mA", "mB"]
        assert calls["targeted_sequence"] == []
        with (bundle.out_dir / "sequences.csv").open(newline="") as fh:
            models = [r["model"] for r in csv.DictReader(fh) if r["scenario"] == "hot_days"]
        assert sorted(set(models)) == ["mA", "mB"]

    def test_simulate_alone_scores_only_what_it_needs(self, demo, monkeypatch):
        config = replace(load_config(demo), scenarios=("random", "targeted_degree"))
        sources = count_searches(monkeypatch)
        run(config, stages=("ingest", "simulate"))
        assert sources == []


    def test_adaptive_search_counts(self, monkeypatch):
        # adaptive closeness grows balls instead of searching; adaptive
        # betweenness searches once from every survivor in the survivors'
        # 2-core before each removal
        net = rail_density_net()
        sources = count_searches(monkeypatch)
        targeted_sequence(net, "closeness", "adaptive")
        assert sources == []
        order = targeted_sequence(net, "betweenness", "adaptive").order
        alive, expected = set(net.node_ids), 0
        for victim in order:
            survivors = {v: [w for w in net.adjacency[v] if w in alive] for v in alive}
            expected += len(conftest.oracle_two_core(survivors))
            alive.remove(victim)
        assert 0 < len(sources) == expected < sum(range(1, net.node_count + 1))


class TestAdaptiveRun:
    # sha256 of a 40-node adaptive run with every targeted scenario,
    # recorded from the code that rebuilt the surviving network through
    # remove_nodes after every removal and ranked by Fractions
    RECORDED = {
        "sequences.csv": "a46cf373e88bda052118fa45aa4d8142ce7626598096800cc1f4d8617e287519",
        "curves.csv": "080d98a39f77ee0add72f33b05ee608dddce5178348eb2a3aa2089e1ad0c984a",
        "centrality_scores.csv": "38cc0ec1abf400688a7dd8f9becacf5ef8056f8d52055385c806b7eeb3207579",
        "ranking_degree.csv": "a3ad80802f5088c6198a13a08eb041803a327b70f2a3ae661f1c24908dc2d5a1",
        "ranking_closeness.csv": "3fcc9cc68122ce07ad8a210e2fc47f5a1938e23e7d9fceb2f86383d7a0388a00",
        "ranking_betweenness.csv": (
            "6fbbd4e00339fb53dd57a36f25259ce86db60e2fabb75f77f97715802fe82c90"
        ),
    }

    def test_outputs_match_recorded_bytes(self, tmp_path):
        data = tmp_path / "data"
        generate_synthetic(SynthSpec(n_nodes=40, avg_degree=3.0, seed=5, models=()), data)
        config = {
            "nodes": "data/nodes.csv",
            "edges": "data/edges.csv",
            "out_dir": "out",
            "seeds": 1,
            "ranking": "adaptive",
            "scenarios": ["targeted_degree", "targeted_closeness", "targeted_betweenness"],
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        bundle = run(load_config(tmp_path / "config.json"))
        digests = {
            name: hashlib.sha256((bundle.out_dir / name).read_bytes()).hexdigest()
            for name in self.RECORDED
        }
        assert digests == self.RECORDED

def write_loader_inputs(root):
    """One small valid input file for every CSV loader, plus a config."""
    generate_synthetic(
        SynthSpec(n_nodes=6, avg_degree=2.0, seed=3, models=("mA",),
                  start_year=1995, end_year=1996),
        root,
    )
    (root / "grid.csv").write_text(
        "model,lat,lon,date,tmax_c\nmA,40.0,-90.0,1995-01-01,31.5\n"
        "mA,40.0,-90.0,1995-01-02,29.0\n"
    )
    write_demo_profiles(root / "profiles.csv", n=6)
    net = load_network(root / "nodes.csv", root / "edges.csv")
    write_curves_csv([replay(net, targeted_sequence(net, "degree"))], root / "curves.csv")
    config = {"nodes": "nodes.csv", "edges": "edges.csv", "out_dir": "out", "seeds": 2}
    (root / "config.json").write_text(json.dumps(config))
    return root


# the grid loader maps one node, at the cell of write_loader_inputs' grid.csv
GRID_NODES = [make_node(1, lat=40.0, lon=-90.0)]

# every input loader, with the files it reads
LOADERS = {
    "network": (("nodes.csv", "edges.csv"), load_network),
    "series": (("tmax_mA.csv",), lambda path: count_series_csv([path], ALL_PERIODS.values())),
    "grid": (
        ("grid.csv",),
        lambda path: count_gridded_series_csv([path], GRID_NODES, ALL_PERIODS.values()),
    ),
    "profiles": (("profiles.csv",), lambda path: read_profiles_csv(path, ALL_PERIODS)),
    "curves": (("curves.csv",), read_curves_csv),
}


@pytest.fixture
def inputs(tmp_path):
    return write_loader_inputs(tmp_path)


class TestBomHeaders:
    """CSV inputs saved with a UTF-8 byte-order mark (as Excel writes
    them) load exactly like the same files without one."""

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_bom_prefixed_file_loads(self, inputs, loader):
        names, load = LOADERS[loader]
        paths = [inputs / name for name in names]
        plain = load(*paths)
        for path in paths:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load(*paths) == plain


@pytest.fixture(scope="module")
def shared_inputs(tmp_path_factory):
    return write_loader_inputs(tmp_path_factory.mktemp("inputs"))


# the CSV loaders and the config loader, each with every file it reads
INPUT_LOADERS = {**LOADERS, "config": (("config.json",), load_config)}
INPUT_FILES = [
    (loader, name) for loader, (names, _) in sorted(INPUT_LOADERS.items()) for name in names
]

CSV_LIKE_BYTES = st.text(alphabet='0123456789-+.,:"\n\r eEinfaT\ufeff', max_size=300).map(
    str.encode
)


class TestMalformedInputs:
    """Malformed input files end in DataError (exit 3) naming the file
    and line, or ConfigError (exit 2) for the config: never exit 4."""

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_undecodable_byte_names_its_line(self, inputs, loader):
        names, load = LOADERS[loader]
        paths = [inputs / name for name in names]
        for path in paths:
            good = path.read_bytes()
            # far beyond the text layer's read-ahead, so the csv reader
            # is on another line when the decoder meets the bad byte
            path.write_bytes(good + b"\n" * 10_000 + b"caf\xff\n")
            line = good.count(b"\n") + 10_001
            with pytest.raises(DataError, match=rf"{re.escape(str(path))}:{line}: not valid UTF-8"):
                load(*paths)
            path.write_bytes(good)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_oversized_field_names_its_line(self, inputs, loader):
        names, load = LOADERS[loader]
        paths = [inputs / name for name in names]
        for path in paths:
            good = path.read_bytes()
            path.write_bytes(good + b"x" * 200_000 + b"\n")
            line = good.count(b"\n") + 1
            with pytest.raises(DataError, match=rf"{re.escape(str(path))}:{line}: field larger"):
                load(*paths)
            path.write_bytes(good)

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize("width", ["long", "short"])
    def test_row_of_wrong_width_names_its_line(self, inputs, loader, width):
        """A row with a cell too many or too few is rejected, never read
        as a valid row without its extra cell."""
        names, load = LOADERS[loader]
        paths = [inputs / name for name in names]
        for path in paths:
            good = path.read_text()
            header, first, *rest = good.splitlines()
            cells = first.split(",")
            cells = cells + ["JUNK"] if width == "long" else cells[:-1]
            path.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
            expected = f"expected {len(header.split(','))} fields, got {len(cells)}"
            with pytest.raises(DataError, match=rf"{re.escape(str(path))}:2: {expected}"):
                load(*paths)
            path.write_text(good)

    @pytest.mark.parametrize("loader, name", INPUT_FILES)
    @settings(max_examples=200, deadline=None)
    @given(
        prefix=st.sampled_from(["", "header", "file"]),
        body=st.one_of(st.binary(max_size=300), CSV_LIKE_BYTES),
    )
    def test_arbitrary_bytes_raise_only_input_errors(
        self, shared_inputs, loader, name, prefix, body
    ):
        names, load = INPUT_LOADERS[loader]
        paths = [shared_inputs / n for n in names]
        good = (shared_inputs / name).read_bytes()
        head = {"": b"", "header": good.split(b"\n")[0] + b"\n", "file": good}[prefix]
        fuzzed = shared_inputs / f"fuzzed-{name}"
        fuzzed.unlink(missing_ok=True)  # rewriting in place can flush to disk each time
        fuzzed.write_bytes(head + body)
        paths[names.index(name)] = fuzzed
        try:
            load(*paths)
        except (DataError, ConfigError):
            pass


# module -> the only package files that may import it: every CSV table
# goes through one dialect module, exact rationals stay in the one kernel
# that needs them (replay and the per-step paths use plain ints), and only
# the one fork pool, tables.fork_map, starts worker processes
IMPORT_OWNERS = {
    "csv": ["tables.py"],
    "fractions": ["centrality.py"],
    "multiprocessing": ["tables.py"],
    "concurrent": ["tables.py"],
}

# name -> the only top-level definitions that may name it: tables
# splits tables and reads their ranges for the pool in one place,
# map_ranges, and the replay, metrics.replay_to_csv, is the one other user
# of fork_map and alone knows its row cutoff and task size, so that
# curves.csv has one writer whether pooled or not (no _replay_in_workers,
# no write_curve_blocks); how to cut tables is decided in tables alone,
# with no size hook (pool_size) for callers
NAME_OWNERS = {
    "split_table": {"tables.py:map_ranges"},
    "read_range": {"tables.py:_read_in_range"},
    "fork_map": {"metrics.py:replay_to_csv", "tables.py:map_ranges"},
    "sched_getaffinity": {"tables.py:fork_map"},
    "_SERIAL_BELOW_BYTES": {"tables.py:<module>", "tables.py:map_ranges"},
    "_RANGES_PER_WORKER": {"tables.py:<module>", "tables.py:map_ranges"},
    "_REPLAY_SERIAL_BELOW_ROWS": {"metrics.py:<module>", "metrics.py:replay_to_csv"},
    "_TASK_ROWS": {"metrics.py:<module>", "metrics.py:replay_to_csv"},
    "pool_size": set(),
    "_replay_in_workers": set(),
    "write_curve_blocks": set(),
}


def test_only_owners_import_guarded_modules():
    importers: dict[str, list[str]] = {module: [] for module in IMPORT_OWNERS}
    users: dict[str, set[str]] = {name: set() for name in NAME_OWNERS}
    for path in sorted(Path(freight_resilience.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for top in {m.split(".")[0] for m in modules} & importers.keys():
                importers[top].append(path.name)
        for scope in tree.body:  # calls, and the functions passed as values
            for node in ast.walk(scope):
                name = getattr(node, "id", getattr(node, "attr", None))  # Name, Attribute
                if name in users:
                    users[name].add(f"{path.name}:{getattr(scope, 'name', '<module>')}")
    assert importers == IMPORT_OWNERS
    assert users == NAME_OWNERS


def test_star_import_gives_every_name_in_all():
    # a stale __all__ entry breaks only a star import, and a missing one
    # hides a public name from it
    namespace: dict = {}
    exec("from freight_resilience import *", namespace)
    assert set(freight_resilience.__all__) <= namespace.keys()
    public = {
        name
        for name, value in vars(freight_resilience).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(freight_resilience.__all__)


class TestReportFromCurves:
    def test_rebuild_from_curves(self, demo, tmp_path):
        bundle = run(load_config(demo))
        report_dir = tmp_path / "report"
        report = report_from_curves(bundle.out_dir / "curves.csv", report_dir)
        assert "collapse.csv" in report.files
        assert "robustness.svg" in report.files
        assert "tonnage.svg" in report.files
        # identical collapse numbers to the original run
        assert (report.out_dir / "collapse.csv").read_bytes() == (
            bundle.out_dir / "collapse.csv"
        ).read_bytes()
        # every table too, on a run with hot-day nodes beyond the criterion
        # (the plots differ: curves.csv does not carry the flag)
        assert ",true\n" in (bundle.out_dir / "sequences.csv").read_text()
        tables = [name for name in report.files if name.endswith(".csv")]
        assert len(tables) == 6
        for name in tables:
            assert (report.out_dir / name).read_bytes() == (bundle.out_dir / name).read_bytes()

    def test_deterministic(self, demo, tmp_path):
        bundle = run(load_config(demo))
        a = report_from_curves(bundle.out_dir / "curves.csv", tmp_path / "r1")
        b = report_from_curves(bundle.out_dir / "curves.csv", tmp_path / "r2")
        for rel in a.files:
            assert (a.out_dir / rel).read_bytes() == (b.out_dir / rel).read_bytes()

    def test_threshold_bounds(self, demo, tmp_path):
        bundle = run(load_config(demo))
        with pytest.raises(ConfigError, match=r"in \(0, 1\)"):
            report_from_curves(bundle.out_dir / "curves.csv", tmp_path / "r", threshold=0.0)

    def test_mismatched_shapes_rejected(self, tmp_path):
        curves = write_mismatched_curves(tmp_path / "curves.csv")
        shapes = r"curves\.csv: scenario 'random': .*\(2 nodes, 2 steps vs 2 nodes, 1 steps\)"
        with pytest.raises(DataError, match=shapes):
            report_from_curves(curves, tmp_path / "r")
        assert not (tmp_path / "r").exists()

    # sha256 of the curve outputs of a 30-node run (the run's plots stop
    # the hot-day curves early) and of every file that report_from_curves
    # rebuilds from its curves.csv, recorded from the code that built and
    # validated one object per curve step; sequences.csv (random seeds,
    # hot-day rows beyond the criterion) was recorded from the writer that
    # passed every cell through csv.writer
    RECORDED = {
        "out/curves.csv": "96174cda4221f4f4e193ea00bce07da3d8dfa52b7ecacd6a32744019d6119032",
        "out/sequences.csv": "eb803c8437564fcc6dc8d822a6fd7476aff16e2c7a6b9b1f11402d4a9631dc70",
        "out/robustness.svg": "b02a2ef2ed2dd5d861ffaf3b02758be8cc9c44099b3dd586a1db8923d3800671",
        "out/tonnage.svg": "c2db5a7d8c19e26009cae584ec0ee48450edeb2fd02e660198ee88f8c042939c",
        "report/collapse.csv": "ac1a867f908d00cf2f2526e88ca57f280c9bccba2ab0b98eb67cefd8d2b83668",
        "report/ensemble_scf_random.csv": (
            "f33cdff8d207b72c709191586f3f88eb4457a67f2755cce2a432acee4ae8af13"
        ),
        "report/ensemble_tonnage_fraction_random.csv": (
            "9e37a5c513d8d787ba51c89ab5775636d9b8978b6ba8d57eb73d6af4b45f1e47"
        ),
        "report/ensemble_scf_hot_days.csv": (
            "3619311cd1fcc80b75bbd4f49044996c86b12a6beeeb1a084a3a55a2f61c42dd"
        ),
        "report/ensemble_tonnage_fraction_hot_days.csv": (
            "9a95e550e80ab38042d17ff3b9706c2090ca4529b700383d48d1fecec2449741"
        ),
        "report/collapse_ensemble.csv": (
            "dba3a81a95dfd190f79e054dc484eb1c6c8c679a424011c1dd9cebf2f628dc66"
        ),
        "report/robustness.svg": "15c28dfa0d58dc319a3efd14029df6d244ebd3342fc97f0b63f5e0b4f14d85ce",
        "report/tonnage.svg": "78154a3e2ec483221ba531fcbdc30aba94bb56e119835b57d04307fe32bbb3b0",
    }

    def test_outputs_match_recorded_bytes(self, tmp_path):
        data = tmp_path / "data"
        generate_synthetic(SynthSpec(n_nodes=30, avg_degree=3.0, seed=7, models=()), data)
        write_demo_profiles(data / "profiles.csv", n=30)
        config = {
            "nodes": "data/nodes.csv",
            "edges": "data/edges.csv",
            "out_dir": "out",
            "seeds": 4,
            "climate": {"profiles": "data/profiles.csv"},
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        bundle = run(load_config(tmp_path / "config.json"))
        report = report_from_curves(bundle.out_dir / "curves.csv", tmp_path / "report")
        outputs = ("curves.csv", "sequences.csv", "robustness.svg", "tonnage.svg")
        files = [bundle.out_dir / name for name in outputs]
        files += [report.out_dir / rel for rel in report.files]
        digests = {
            f"{path.parent.name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for path in files
        }
        assert digests == self.RECORDED

    def test_empty_curves_rejected(self, tmp_path):
        empty = tmp_path / "curves.csv"
        empty.write_text(
            "scenario,model,seed,step,node_id,fraction_removed,ff,scf,"
            "tonnage_fraction,tonnage_fraction_gcc\n"
        )
        with pytest.raises(DataError, match="no curves"):
            report_from_curves(empty, tmp_path / "r")


    def test_collapse_csv_layout(self, tmp_path):
        # a random cell has no model, and a cell that never collapses has
        # no fraction: both are written as empty cells
        random_curve = RobustnessCurve(
            "random", None, 0, 20, 20, tuple(range(1, 12)),
            tuple(20 - j for j in range(11)) + (2,), (1.0,) * 12, (1.0,) * 12,
        )
        partial = RobustnessCurve(
            "hot_days", "mA", None, 20, 20, (1,), (20, 19), (1.0,) * 2, (1.0,) * 2
        )
        write_curves_csv([random_curve, partial], tmp_path / "curves.csv")
        report = report_from_curves(tmp_path / "curves.csv", tmp_path / "r", threshold=0.1)
        assert (report.out_dir / "collapse.csv").read_text().splitlines() == [
            "scenario,model,threshold,collapse_fraction",
            "random,,0.1,0.55",
            "hot_days,mA,0.1,",
        ]


# scf and tonnage values where the plain mean of equal cells exceeds their
# max: fsum([0.1] * 3) / 3 is 0.10000000000000002
CELLS = st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 0.7, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def scenario_curves(draw, scenario: str, max_curves: int) -> list[RobustnessCurve]:
    """Same-shape curves of one scenario: random seeds, one targeted curve,
    or hot-day models; k < n_nodes gives partial curves."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(0, n))
    curves = []
    for i in range(draw(st.integers(1, max_curves))):
        tf = draw(st.integers(1, n))
        ff = [tf]
        for j in range(1, k + 1):
            ff.append(draw(st.integers(0, min(ff[-1], n - j))))
        ton = sorted(draw(st.lists(CELLS, min_size=k + 1, max_size=k + 1)), reverse=True)
        gcc = draw(st.lists(CELLS, min_size=k + 1, max_size=k + 1))
        order = draw(st.permutations(range(1, n + 1)))[:k]
        model = f"m{i}" if scenario == "hot_days" else None
        seed = i if scenario == "random" else None
        curves.append(RobustnessCurve(scenario, model, seed, n, tf, tuple(order), tuple(ff),
                                      tuple(ton), tuple(gcc)))
    return curves


@st.composite
def report_inputs(draw):
    """Curves by scenario in a drawn scenario order, a threshold, the
    hot-day sequences whose criterion cuts their plots short, and a map."""
    order = draw(st.lists(st.sampled_from(SCENARIOS), min_size=1, unique=True))
    by_scenario = {
        s: draw(scenario_curves(s, 1 if s.startswith("targeted") else 4)) for s in order
    }
    sequences = [
        RemovalSequence("hot_days", c.order, model=c.model,
                        beyond_criterion=frozenset(c.order[draw(st.integers(0, len(c.order))):]))
        for c in by_scenario.get("hot_days", ())
    ]
    threshold = draw(st.sampled_from([0.1, 0.25, 0.5]) | st.floats(0.01, 0.99))
    points = draw(st.lists(st.tuples(*[st.floats(-5.0, 5.0)] * 3), max_size=3))
    return by_scenario, order, threshold, sequences, points


def clamped_inputs():
    """Three random curves that all collapse after one removal (fraction
    0.1) at scf and tonnage 0.1, a lone targeted curve whose tonnage ends
    at -0.0, and two hot-day models whose plots stop after one step."""
    def curve(scenario, model, seed, ff, ton):
        return RobustnessCurve(scenario, model, seed, 10, 10, (1, 2, 3), ff, ton, ton)

    by_scenario = {
        "random": [curve("random", None, s, (10, 1, 1, 0), (1.0, 0.1, 0.1, 0.0)) for s in range(3)],
        "targeted_degree": [
            curve("targeted_degree", None, None, (10, 9, 8, 7), (1.0, 0.5, 0.0, -0.0))
        ],
        "hot_days": [curve("hot_days", m, None, (10, 9, 5, 1), (1.0, 0.9, 0.5, 0.1)) for m in "AB"],
    }
    sequences = [
        RemovalSequence("hot_days", c.order, model=c.model, beyond_criterion=frozenset({2, 3}))
        for c in by_scenario["hot_days"]
    ]
    return by_scenario, list(by_scenario), 0.1, sequences, []


class TestSinglePassReport:
    @settings(max_examples=60, deadline=None)
    @given(report_inputs(), st.sampled_from([None, "rail"]))
    @example(clamped_inputs(), None)
    def test_same_bytes_as_three_pass_oracle(self, inputs, mode):
        by_scenario, order, threshold, sequences, points = inputs
        extra = dict(mode=mode, sequences=sequences, map_points=points)
        with (
            tempfile.TemporaryDirectory() as tmp,
            mock.patch.object(pipeline, "line_chart", wraps=pipeline.line_chart) as new_chart,
            mock.patch.object(conftest, "line_chart", wraps=conftest.line_chart) as old_chart,
        ):
            new, old = Path(tmp, "new"), Path(tmp, "old")
            new.mkdir()
            old.mkdir()
            rec = _Recorder(new)
            emit_report(by_scenario, order, threshold, rec, **extra)
            names = oracle_emit_report(by_scenario, order, threshold, old, **extra)
            assert rec.relpaths == names
            for name in names:
                assert (new / name).read_bytes() == (old / name).read_bytes(), name
        # SVG coordinates keep two decimals, so compare the plotted values too
        assert new_chart.call_args_list == old_chart.call_args_list

    def test_collapse_point_once_per_curve(self, demo, tmp_path, monkeypatch):
        bundle = run(load_config(demo))
        n_curves = len(read_curves_csv(bundle.out_dir / "curves.csv"))
        calls = []
        collapse_point = metrics.collapse_point

        def spy(curve, threshold):
            calls.append(curve)
            return collapse_point(curve, threshold)

        monkeypatch.setattr(metrics, "collapse_point", spy)
        report_from_curves(bundle.out_dir / "curves.csv", tmp_path / "r")
        assert len(calls) == n_curves
        assert len({id(c) for c in calls}) == n_curves

    def test_plot_line_is_the_unclamped_mean(self, tmp_path):
        # three curves at scf and tonnage 0.1 after two removals: the plain
        # mean rounds above the max, so summarize clamps its mean and the
        # plots do not
        curves = [
            RobustnessCurve("random", None, s, 10, 10, (1, 2, 3), (10, 9, 1, 0),
                            (1.0, 0.5, 0.1, 0.0), (1.0, 0.5, 0.1, 0.0))
            for s in range(3)
        ]
        plain = math.fsum([0.1] * 3) / 3
        assert plain != summarize([0.1] * 3).mean
        ens = aggregate_curves(curves)
        assert ens.scf_mean[2] == ens.tonnage_fraction_mean[2] == plain
        with mock.patch.object(pipeline, "line_chart", wraps=pipeline.line_chart) as chart:
            emit_report({"random": curves}, ["random"], 0.1, _Recorder(tmp_path))
        assert chart.call_count == 2  # robustness.svg and tonnage.svg
        for call in chart.call_args_list:
            ((line,),), (band,) = call.args, call.kwargs["bands"]
            assert line.points[2] == (0.2, plain)
            assert band.lo[2] == band.hi[2] == (0.2, 0.1)


GRID_LATS = (25.0, 37.0, 49.0)
GRID_LONS = (-124.0, -95.5, -67.0)


def write_grid_series(directory: Path, models=("mA", "mB"), years=(1995, 2003)) -> list[str]:
    """Daily tmax for each model on a 3 x 3 grid spanning the synthetic
    networks' bounding box. Each cell's days come in a scrambled order,
    the first half of them in one file and the rest in another."""
    first = date(years[0], 1, 1)
    n_days = (date(years[1] + 1, 1, 1) - first).days
    order = [(k * 7919) % n_days for k in range(n_days)]  # a permutation: 7919 is prime
    halves: list[list[str]] = [["model,lat,lon,date,tmax_c\n"], ["model,lat,lon,date,tmax_c\n"]]
    for m, model in enumerate(models):
        for lat in GRID_LATS:
            for lon in GRID_LONS:
                for j, k in enumerate(order):
                    season = 8.0 * math.sin(2.0 * math.pi * (k - 100) / 365.25)
                    noise = ((k * 2654435761 + int(lat * lon)) % 1000) / 250.0
                    value = 22.0 + 0.2 * (49.0 - lat) + season + m + noise
                    day = (first + timedelta(days=k)).isoformat()
                    halves[2 * j >= n_days].append(f"{model},{lat},{lon},{day},{value:.2f}\n")
    names = []
    for i, lines in enumerate(halves):
        names.append(f"grid_{i}.csv")
        (directory / names[-1]).write_text("".join(lines))
    return names


class TestClimateSourcesThroughRun:
    def seed_config(self, tmp_path, climate: dict, n=6) -> Path:
        data = tmp_path / "data"
        generate_synthetic(
            SynthSpec(
                n_nodes=n,
                avg_degree=2.0,
                seed=3,
                models=("mA", "mB"),
                start_year=1995,
                end_year=2023,
                trend_c_per_year=0.3,
            ),
            data,
        )
        config = {
            "nodes": "data/nodes.csv",
            "edges": "data/edges.csv",
            "out_dir": "out",
            "seeds": 2,
            "climate": climate,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_daily_series_source(self, tmp_path):
        climate = {
            "series": ["data/tmax_mA.csv", "data/tmax_mB.csv"],
            "threshold_c": 28.0,
            "baseline": {"label": "early", "start_year": 1995, "end_year": 2004},
            "futures": [{"label": "late", "start_year": 2014, "end_year": 2023}],
        }
        config = load_config(self.seed_config(tmp_path, climate))
        bundle = run(config)
        profile_lines = (bundle.out_dir / "hotday_profiles.csv").read_text().splitlines()
        assert profile_lines[0] == "model,period_label,node_id,hot_days,threshold_c"
        # both models, both periods, all six nodes
        assert len(profile_lines) == 1 + 2 * 2 * 6

    # sha256 of hotday_profiles.csv and hotday_deltas.csv, recorded from the
    # reader that held every row and sorted each series before counting
    RECORDED = {
        "series": (
            "c42997d26df01f7395e537decf0a612140ca740020cc2539ee9902a504196cda",
            "c82c1393d195c4302694c076620bee3623725863ff7597f743e296f121b22de8",
        ),
        "grid": (
            "a03be626a1a56d6514abbd7f20fe7fcdef6feb610ef1d173a37031abbacf6a1e",
            "003e2418fdeb3e3e1db3e30746f8aa02d56ce4a7e5a09f908622c111b122a309",
        ),
    }

    @pytest.mark.parametrize("form", sorted(RECORDED))
    def test_outputs_match_recorded_bytes(self, tmp_path, form):
        assert self.digests(self.config(tmp_path, form)) == self.RECORDED[form]

    @pytest.mark.parametrize("form", sorted(RECORDED))
    def test_recorded_bytes_hold_when_counted_in_workers(self, tmp_path, form):
        # each file of about 1.4 MB (series) or 0.9 MB (grid) is cut into
        # ranges of at most about 64 KB
        config = self.config(tmp_path, form)
        paths = config.climate.series + config.climate.grid_series
        with counted_in_ranges(paths, 1 << 16) as returns:
            assert self.digests(config) == self.RECORDED[form]
        assert len(returns) == 1 and returns[0] is not None
        assert multiprocessing.active_children() == []

    def config(self, tmp_path, form) -> RunConfig:
        periods = {
            "baseline": {"label": "b", "start_year": 1995, "end_year": 1997},
            "futures": [
                {"label": "f1", "start_year": 1998, "end_year": 2000},
                {"label": "f2", "start_year": 1999, "end_year": 2003},
            ],
        }
        if form == "series":
            climate = {"series": ["data/tmax_mA.csv", "data/tmax_mB.csv"], "threshold_c": 28.0}
        else:
            (tmp_path / "data").mkdir()
            names = write_grid_series(tmp_path / "data")
            climate = {"grid_series": [f"data/{n}" for n in names], "threshold_c": 30.0}
        return load_config(self.seed_config(tmp_path, {**climate, **periods}))

    @staticmethod
    def digests(config) -> tuple[str, str]:
        bundle = run(config)
        return tuple(
            hashlib.sha256((bundle.out_dir / name).read_bytes()).hexdigest()
            for name in ("hotday_profiles.csv", "hotday_deltas.csv")
        )

    def test_model_filter(self, tmp_path):
        climate = {
            "series": ["data/tmax_mA.csv", "data/tmax_mB.csv"],
            "models": ["mA"],
            "threshold_c": 28.0,
            "baseline": {"label": "early", "start_year": 1995, "end_year": 2004},
            "futures": [{"label": "late", "start_year": 2014, "end_year": 2023}],
        }
        bundle = run(load_config(self.seed_config(tmp_path, climate)))
        deltas = (bundle.out_dir / "hotday_deltas.csv").read_text()
        assert "mA" in deltas and "mB" not in deltas

    def test_missing_model_rejected(self, tmp_path):
        climate = {
            "series": ["data/tmax_mA.csv"],
            "models": ["mA", "mZ"],
            "baseline": {"label": "early", "start_year": 1995, "end_year": 2004},
            "futures": [{"label": "late", "start_year": 2014, "end_year": 2023}],
        }
        config = load_config(self.seed_config(tmp_path, climate))
        with pytest.raises(PipelineError, match="mZ"):
            run(config)

    def test_model_missing_from_profiles_rejected(self, tmp_path):
        config = self.seed_config(tmp_path, {"profiles": "data/profiles.csv", "models": ["mZ", "mA"]})
        write_demo_profiles(tmp_path / "data" / "profiles.csv", n=6)
        message = r"no profiles for model\(s\) \['mZ'\] at threshold 35\.0"
        with pytest.raises(PipelineError, match=message) as excinfo:
            run(load_config(config))
        assert exit_code_for(excinfo.value) == 3

    @pytest.mark.parametrize("form", ["profiles", "series"])
    def test_listed_model_order_is_ignored(self, tmp_path, form):
        """Both input forms take their models in sorted order, so listing
        them in another order writes the same bytes."""
        if form == "profiles":
            climate = {"profiles": "data/profiles.csv"}
        else:
            climate = {
                "series": ["data/tmax_mA.csv", "data/tmax_mB.csv"],
                "threshold_c": 28.0,
                "baseline": {"label": "early", "start_year": 1995, "end_year": 2004},
                "futures": [{"label": "late", "start_year": 2014, "end_year": 2023}],
            }
        outputs = []
        for models in (["mB", "mA"], ["mA", "mB"]):
            root = tmp_path / "".join(models)
            config = self.seed_config(root, {**climate, "models": models})
            write_demo_profiles(root / "data" / "profiles.csv", n=6)
            bundle = run(load_config(config))
            outputs.append({rel: (bundle.out_dir / rel).read_bytes() for rel in bundle.files})
        assert "hotday_profiles.csv" in outputs[0] and "curves.csv" in outputs[0]
        assert outputs[0] == outputs[1]
