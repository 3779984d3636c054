import json
from pathlib import Path

import pytest

from freight_resilience.cli import _build_parser, main
from freight_resilience.metrics import DEFAULT_COLLAPSE_THRESHOLD
from freight_resilience.pipeline import MANIFEST_NAME

from test_pipeline import write_demo_profiles, write_mismatched_curves
from freight_resilience.synth import SynthSpec, generate_synthetic


@pytest.fixture
def demo(tmp_path):
    data = tmp_path / "data"
    generate_synthetic(SynthSpec(n_nodes=10, avg_degree=3.0, seed=1, models=()), data)
    write_demo_profiles(data / "profiles.csv")
    config = {
        "nodes": "data/nodes.csv",
        "edges": "data/edges.csv",
        "out_dir": "out",
        "seeds": 2,
        "climate": {"profiles": "data/profiles.csv"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestExitCodes:
    def test_successful_run(self, demo, capsys):
        assert main(["run", "--config", str(demo)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "file(s) to" in out
        assert "manifest sha256 " in out

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "none.json")])
        assert code == 2
        assert "error: config file not found" in capsys.readouterr().err

    def test_bad_config_field(self, demo, capsys):
        doc = json.loads(demo.read_text())
        doc["seeds"] = -1
        demo.write_text(json.dumps(doc))
        assert main(["run", "--config", str(demo)]) == 2
        assert "error: seeds" in capsys.readouterr().err

    def test_malformed_data_is_data_error(self, demo, capsys):
        nodes = demo.parent / "data" / "nodes.csv"
        lines = nodes.read_text().splitlines()
        lines[2] = lines[2].replace(",rail,", ",hovercraft,")
        nodes.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(demo)]) == 3
        err = capsys.readouterr().err
        assert "error:" in err and "nodes.csv:3" in err

    def test_undecodable_data_is_data_error(self, demo, capsys):
        nodes = demo.parent / "data" / "nodes.csv"
        nodes.write_bytes(nodes.read_bytes().replace(b"rail", b"r\xffil", 1))
        assert main(["run", "--config", str(demo)]) == 3
        assert "nodes.csv:2: not valid UTF-8" in capsys.readouterr().err

    def test_undecodable_config_is_config_error(self, demo, capsys):
        demo.write_bytes(b"\xff" + demo.read_bytes())
        assert main(["run", "--config", str(demo)]) == 2
        assert "error: config: invalid JSON" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "freight-resilience" in capsys.readouterr().out

    def test_usage_error_exits_two(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        assert main(["run"]) == 2  # --config is required

    def test_bad_flag_value_exits_two(self, demo):
        assert main(["run", "--config", str(demo), "--scenario", "meteor"]) == 2

    @pytest.mark.parametrize("start, end", [(2000, 9999), (0, 2000)])
    def test_period_year_beyond_the_calendar_exits_two(self, demo, capsys, start, end):
        doc = json.loads(demo.read_text())
        doc["climate"]["baseline"] = {"label": "b", "start_year": start, "end_year": end}
        demo.write_text(json.dumps(doc))
        assert main(["run", "--config", str(demo)]) == 2
        assert r"error: climate.baseline: period 'b': need 1 <= start_year <= end_year <= 9998" in (
            capsys.readouterr().err
        )


# series keys for the demo network's ten nodes, or for the four corner
# cells of a grid around them
SERIES_FORMS = {
    "series": ("model,node_id,date,tmax_c", [f"m,{i}" for i in range(1, 11)]),
    "grid": (
        "model,lat,lon,date,tmax_c",
        [f"m,{lat},{lon}" for lat in (25.0, 49.0) for lon in (-124.0, -67.0)],
    ),
}


def use_daily_series(config: Path, form: str, fault: str | None = None) -> None:
    """Point the config at two days of rows for every key of ``form``;
    ``fault`` (date and tmax for the first key) becomes line 4."""
    header, keys = SERIES_FORMS[form]
    rows = [f"{key},2000-01-0{d},36.0" for d in (1, 2) for key in keys]
    if fault is not None:
        rows.insert(2, f"{keys[0]},{fault}")
    (config.parent / "data" / "tmax.csv").write_text("\n".join([header, *rows]) + "\n")
    doc = json.loads(config.read_text())
    doc["climate"] = {
        "series" if form == "series" else "grid_series": ["data/tmax.csv"],
        "baseline": {"label": "b", "start_year": 2000, "end_year": 2000},
        "futures": [{"label": "f", "start_year": 2001, "end_year": 2001}],
    }
    config.write_text(json.dumps(doc))


@pytest.mark.parametrize("form", sorted(SERIES_FORMS))
class TestMalformedSeriesValues:
    def test_well_formed_rows_run(self, demo, form):
        use_daily_series(demo, form)
        assert main(["run", "--config", str(demo)]) == 0

    @pytest.mark.parametrize(
        "fault, message",
        [("2000-01-01,31.0", "date 2000-01-01 repeated"), ("2000-01-02,nan", "tmax nan is not finite")],
    )
    def test_exit_three_at_the_row(self, demo, capsys, form, fault, message):
        use_daily_series(demo, form, fault)
        assert main(["run", "--config", str(demo)]) == 3
        assert f"tmax.csv:4: {message}" in capsys.readouterr().err


class TestFlags:
    def test_scenario_subset(self, demo, capsys):
        assert (
            main(["run", "--config", str(demo), "--scenario", "random", "--out",
                  str(demo.parent / "sub")])
            == 0
        )
        curves = (demo.parent / "sub" / "curves.csv").read_text()
        rows = curves.splitlines()[1:]
        assert rows and all(row.startswith("random,") for row in rows)

    def test_out_flag_redirects(self, demo, tmp_path):
        target = tmp_path / "elsewhere"
        assert main(["run", "--config", str(demo), "--out", str(target)]) == 0
        assert (target / MANIFEST_NAME).is_file()
        assert not (demo.parent / "out").exists()

    def test_scf_collapse_flag(self, demo, tmp_path):
        out = tmp_path / "o"
        assert (
            main(["run", "--config", str(demo), "--scf-collapse", "0.5", "--out", str(out)])
            == 0
        )
        lines = (out / "collapse.csv").read_text().splitlines()[1:]
        assert all(line.split(",")[2] == "0.5" for line in lines)

    def test_seeds_flag(self, demo, tmp_path):
        out = tmp_path / "o"
        assert (
            main(
                [
                    "run", "--config", str(demo), "--scenario", "random",
                    "--seeds", "4", "--out", str(out),
                ]
            )
            == 0
        )
        seq = (out / "sequences.csv").read_text().splitlines()[1:]
        seeds = {row.split(",")[4] for row in seq}
        assert seeds == {"0", "1", "2", "3"}

    def test_threshold_c_flag_changes_profiles(self, demo, tmp_path, capsys):
        # demo profiles are precomputed at 35.0; asking for 40.0 leaves
        # no usable rows, which the climate stage reports as missing data
        out = tmp_path / "o"
        code = main(
            ["run", "--config", str(demo), "--threshold-c", "40.0", "--out", str(out)]
        )
        assert code == 3
        assert "40.0" in capsys.readouterr().err

    def test_mode_filter_failure_is_data_error(self, demo, tmp_path, capsys):
        # the demo network is all rail, so filtering to water empties it
        out = tmp_path / "o"
        code = main(["run", "--config", str(demo), "--mode", "water", "--out", str(out)])
        assert code == 3
        assert "no nodes remain" in capsys.readouterr().err


class TestStagePrefixes:
    def test_ingest_only(self, demo, tmp_path):
        out = tmp_path / "o"
        assert main(["ingest", "--config", str(demo), "--out", str(out)]) == 0
        files = {p.name for p in out.iterdir()}
        assert files == {"network_nodes.csv", "network_edges.csv", MANIFEST_NAME}

    def test_centrality_prefix(self, demo, tmp_path):
        out = tmp_path / "o"
        assert main(["centrality", "--config", str(demo), "--out", str(out)]) == 0
        files = {p.name for p in out.iterdir()}
        assert "centrality_scores.csv" in files
        assert "ranking_betweenness.csv" in files
        assert "curves.csv" not in files

    def test_hotdays_prefix(self, demo, tmp_path):
        out = tmp_path / "o"
        assert main(["hotdays", "--config", str(demo), "--out", str(out)]) == 0
        files = {p.name for p in out.iterdir()}
        assert "hotday_deltas.csv" in files
        assert "hotday_ensemble.csv" in files
        assert "curves.csv" not in files

    def test_simulate_prefix(self, demo, tmp_path):
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(demo), "--out", str(out)]) == 0
        files = {p.name for p in out.iterdir()}
        assert "curves.csv" in files and "sequences.csv" in files
        assert "collapse.csv" not in files and "robustness.svg" not in files


def use_model_series(config: Path, nodes_by_model: dict[str, list[int]]) -> None:
    """Point the config at one hot day in 2000 for each model's nodes."""
    rows = [f"{m},{i},2000-01-01,36.0" for m, nodes in nodes_by_model.items() for i in nodes]
    text = "\n".join(["model,node_id,date,tmax_c", *rows]) + "\n"
    (config.parent / "data" / "tmax.csv").write_text(text)
    doc = json.loads(config.read_text())
    doc["climate"] = {
        "series": ["data/tmax.csv"],
        "baseline": {"label": "b", "start_year": 2000, "end_year": 2000},
        "futures": [{"label": "f", "start_year": 2001, "end_year": 2001}],
    }
    config.write_text(json.dumps(doc))


class TestClimateNodeSets:
    def test_models_covering_different_node_sets_exit_three(self, demo, capsys):
        # mA also has node 99, which is not in the network
        use_model_series(demo, {"mA": [*range(1, 11), 99], "mB": list(range(1, 11))})
        assert main(["run", "--config", str(demo)]) == 3
        assert (
            "model 'mB' covers a different node set than 'mA': first differing node id 99"
            in capsys.readouterr().err
        )

    def test_periods_covering_different_nodes_exit_three(self, tmp_path, capsys):
        # mA's 2021-2050 profile has a node 7 that its baseline lacks
        data = tmp_path / "data"
        generate_synthetic(SynthSpec(n_nodes=6, avg_degree=3.0, seed=1, models=()), data)
        rows = [f"mA,1991-2020,{i},10,35.0" for i in range(1, 7)]
        rows += [f"mA,2021-2050,{i},{10 + i},35.0" for i in range(1, 8)]
        header = "model,period_label,node_id,hot_days,threshold_c"
        (data / "profiles.csv").write_text("\n".join([header, *rows]) + "\n")
        config = {
            "nodes": "data/nodes.csv",
            "edges": "data/edges.csv",
            "out_dir": "out",
            "scenarios": ["random", "hot_days"],
            "climate": {"profiles": "data/profiles.csv"},
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["run", "--config", str(tmp_path / "config.json")]) == 3
        assert (
            "profiles.csv: model 'mA': 1991-2020 and 2021-2050 profiles cover different "
            "nodes, first differing node id 7" in capsys.readouterr().err
        )

    def test_same_extra_node_in_every_model_is_kept(self, demo):
        use_model_series(demo, {m: [*range(1, 11), 99] for m in ("mA", "mB")})
        assert main(["run", "--config", str(demo)]) == 0
        deltas = (demo.parent / "out" / "hotday_deltas.csv").read_text().splitlines()
        assert [line.split(",")[1] for line in deltas[1:]].count("99") == 2


class TestReportCommand:
    def test_report_from_run(self, demo, tmp_path, capsys):
        assert main(["run", "--config", str(demo)]) == 0
        curves = demo.parent / "out" / "curves.csv"
        report_dir = tmp_path / "report"
        assert main(["report", "--curves", str(curves), "--out", str(report_dir)]) == 0
        assert (report_dir / "robustness.svg").is_file()
        assert (report_dir / "collapse.csv").is_file()

    def test_scf_collapse_default_is_the_library_constant(self, capsys):
        args = _build_parser().parse_args(["report", "--curves", "c.csv", "--out", "o"])
        assert args.scf_collapse == DEFAULT_COLLAPSE_THRESHOLD
        for command in ("report", "run"):
            assert main([command, "--help"]) == 0
            help_text = " ".join(capsys.readouterr().out.split())
            assert f"SCF collapse threshold (default {DEFAULT_COLLAPSE_THRESHOLD})" in help_text

    def test_mismatched_curve_shapes_exit_three(self, tmp_path, capsys):
        curves = write_mismatched_curves(tmp_path / "curves.csv")
        code = main(["report", "--curves", str(curves), "--out", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert "curves.csv" in err and "mismatched shapes" in err

    def test_unknown_scenario_exit_three_and_writes_nothing(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        curves.write_text(
            "scenario,model,seed,step,node_id,fraction_removed,ff,scf,"
            "tonnage_fraction,tonnage_fraction_gcc\n"
            + "".join(
                f"a/b,,{seed},0,,0.0,2,1.0,1.0,1.0\na/b,,{seed},1,{seed + 1},0.5,1,0.5,0.5,0.5\n"
                for seed in (0, 1)
            )
        )
        code = main(["report", "--curves", str(curves), "--out", str(tmp_path / "r")])
        assert code == 3
        assert "curves.csv: unknown scenario 'a/b'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_missing_curves_file(self, tmp_path, capsys):
        code = main(
            ["report", "--curves", str(tmp_path / "no.csv"), "--out", str(tmp_path / "r")]
        )
        assert code == 3

    def test_curve_resumed_after_another_exits_three(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        curves.write_text(
            "scenario,model,seed,step,node_id,fraction_removed,ff,scf,"
            "tonnage_fraction,tonnage_fraction_gcc\n"
            "random,,1,0,,0.0,2,1.0,1.0,1.0\n"
            "random,,2,0,,0.0,2,1.0,1.0,1.0\n"
            "random,,1,1,1,0.5,1,0.5,0.5,0.5\n"
            "random,,2,1,2,0.5,1,0.5,0.5,0.5\n"
        )
        code = main(["report", "--curves", str(curves), "--out", str(tmp_path / "r")])
        assert code == 3
        assert "curves.csv:4: curve 'random'/''/'1' resumes" in capsys.readouterr().err


class TestSynthCommand:
    def test_generates_dataset(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = main(
            [
                "synth", "--out", str(out), "--nodes", "8", "--avg-degree", "3.0",
                "--seed", "5", "--models", "m1", "--years", "2000", "2001",
            ]
        )
        assert code == 0
        assert (out / "nodes.csv").is_file()
        assert (out / "edges.csv").is_file()
        assert (out / "tmax_m1.csv").is_file()
        printed = capsys.readouterr().out
        assert "nodes:" in printed and "series:m1" in printed

    def test_no_models(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--models"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["edges.csv", "nodes.csv"]

    def test_infeasible_parameters_exit_two(self, tmp_path, capsys):
        code = main(
            ["synth", "--out", str(tmp_path / "s"), "--nodes", "4", "--avg-degree", "9"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("first, last", [("0", "2"), ("9999", "10000")])
    def test_year_beyond_the_calendar_exits_two_writing_nothing(
        self, tmp_path, capsys, first, last
    ):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--years", first, last]) == 2
        assert "error: start_year and end_year must be in 1..9999" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model", ["a/b", "../esc"])
    def test_model_name_with_path_separator_exits_two_writing_nothing(
        self, tmp_path, capsys, model
    ):
        out = tmp_path / "s"
        assert main(["synth", "--out", str(out), "--models", "ok", model]) == 2
        assert "path separator or NUL" in capsys.readouterr().err
        assert list(tmp_path.rglob("*")) == []

    def test_synthesized_dataset_feeds_a_run(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--nodes", "9", "--avg-degree", "3.0",
                     "--years", "1995", "2020"]) == 0
        config = {
            "nodes": "synth/nodes.csv",
            "edges": "synth/edges.csv",
            "out_dir": "run_out",
            "seeds": 2,
            "scenarios": ["random", "targeted_degree", "hot_days"],
            "climate": {
                "series": [f"synth/tmax_synth-{m}.csv" for m in "abc"],
                "threshold_c": 30.0,
                "baseline": {"label": "early", "start_year": 1995, "end_year": 2004},
                "futures": [{"label": "late", "start_year": 2011, "end_year": 2020}],
            },
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path)]) == 0
        assert (tmp_path / "run_out" / "robustness.svg").is_file()
