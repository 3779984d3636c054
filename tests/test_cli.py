import io
import json
import random
import re
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from freight_resilience.cli import _build_parser, main
from freight_resilience.disruption import SCENARIOS
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


def drop_near_future_profiles(config: Path) -> None:
    path = config.parent / "data" / "profiles.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if ",2021-2050," not in line))


def add_model_at_one_cell(config: Path) -> None:
    use_daily_series(config, "grid")
    with (config.parent / "data" / "tmax.csv").open("a") as fh:
        fh.write("m2,49.0,-67.0,2000-01-01,36.0\n")


def use_models(config: Path, models: list[str]) -> None:
    doc = json.loads(config.read_text())
    doc["climate"]["models"] = models
    config.write_text(json.dumps(doc))


# faults that a stage finds in its inputs as a whole: (edit of the demo
# config, extra flags, the input file the message names, the message)
WHOLE_INPUT_FAULTS = {
    "mode-filtered-empty": (None, ["--mode", "water"], "nodes.csv", "no nodes remain"),
    "model-not-found": (
        lambda c: use_models(c, ["mA", "mZ"]), [], "profiles.csv", "no profiles for model(s)"
    ),
    "period-missing": (drop_near_future_profiles, [], "profiles.csv", "profiles missing for"),
    "nodes-uncovered": (
        lambda c: use_model_series(c, {"mA": list(range(1, 10))}),
        [],
        "tmax.csv",
        "no hot-day data for 1 network node(s)",
    ),
    "node-sets-differ": (
        lambda c: use_model_series(c, {"mA": [*range(1, 11), 99], "mB": list(range(1, 11))}),
        [],
        "tmax.csv",
        "covers a different node set than",
    ),
    "grid-cell-missing": (add_model_at_one_cell, [], "tmax.csv", "no series for model 'm2'"),
}


@pytest.mark.parametrize("fault", sorted(WHOLE_INPUT_FAULTS))
def test_whole_input_faults_exit_three_naming_the_input(demo, capsys, fault):
    edit, flags, name, message = WHOLE_INPUT_FAULTS[fault]
    if edit is not None:
        edit(demo)
    assert main(["run", "--config", str(demo), *flags]) == 3
    err = capsys.readouterr().err
    assert f"{demo.parent / 'data' / name}: " in err and message in err, err


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


# ---------------------------------------------------------------------------
# whole runs over mutated inputs: every fault above the loaders as well as
# in them ends in exit 2 or 3, and an exit 3 names the input at fault

FUZZ_PERIODS = {"b": 2000, "f1": 2001, "f2": 2002}
FUZZ_GRID = [f"{lat},{lon}" for lat in (25.0, 49.0) for lon in (-124.0, -67.0)]


def write_fuzz_inputs(data: Path, form: str) -> list[str]:
    """A 9-node synthetic network and the climate input of ``form`` for
    models mA and mB over one-year periods b, f1 and f2: five July days a
    year per node (series, one file per model) or grid cell (grid), or the
    periods' hot-day counts (profiles). Returns the climate files' names."""
    generate_synthetic(SynthSpec(n_nodes=9, avg_degree=3.0, seed=1, models=()), data)
    rng = random.Random(7)
    if form == "profiles":
        rows = [
            f"{model},{label},{node},{rng.randint(0, 40)},35.0"
            for model in ("mA", "mB") for label in FUZZ_PERIODS for node in range(1, 10)
        ]
        header = "model,period_label,node_id,hot_days,threshold_c"
        (data / "profiles.csv").write_text("\n".join([header, *rows]) + "\n")
        return ["profiles.csv"]
    header = SERIES_FORMS[form][0]
    keys = FUZZ_GRID if form == "grid" else range(1, 10)
    days = [f"{year}-07-0{d}" for year in FUZZ_PERIODS.values() for d in range(1, 6)]
    series = {
        model: [f"{model},{key},{day},{rng.uniform(30, 40):.2f}" for key in keys for day in days]
        for model in ("mA", "mB")
    }
    if form == "grid":
        files = {"tmax.csv": series["mA"] + series["mB"]}
    else:
        files = {f"tmax_{model}.csv": rows for model, rows in series.items()}
    for name, rows in files.items():
        (data / name).write_text("\n".join([header, *rows]) + "\n")
    return list(files)


def fuzz_config(form: str, climate_files: list[str]) -> dict:
    climate = {
        "baseline": {"label": "b", "start_year": 2000, "end_year": 2000},
        "futures": [
            {"label": label, "start_year": year, "end_year": year}
            for label, year in FUZZ_PERIODS.items() if label != "b"
        ],
    }
    if form == "profiles":
        climate["profiles"] = f"data/{climate_files[0]}"
    else:
        climate["series" if form == "series" else "grid_series"] = [
            f"data/{name}" for name in climate_files
        ]
    return {
        "nodes": "data/nodes.csv", "edges": "data/edges.csv", "out_dir": "out",
        "seeds": 2, "climate": climate,
    }


FUZZ_PERIOD = st.builds(
    lambda label, start, span: {"label": label, "start_year": start, "end_year": start + span},
    st.sampled_from([*FUZZ_PERIODS, "x"]), st.integers(1999, 2003), st.integers(-1, 1),
)
# a config field (climate ones as climate.<name>) and values to set it to
CONFIG_EDITS = {
    "scenarios": st.lists(st.sampled_from(SCENARIOS), max_size=3),
    "mode": st.sampled_from(["rail", "water", "air"]),
    "ranking": st.sampled_from(["adaptive", "sideways"]),
    "seeds": st.integers(0, 3),
    "base_seed": st.integers(-3, 3),
    "column_map": st.sampled_from(
        [{"tonnage": "name"}, {"id": "node_id"}, {"lat": "lon"}, {"mode": "kind"}]
    ),
    "climate.models": st.lists(st.sampled_from(["mA", "mB", "mZ"]), max_size=3),
    "climate.sequence_period": st.sampled_from(["f1", "f2", "b", "zz"]),
    "climate.top_k": st.integers(-1, 12),
    "climate.threshold_c": st.sampled_from([30, 35.0, 36.5, 1e300]),
    "climate.baseline": FUZZ_PERIOD,
    "climate.futures": st.lists(FUZZ_PERIOD, max_size=3),
}
# cells out of place: blanks, numbers a parser may take or refuse, dates
# and names of the inputs, a cell that holds a comma, and cells that move
# the csv reader's records off the lines: a lone quote, quoted cells
# holding a comma or a line end, a leading byte-order mark and a cell
# ending in a carriage return
FUZZ_TOKENS = [
    "", " ", "x", "nan", "inf", "-inf", "1e309", "-0", "0", "1", "-1", "0.5", "2.5", "0x10",
    "1_000", "99", "1e3", "2000-02-30", "2000-13-01", "20000101", "2001-07-01",
    "0001-01-01", "a,b", "\u00e9", "rail", "water", "mA", "mB", "b", "f1", "35.0",
    "-124.0", "49.0", "random", "hot_days",
    '"', '"a,b"', '"mA\nmB"', "\ufeff1", "\ufeffmodel", "1\r",
]
# a line of a table, header included, taken modulo its lines; a cell,
# modulo its cells
LINE = st.integers(0, 400)
CELL = st.integers(0, 9)
QUOTE_FREE_SET = st.tuples(
    st.just("set"), LINE, CELL, st.sampled_from([t for t in FUZZ_TOKENS if '"' not in t])
)
TABLE_EDITS = st.one_of(
    st.tuples(st.just("delete"), LINE),
    st.tuples(st.just("duplicate"), LINE, LINE),
    st.tuples(st.just("swap"), LINE, LINE),
    st.tuples(st.just("shuffle-header"), st.integers(0, 1 << 16)),
    st.tuples(st.just("copy-cell"), LINE, LINE, CELL),
    st.tuples(st.just("set"), LINE, CELL, st.sampled_from(FUZZ_TOKENS)),
)


def edit_table(path: Path, edit: tuple) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    kind, *args = edit
    if kind == "shuffle-header":
        cells = lines[0].split(",") if lines else []
        random.Random(args[0]).shuffle(cells)
        lines[:1] = [",".join(cells)]
    elif lines:
        line, *args = args
        line %= len(lines)
        if kind == "delete":
            del lines[line]
        elif kind == "duplicate":
            lines.insert(args[0] % (len(lines) + 1), lines[line])
        elif kind == "swap":
            other = args[0] % len(lines)
            lines[line], lines[other] = lines[other], lines[line]
        else:
            cells = lines[line].split(",")
            if kind == "copy-cell":
                source, column = lines[args[0] % len(lines)].split(","), args[1]
                text = source[column % len(source)]
            else:
                column, text = args
            cells[column % len(cells)] = text
            lines[line] = ",".join(cells)
    path.write_text("".join(f"{text}\n" for text in lines), encoding="utf-8")


def assert_lines_within(err: str, paths: list[Path]) -> None:
    """Every ``path:line`` that ``err`` names is a physical line of that
    file: lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as the csv
    reader counts them."""
    for path in paths:
        with path.open(newline="", encoding="utf-8", errors="replace") as fh:
            lines = sum(1 for _ in fh)
        for line in re.findall(rf"{re.escape(str(path))}:(\d+)", err):
            assert 1 <= int(line) <= lines, (path.read_bytes(), err)


def edited_curve_lines(lines: list[str], edits: list[tuple]) -> set[int] | None:
    """The physical lines where an exit 3 may name the fault that ``edits``
    of curves.csv made, ``lines`` being the file's lines before them. Only
    for one ``set`` of a cell to a text without a quote in a file without
    one: the edited row's line, and also the next row's where the cell is
    a key cell of a step-0 row, since the row then starts a curve of its
    own and the next row is a step 1 without its step 0. None otherwise."""
    if len(edits) != 1 or edits[0][0] != "set" or not lines:
        return None
    _, line, column, text = edits[0]
    if '"' in text or any('"' in row for row in lines):
        return None
    index = line % len(lines)
    cells = lines[index].split(",")
    if index and column % len(cells) < 3 and cells[3] == "0":
        return {index + 1, index + 2}
    return {index + 1}


def run_cli(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), form=st.sampled_from(["series", "grid", "profiles"]))
def test_mutated_inputs_exit_two_or_three_naming_the_input(data, form):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        climate_files = write_fuzz_inputs(root / "data", form)
        inputs = [root / "data" / name for name in ("nodes.csv", "edges.csv", *climate_files)]
        doc = fuzz_config(form, climate_files)
        keys = st.lists(st.sampled_from(sorted(CONFIG_EDITS)), unique=True, max_size=2)
        for key in data.draw(keys, label="config fields"):
            section, _, name = key.rpartition(".")
            (doc[section] if section else doc)[name] = data.draw(CONFIG_EDITS[key], label=key)
        edits = st.lists(st.tuples(st.integers(0, 3), TABLE_EDITS), max_size=3)
        for which, edit in data.draw(edits, label="input edits"):
            edit_table(inputs[which % len(inputs)], edit)
        (root / "config.json").write_text(json.dumps(doc))
        argv = ["run", "--config", str(root / "config.json")]

        code, err = run_cli(argv)
        event(f"{form} run exit {code}")
        assert code in (0, 2, 3), err
        if code == 3:
            assert any(f"{path}:" in err for path in inputs), err
            assert_lines_within(err, inputs)
        if code != 0:
            return
        manifest = (root / "out" / MANIFEST_NAME).read_bytes()
        assert run_cli(argv) == (0, "")
        assert (root / "out" / MANIFEST_NAME).read_bytes() == manifest

        # the edits drawn, and then one cell set to a text without a quote,
        # each in a fresh copy of the run's curves.csv
        curves = root / "curves.csv"
        drawn = data.draw(st.lists(TABLE_EDITS, max_size=2), label="curves edits")
        cell = data.draw(QUOTE_FREE_SET, label="curves cell")
        for leg, edits in enumerate([drawn, [cell]]):
            shutil.copy(root / "out" / "curves.csv", curves)
            lines = curves.read_text(encoding="utf-8").splitlines()
            for edit in edits:
                edit_table(curves, edit)
            out = root / f"report{leg}"
            code, err = run_cli(["report", "--curves", str(curves), "--out", str(out)])
            event(f"report exit {code}")
            assert code in (0, 2, 3), err
            if code == 3:
                assert f"{curves}:" in err, err
                assert_lines_within(err, [curves])
                named = {int(n) for n in re.findall(rf"{re.escape(str(curves))}:(\d+)", err)}
                expected = edited_curve_lines(lines, edits)
                if expected is not None and named:
                    event("report exit 3 at an edited curves.csv line")
                    assert named <= expected, err
