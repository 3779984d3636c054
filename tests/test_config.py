"""Config parsing, pinned.

Tables of config documents with the exact ConfigError message or
config_sha256 each one gives, so a change to parsing that moves any
message or digest fails here; and guards that every config field is
parsed, hashed, overridable and documented.
"""

import copy
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest

from freight_resilience.cli import _FLAG_FIELDS
from freight_resilience.climate import PeriodSpec
from freight_resilience.errors import ConfigError
from freight_resilience.pipeline import (
    ClimateConfig,
    RunConfig,
    _digest_of,
    config_digest_dict,
    load_config,
)

BASE_DOC = {
    "nodes": "data/nodes.csv",
    "edges": "data/edges.csv",
    "out_dir": "out",
    "climate": {"profiles": "data/profiles.csv"},
}
BASE_SHA = "bcd813218b13f67223083d8e4cafcf0b544a6fa16344627bc8d69df042bdc4e8"
PERIOD = {"label": "p", "start_year": 2000, "end_year": 2009}
DROP = object()

# one value of every JSON type, as JSON text (PERIOD stands for its JSON)
VALUES = ["null", "true", "0", "7", "1.5", '"x"', "[]", '["x"]', "[1]", "{}", '{"x": "y"}']
VALUES += ["PERIOD", "[PERIOD]"]

# field -> (outcome of a VALUES entry of the wrong JSON type, {VALUES entry:
# outcome} where it differs, outcome with the field left out); an outcome
# is a ConfigError message or the config_sha256
GRID = {
    "nodes": (
        "nodes: expected a file path",
        {
            '"x"': "nodes: file not found: x",
        },
        "nodes: required field missing",
    ),
    "edges": (
        "edges: expected a file path",
        {
            '"x"': "edges: file not found: x",
        },
        "edges: required field missing",
    ),
    "out_dir": (
        "out_dir: expected a file path",
        {
            '"x"': BASE_SHA,
        },
        "out_dir: required field missing",
    ),
    "mode": (
        "mode: expected a string",
        {
            "null": BASE_SHA,
            '"x"': "mode: must be one of ('rail', 'water'), got 'x'",
        },
        BASE_SHA,
    ),
    "scenarios": (
        "scenarios: expected a list of scenario names",
        {
            "[]": "scenarios: need at least one scenario",
            '["x"]': (
                "scenarios[0]: unknown scenario 'x' (choose from ('random', 'targeted_degree', "
                "'targeted_closeness', 'targeted_betweenness', 'hot_days'))"
            ),
        },
        BASE_SHA,
    ),
    "seeds": (
        "seeds: expected an integer",
        {
            "0": "seeds: need at least 1 trial, got 0",
            "7": "13eb9c2e408584e86d0820aff5163dd71a60874fe6ebc4a7eb16dba060d6c0a1",
        },
        BASE_SHA,
    ),
    "base_seed": (
        "base_seed: expected an integer",
        {
            "0": BASE_SHA,
            "7": "008cee94ff3947476ab6d7dc63dfe6fedb27f447f549aaef42d38d435ebb2f64",
        },
        BASE_SHA,
    ),
    "ranking": (
        "ranking: expected a string",
        {
            '"x"': "ranking: must be one of ('static', 'adaptive'), got 'x'",
        },
        BASE_SHA,
    ),
    "collapse_threshold": (
        "collapse_threshold: expected a number",
        {
            "0": "collapse_threshold: must be in (0, 1), got 0.0",
            "7": "collapse_threshold: must be in (0, 1), got 7.0",
            "1.5": "collapse_threshold: must be in (0, 1), got 1.5",
        },
        BASE_SHA,
    ),
    "column_map": (
        "column_map: expected an object",
        {
            "null": BASE_SHA,
            "{}": BASE_SHA,
            '{"x": "y"}': "2631381d3e78975cad0fb3af59f7a85d8ab15cf22cd08af2d5f2994db8b8c1b5",
            "PERIOD": "column_map: keys and values must be strings",
        },
        BASE_SHA,
    ),
    "climate": (
        "climate: expected an object",
        {
            "null": "climate: section required for the hot_days scenario",
            "{}": "climate: provide exactly one of series, grid_series, or profiles",
            '{"x": "y"}': "climate: unknown field(s) ['x']",
            "PERIOD": "climate: unknown field(s) ['end_year', 'label', 'start_year']",
        },
        "climate: section required for the hot_days scenario",
    ),
    "climate.series": (
        "climate.series: expected a list of file paths",
        {
            "[]": BASE_SHA,
            '["x"]': "climate: provide exactly one of series, grid_series, or profiles",
        },
        BASE_SHA,
    ),
    "climate.grid_series": (
        "climate.grid_series: expected a list of file paths",
        {
            "[]": BASE_SHA,
            '["x"]': "climate: provide exactly one of series, grid_series, or profiles",
        },
        BASE_SHA,
    ),
    "climate.profiles": (
        "climate.profiles: expected a file path",
        {
            "null": "climate: provide exactly one of series, grid_series, or profiles",
            '"x"': "climate.profiles: file not found: x",
        },
        "climate: provide exactly one of series, grid_series, or profiles",
    ),
    "climate.models": (
        "climate.models: expected a list of model names",
        {
            "[]": BASE_SHA,
            '["x"]': "e6ebb2d6ad89971789a59378a9c8da084a4c81517cc97f0b606c85c6a3c5a974",
        },
        BASE_SHA,
    ),
    "climate.threshold_c": (
        "climate.threshold_c: expected a number",
        {
            "0": "b951628bdbefa6d40f01e1cce9008241f9f13a29ae9025402ccf13ad0a9fb54e",
            "7": "1daeb666eb8ff989ca8ffbf350d8f1cc8244a49ff6569e05ca605c9f89c4ab78",
            "1.5": "ce26edbb001427a3bb602f3579817904539e9036168e25d64f2d15678cd3233d",
        },
        BASE_SHA,
    ),
    "climate.baseline": (
        "climate.baseline: expected an object",
        {
            "{}": "climate.baseline: expected keys label, start_year, end_year",
            '{"x": "y"}': "climate.baseline: expected keys label, start_year, end_year",
            "PERIOD": "1ac9b4464f0d80ae5d0daf7938c04940e73643c22f9c4da05c725fce1dc077f4",
        },
        BASE_SHA,
    ),
    "climate.futures": (
        "climate.futures: expected a non-empty list",
        {
            '["x"]': "climate.futures[0]: expected an object",
            "[1]": "climate.futures[0]: expected an object",
            "[PERIOD]": "2089d6636466f6dd676c41cebeee38b274adc557e007398f26daddf2681389f1",
        },
        BASE_SHA,
    ),
    "climate.sequence_period": (
        "climate.sequence_period: expected a period label",
        {
            "null": BASE_SHA,
            '"x"': "climate.sequence_period: 'x' is not a future period label",
        },
        BASE_SHA,
    ),
    "climate.top_k": (
        "climate.top_k: expected an integer",
        {
            "0": "climate.top_k: must be >= 1",
            "7": "0189a4eeb19430a2f66aaff80e402ba887db906a408c3be6d06b354aac580720",
        },
        BASE_SHA,
    ),
}

# (patch of BASE_DOC, overrides, outcome); "<doc>" replaces the whole document
CASES = [
    ({"<doc>": []}, None, "config: top level must be an object"),
    ({"<doc>": "x"}, None, "config: top level must be an object"),
    ({"<doc>": None}, None, "config: top level must be an object"),
    ({"<doc>": 3}, None, "config: top level must be an object"),
    ({"turbo": 1, "alpha": 2}, None, "config: unknown field(s) ['alpha', 'turbo']"),
    ({"turbo": 1, "edges": DROP}, None, "config: unknown field(s) ['turbo']"),
    ({"climate.warming": 2.0}, None, "climate: unknown field(s) ['warming']"),
    ({"climate.warming": 2.0, "climate.zeta": 1, "seeds": "x"}, None, "seeds: expected an integer"),
    ({"nodes": DROP}, None, "nodes: required field missing"),
    ({"edges": DROP}, None, "edges: required field missing"),
    ({"out_dir": DROP}, None, "out_dir: required field missing"),
    ({"nodes": DROP, "edges": DROP}, None, "nodes: required field missing"),
    ({"edges": DROP, "nodes": 3}, None, "nodes: expected a file path"),
    ({"mode": 3, "seeds": "x"}, None, "mode: expected a string"),
    ({"seeds": "x", "climate": 3}, None, "seeds: expected an integer"),
    ({"ranking": None, "climate.top_k": "x"}, None, "ranking: expected a string"),
    (
        {"climate.series": 3, "climate.top_k": "x"},
        None,
        "climate.series: expected a list of file paths",
    ),
    (
        {"climate.baseline": {"label": "b", "start_year": 1990}},
        None,
        "climate.baseline: expected keys label, start_year, end_year",
    ),
    (
        {"climate.baseline": {"label": "b", "start_year": 1990, "end_year": 1999, "x": 1}},
        None,
        "climate.baseline: expected keys label, start_year, end_year",
    ),
    (
        {"climate.baseline": {"label": 1, "start_year": 1990, "end_year": 1999}},
        None,
        "climate.baseline.label: expected a string",
    ),
    (
        {"climate.baseline": {"label": "b", "start_year": "1990", "end_year": 1999}},
        None,
        "climate.baseline.start_year: expected an integer",
    ),
    (
        {"climate.baseline": {"label": "b", "start_year": True, "end_year": 1999}},
        None,
        "climate.baseline.start_year: expected an integer",
    ),
    (
        {"climate.baseline": {"label": "b", "start_year": 1990, "end_year": 1.5}},
        None,
        "climate.baseline.end_year: expected an integer",
    ),
    (
        {"climate.baseline": {"label": "b", "start_year": 2000, "end_year": 1999}},
        None,
        "climate.baseline: period 'b': need 1 <= start_year <= end_year <= 9998",
    ),
    (
        {"climate.baseline": {"label": "b", "start_year": 0, "end_year": 1999}},
        None,
        "climate.baseline: period 'b': need 1 <= start_year <= end_year <= 9998",
    ),
    (
        {"climate.baseline": {"label": "b", "start_year": 1990, "end_year": 9999}},
        None,
        "climate.baseline: period 'b': need 1 <= start_year <= end_year <= 9998",
    ),
    (
        {"climate.baseline": {"label": "b", "start_year": 1, "end_year": 9998}},
        None,
        "cb8eba972faa660a3aa45ca7c3f7bc9be34837a1f5bfe83e92217e973cf607a4",
    ),
    (
        {"climate.baseline": {"label": "b", "start_year": 1990, "end_year": 1999}},
        None,
        "98ecbc4a3cbfa8b14640c0a554671ece44721052c6be8246d9cb25bed763aba4",
    ),
    ({"climate.baseline": [1990, 1999]}, None, "climate.baseline: expected an object"),
    ({"climate.baseline": "1990-1999"}, None, "climate.baseline: expected an object"),
    ({"climate.futures": []}, None, "climate.futures: expected a non-empty list"),
    (
        {
            "climate.futures": [PERIOD, {"label": "q"}],
        },
        None,
        "climate.futures[1]: expected keys label, start_year, end_year",
    ),
    (
        {
            "climate.futures": [PERIOD, {"label": "q", "start_year": 1, "end_year": 10000}],
        },
        None,
        "climate.futures[1]: period 'q': need 1 <= start_year <= end_year <= 9998",
    ),
    (
        {
            "climate.futures": [PERIOD, PERIOD],
        },
        None,
        "climate: duplicate period labels in ['1991-2020', 'p', 'p']",
    ),
    (
        {"climate.futures": [{"label": "1991-2020", "start_year": 2000, "end_year": 2001}]},
        None,
        "climate: duplicate period labels in ['1991-2020', '1991-2020']",
    ),
    (
        {
            "climate.futures": [PERIOD, {"label": "q", "start_year": 2010, "end_year": 2019}],
            "climate.sequence_period": "q",
        },
        None,
        "3060fb4ff2a08d5da9cb3f6ee151394d727ed6d8508a9c209af10d7da3c14cf1",
    ),
    (
        {"climate.sequence_period": "1991-2020"},
        None,
        "climate.sequence_period: '1991-2020' is not a future period label",
    ),
    (
        {"climate.sequence_period": "2051-2080"},
        None,
        "9a812c4c3fc5104312cd81f0b8787a9ef44f06631efff4fd6d02accb5b60050a",
    ),
    ({"climate": {}}, None, "climate: provide exactly one of series, grid_series, or profiles"),
    ({"climate": None}, None, "climate: section required for the hot_days scenario"),
    (
        {"climate": None, "scenarios": ["random", "targeted_degree"]},
        None,
        "e7638961da1a923ad785061ca6d4a36ff1b908af5448336f2dce6230f70a1baa",
    ),
    (
        {"climate": {"series": ["data/s1.csv", "data/s2.csv"]}},
        None,
        "c932ba90bcb083fc137e7669a1a66022c8ffe480b349b95624eace19be79fbd6",
    ),
    (
        {"climate": {"grid_series": ["data/g1.csv"]}},
        None,
        "734679a10857f0846fb27ff79cb0644e8379137389d39c8c74d108883a27bf22",
    ),
    (
        {"climate": {"grid_series": ["data/g1.csv"], "profiles": "data/profiles.csv"}},
        None,
        "climate: provide exactly one of series, grid_series, or profiles",
    ),
    (
        {"climate": {"series": ["data/s1.csv", "data/missing.csv"]}},
        None,
        "climate.series[1]: file not found: data/missing.csv",
    ),
    (
        {"climate": {"grid_series": ["data/missing.csv"]}},
        None,
        "climate.grid_series[0]: file not found: data/missing.csv",
    ),
    (
        {"climate.profiles": "data/missing.csv"},
        None,
        "climate.profiles: file not found: data/missing.csv",
    ),
    ({"nodes": "data/missing.csv"}, None, "nodes: file not found: data/missing.csv"),
    ({"edges": "data/missing.csv"}, None, "edges: file not found: data/missing.csv"),
    (
        {"climate.threshold_c": 30},
        None,
        "3c39a66e6e343ad987123b6f86cdf527fa69885b2717c9a70ba98465f48a971e",
    ),
    (
        {"climate.threshold_c": 30.0},
        None,
        "3c39a66e6e343ad987123b6f86cdf527fa69885b2717c9a70ba98465f48a971e",
    ),
    ({"climate.threshold_c": math.inf}, None, "climate.threshold_c: must be finite"),
    ({"climate.top_k": 0}, None, "climate.top_k: must be >= 1"),
    (
        {"climate.top_k": 3},
        None,
        "29dc95bda262a24d15c499299f45fb9d369d7b5f4a57c95c70a1ccb0e3aa1768",
    ),
    (
        {"climate.models": ["m2", "m1"]},
        None,
        "021945a4bf3faed41c2e448e6234497cd3eb5bf11fae539e1e0486fbff036a89",
    ),
    ({"column_map": {}}, None, BASE_SHA),
    (
        {"column_map": {"tonnage": "T"}},
        None,
        "9ddc5d234c1ff5bef30c0ee5492011c88a0af3ba1fbbedb2d06cb51dfd5952fb",
    ),
    ({"column_map": {"tonnage": 1}}, None, "column_map: keys and values must be strings"),
    ({"collapse_threshold": 0}, None, "collapse_threshold: must be in (0, 1), got 0.0"),
    ({"collapse_threshold": 1}, None, "collapse_threshold: must be in (0, 1), got 1.0"),
    (
        {"collapse_threshold": 0.25},
        None,
        "e229870d0e42b46220bf047d3ab997efb7ea8a469f55abd3acb902337797e6a3",
    ),
    ({"seeds": 0}, None, "seeds: need at least 1 trial, got 0"),
    ({"seeds": -3}, None, "seeds: need at least 1 trial, got -3"),
    ({"seeds": 2}, None, "9651043c5f98cf83884b884270531566ab47b3dc02e7c64e375592b2613dbf84"),
    ({"base_seed": -1}, None, "1e60c3f23063f0ffec5f5a2371c226def9b8e2d74d5db2690c7a33ad53d84eda"),
    (
        {"base_seed": 1180591620717411303424},
        None,
        "7b98f90d33e7ec2b1b231bb10aa50d9cd1789b122199367a324dde4026016400",
    ),
    (
        {"scenarios": ["random", "meteor"]},
        None,
        (
            "scenarios[1]: unknown scenario 'meteor' (choose from ('random', 'targeted_degree', "
            "'targeted_closeness', 'targeted_betweenness', 'hot_days'))"
        ),
    ),
    ({"scenarios": ["random", "random"]}, None, "scenarios[1]: duplicate scenario 'random'"),
    ({"scenarios": []}, None, "scenarios: need at least one scenario"),
    (
        {"scenarios": ["hot_days", "random"]},
        None,
        "368a77f91295e7c61197dc78735428f34e212eec51d70f640fb8afeb5211283d",
    ),
    ({"ranking": "greedy"}, None, "ranking: must be one of ('static', 'adaptive'), got 'greedy'"),
    (
        {"ranking": "adaptive"},
        None,
        "69faaae974c001080a485f9997ffdeac6a31193311be0165df9f4bf1ee8aac15",
    ),
    ({"mode": "air"}, None, "mode: must be one of ('rail', 'water'), got 'air'"),
    ({"mode": "rail"}, None, "73551900a68f57cb3b5c5de94a33db174afa3d54f46254fc1da4881c67b5e81b"),
    ({"mode": "water"}, None, "df0715820e587b8a101963dcd1ccfa3846e9faaeb55456376e587aa98543fa60"),
    ({"out_dir": "elsewhere"}, None, BASE_SHA),
    ({"nodes": "./data/nodes.csv"}, None, BASE_SHA),
    (
        {
            "mode": "rail",
            "scenarios": ["random", "targeted_betweenness", "hot_days"],
            "seeds": 4,
            "base_seed": 9,
            "ranking": "adaptive",
            "collapse_threshold": 0.2,
            "column_map": {"tonnage": "T"},
            "climate": {
                "series": ["data/s1.csv"],
                "models": ["m1"],
                "threshold_c": 31.5,
                "baseline": {"label": "b", "start_year": 1990, "end_year": 1999},
                "futures": [
                    {"label": "f1", "start_year": 2040, "end_year": 2049},
                    {"label": "f2", "start_year": 2050, "end_year": 2059},
                ],
                "sequence_period": "f2",
                "top_k": 4,
            },
        },
        None,
        "1945d47a9d1b8cb1a930c062f997cb7bdd419f96479f2bf97def802b083b282d",
    ),
    ({}, {"seeds": 7}, "13eb9c2e408584e86d0820aff5163dd71a60874fe6ebc4a7eb16dba060d6c0a1"),
    (
        {},
        {"seeds": 7, "scenarios": ("random",), "collapse_threshold": 0.25, "out_dir": "elsewhere"},
        "e948493391308c35a0800eede0d55cd7f5f0ce3fe3db5ac7b9856c213edd954c",
    ),
    ({}, {"out_dir": "elsewhere"}, BASE_SHA),
    ({}, {"threshold_c": 40.0}, "39e8a1fff2fd96c690d99a698d7ac4dbbd95c5c657d5f59865d8f0544ed3b801"),
    (
        {"climate": None, "scenarios": ["random"]},
        {"threshold_c": 40.0},
        "--threshold-c: requires a climate section in the config",
    ),
    ({}, {"turbo": True}, "override 'turbo' is not a config field"),
    ({}, {"seeds": 7, "turbo": True}, "override 'turbo' is not a config field"),
    ({}, {"turbo": True, "threshold_c": 40.0}, "override 'turbo' is not a config field"),
    (
        {"climate": None, "scenarios": ["random"]},
        {"threshold_c": 40.0, "turbo": True},
        "--threshold-c: requires a climate section in the config",
    ),
    ({}, {"collapse_threshold": 1.5}, "collapse_threshold: must be in (0, 1), got 1.5"),
    ({}, {"seeds": 0, "mode": "air"}, "mode: must be one of ('rail', 'water'), got 'air'"),
    ({}, {"climate": None}, "climate: section required for the hot_days scenario"),
    (
        {},
        {"climate": None, "scenarios": ("random",)},
        "a7f01191bfabf2d6b5f8dc3b505db7e81175db8e00217e0196238531cfd35579",
    ),
    (
        {},
        {"climate": None, "scenarios": ("random",), "threshold_c": 40.0},
        "--threshold-c: requires a climate section in the config",
    ),
    ({"seeds": "x"}, {"seeds": 7}, "seeds: expected an integer"),
    ({"seeds": "x"}, {"turbo": True}, "seeds: expected an integer"),
    (
        {},
        {
            "mode": "rail",
            "ranking": "adaptive",
            "base_seed": 3,
            "column_map": {"tonnage": "T"},
            "nodes": "data/edges.csv",
            "edges": "data/nodes.csv",
        },
        "a94845b5f0f00cd0147d24523d06d5b40485a5e9ba6d238ced3ff44939291882",
    ),
    ({"climate.models": ["mA", "mB", "mA"]}, None, "climate.models[2]: duplicate model 'mA'"),
]


# field -> a value of its type other than BASE_DOC's (out_dir is not hashed)
OTHER_VALUES = {
    "nodes": "data/edges.csv",
    "edges": "data/nodes.csv",
    "mode": "rail",
    "scenarios": ("random",),
    "seeds": 2,
    "base_seed": 1,
    "ranking": "adaptive",
    "collapse_threshold": 0.2,
    "column_map": {"tonnage": "T"},
    "climate": None,
    "climate.series": ("data/s1.csv",),
    "climate.grid_series": ("data/g1.csv",),
    "climate.profiles": "data/s1.csv",
    "climate.models": ("m1",),
    "climate.threshold_c": 30.0,
    "climate.baseline": PeriodSpec("b", 1990, 1999),
    "climate.futures": (PeriodSpec("f", 2040, 2049),),
    "climate.sequence_period": "2051-2080",
    "climate.top_k": 3,
}

KIND_NAMES = {
    "file path",
    "list of paths",
    "list of names",
    "string",
    "integer",
    "number",
    "object",
    "period",
    "list of periods",
    "climate section",
}

FIELD_NAMES = [f.name for f in fields(RunConfig)] + [
    f"climate.{f.name}" for f in fields(ClimateConfig)
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Empty input files, with the working directory as the config's
    directory: config.json is loaded by its relative path, so resolved
    paths, and with them every config_sha256, do not depend on tmp_path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    for name in ("nodes", "edges", "profiles", "s1", "s2", "g1"):
        (tmp_path / "data" / f"{name}.csv").touch()
    return tmp_path


def patched(patch: dict):
    """BASE_DOC with top-level or "climate."-prefixed fields set, or dropped."""
    if "<doc>" in patch:
        return patch["<doc>"]
    doc = copy.deepcopy(BASE_DOC)
    for key, value in patch.items():
        *parents, name = key.split(".")
        target = doc
        for parent in parents:
            target = target[parent]
        if value is DROP:
            target.pop(name, None)
        else:
            target[name] = value
    return doc


def write(doc) -> Path:
    path = Path("config.json")
    path.write_text(json.dumps(doc))
    return path


def outcome(doc, overrides=None) -> str:
    try:
        config = load_config(write(doc), overrides)
    except ConfigError as exc:
        return str(exc)
    return _digest_of(config_digest_dict(config))


@pytest.mark.parametrize("field", GRID)
def test_every_json_type_in_every_field(workdir, field):
    wrong_type, others, missing = GRID[field]
    for text in VALUES:
        value = json.loads(text.replace("PERIOD", json.dumps(PERIOD)))
        assert outcome(patched({field: value})) == others.get(text, wrong_type), text
    assert outcome(patched({field: DROP})) == missing


@pytest.mark.parametrize("patch, overrides, expected", CASES)
def test_recorded_outcomes(workdir, patch, overrides, expected):
    assert outcome(patched(patch), overrides) == expected


def test_grid_covers_every_field():
    assert list(GRID) == FIELD_NAMES


def test_every_field_but_out_dir_changes_the_digest(workdir):
    assert list(OTHER_VALUES) == [name for name in FIELD_NAMES if name != "out_dir"]
    base = load_config(write(BASE_DOC))
    assert _digest_of(config_digest_dict(base)) == BASE_SHA
    for name, value in OTHER_VALUES.items():
        if name.startswith("climate."):
            changed = replace(base, climate=replace(base.climate, **{name[8:]: value}))
        else:
            changed = replace(base, **{name: value})
        assert _digest_of(config_digest_dict(changed)) != BASE_SHA, name
    assert _digest_of(config_digest_dict(replace(base, out_dir="elsewhere"))) == BASE_SHA


def test_every_field_has_a_json_kind():
    for cls in (RunConfig, ClimateConfig):
        for f in fields(cls):
            assert f.metadata["kind"].name in KIND_NAMES, f.name


def test_every_run_config_field_is_an_override(workdir):
    path = write(BASE_DOC)
    base = load_config(path)
    for f in fields(RunConfig):
        assert load_config(path, {f.name: getattr(base, f.name)}) == base
    assert set(_FLAG_FIELDS.values()) <= {f.name for f in fields(RunConfig)} | {"threshold_c"}


def test_readme_config_reference_lists_every_field():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config reference\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:-1] for line in section.splitlines() if line.startswith("| `")]
    documented = [
        (name.strip(" `"), kind.strip(), null.strip()) for name, kind, _, null, _ in rows
    ]
    expected = [
        (prefix + f.name, f.metadata["kind"].name, "yes" if f.default is None else "no")
        for prefix, cls in (("", RunConfig), ("climate.", ClimateConfig))
        for f in fields(cls)
    ]
    assert documented == expected


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"nodes": 1.5}, "override nodes: expected a file path"),
        ({"column_map": "x"}, "override column_map: expected an object"),
        ({"seeds": "3"}, "override seeds: expected an integer"),
    ],
    ids=["path", "object", "integer"],
)
def test_wrong_typed_override_names_the_field(workdir, overrides, message):
    with pytest.raises(ConfigError) as caught:
        load_config(write(BASE_DOC), overrides)
    assert str(caught.value) == message


def test_typed_overrides_pass(workdir):
    # a Path where a path goes, as a library caller may pass one; paths in
    # overrides stay relative to the working directory
    config = load_config(
        write(BASE_DOC),
        {"nodes": Path("data/s1.csv"), "out_dir": Path("elsewhere"), "threshold_c": 31},
    )
    assert (config.nodes, config.out_dir) == (str(Path("data/s1.csv")), "elsewhere")
    assert config.climate.threshold_c == 31.0 and isinstance(config.climate.threshold_c, float)
    assert _digest_of(config_digest_dict(config))  # every value hashes as JSON
