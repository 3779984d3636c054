"""Configuration, staged execution, and report emission.

A run is driven by one JSON config document and proceeds through fixed
stages: ingest, centrality, climate, simulate, report. Every output is
a CSV (canonical data) or SVG (derived plot) in one output directory,
plus a manifest listing each file with its SHA-256. Given the same
config, a re-run reproduces every byte; the config hash in the manifest
covers everything except the output directory, so runs into different
directories stay comparable.

The output directory must be empty, absent, or left over from an
earlier managed run (recognized by its manifest); anything else is
refused rather than mixed into.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .centrality import (
    all_scores,
    rank_order,
    write_ranking_csv,
    write_scores_csv,
)
from .climate import (
    BASELINE,
    DEFAULT_THRESHOLD_C,
    FUTURE_FAR,
    FUTURE_NEAR,
    HotDayProfile,
    PeriodSpec,
    count_gridded_series_csv,
    count_series_csv,
    ensemble_stats,
    hot_day_delta,
    read_profiles_csv,
    top_k_frequency,
    write_delta_csv,
    write_ensemble_csv,
    write_profiles_csv,
)
from .disruption import (
    RANKING_MODES,
    SCENARIOS,
    TARGETED_SCENARIOS,
    RemovalSequence,
    hot_day_sequence,
    random_sequence,
    targeted_sequence,
    write_sequences_csv,
)
from .errors import ConfigError, DataError, PipelineError
from .metrics import (
    DEFAULT_COLLAPSE_THRESHOLD,
    RobustnessCurve,
    aggregate_curves,
    read_curves_csv,
    render_curve,
    replay,
    write_curve_blocks,
    write_curves_csv,
)
from .network import MODES, filter_mode, load_network, save_network
from .svgplot import PALETTE, Band, LineSeries, line_chart, scatter_map
from .tables import fork_map, pool_size, write_table

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "freight-resilience-manifest/1"
STAGES = ("ingest", "centrality", "climate", "simulate", "report")


# ---------------------------------------------------------------------------
# Configuration
#
# The two config dataclasses are the only list of config fields; each
# field's metadata holds its JSON kind. Parsing, overrides and the config
# digest all follow fields().


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _resolve(base: Path, value: str) -> str:
    path = Path(value)
    return str(path if path.is_absolute() else base / path)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _as_period(obj: dict, where: str) -> PeriodSpec:
    _require(
        obj.keys() == {"label", "start_year", "end_year"},
        f"{where}: expected keys label, start_year, end_year",
    )
    _require(isinstance(obj["label"], str), f"{where}.label: expected a string")
    for key in ("start_year", "end_year"):
        _require(_is_int(obj[key]), f"{where}.{key}: expected an integer")
    try:
        return PeriodSpec(obj["label"], obj["start_year"], obj["end_year"])
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


class _Kind(NamedTuple):
    """A JSON kind of config value: its name in README's config reference,
    the wording of its type error, a check, and a conversion given where
    the value sits and the directory that relative paths resolve against."""

    name: str
    expected: str
    check: Callable[[object], bool]
    convert: Callable[[object, str, Path], object]


def _value(kind: _Kind, value, where: str, base: Path):
    _require(kind.check(value), f"{where}: expected {kind.expected}")
    return kind.convert(value, where, base)


_PATH = _Kind("file path", "a file path", lambda v: isinstance(v, str),
              lambda v, at, base: _resolve(base, v))
_PATHS = _Kind("list of paths", "a list of file paths", _is_strings,
               lambda v, at, base: tuple(_resolve(base, p) for p in v))
_NAMES = _Kind("list of names", "a list of names", _is_strings, lambda v, at, base: tuple(v))
_STRING = _Kind("string", "a string", lambda v: isinstance(v, str), lambda v, at, base: v)
_INTEGER = _Kind("integer", "an integer", _is_int, lambda v, at, base: v)
_NUMBER = _Kind("number", "a number", lambda v: _is_int(v) or isinstance(v, float),
                lambda v, at, base: float(v))
_OBJECT = _Kind("object", "an object", lambda v: isinstance(v, dict), lambda v, at, base: dict(v))
_PERIOD = _Kind("period", "an object", lambda v: isinstance(v, dict),
                lambda v, at, base: _as_period(v, at))
_PERIODS = _Kind("list of periods", "a non-empty list", lambda v: isinstance(v, list) and bool(v),
                 lambda v, at, base: tuple(_value(_PERIOD, p, f"{at}[{i}]", base)
                                           for i, p in enumerate(v)))
_SECTION = _Kind("climate section", "an object", lambda v: isinstance(v, dict),
                 lambda v, at, base: _parse(ClimateConfig, v, at, base))


def _field(kind: _Kind, default=MISSING, expected: str | None = None):
    """A config field of one JSON kind; ``expected`` rewords its type error."""
    if expected is not None:
        kind = kind._replace(expected=expected)
    return field(default=default, metadata={"kind": kind})


@dataclass(frozen=True)
class ClimateConfig:
    """Climate inputs: exactly one of series, grid_series, or profiles."""

    series: tuple[str, ...] = _field(_PATHS, ())
    grid_series: tuple[str, ...] = _field(_PATHS, ())
    profiles: str | None = _field(_PATH, None)
    # empty: use every model found in the data
    models: tuple[str, ...] = _field(_NAMES, (), "a list of model names")
    threshold_c: float = _field(_NUMBER, DEFAULT_THRESHOLD_C)
    baseline: PeriodSpec = _field(_PERIOD, BASELINE)
    futures: tuple[PeriodSpec, ...] = _field(_PERIODS, (FUTURE_NEAR, FUTURE_FAR))
    sequence_period: str | None = _field(_STRING, None, "a period label")  # default: first future
    top_k: int = _field(_INTEGER, 10)

    def validate(self) -> None:
        sources = [bool(self.series), bool(self.grid_series), self.profiles is not None]
        if sum(sources) != 1:
            raise ConfigError(
                "climate: provide exactly one of series, grid_series, or profiles"
            )
        for i, path in enumerate(self.series):
            if not Path(path).is_file():
                raise ConfigError(f"climate.series[{i}]: file not found: {path}")
        for i, path in enumerate(self.grid_series):
            if not Path(path).is_file():
                raise ConfigError(f"climate.grid_series[{i}]: file not found: {path}")
        if self.profiles is not None and not Path(self.profiles).is_file():
            raise ConfigError(f"climate.profiles: file not found: {self.profiles}")
        for i, model in enumerate(self.models):
            if model in self.models[:i]:
                raise ConfigError(f"climate.models[{i}]: duplicate model {model!r}")
        if not math.isfinite(self.threshold_c):
            raise ConfigError("climate.threshold_c: must be finite")
        if not self.futures:
            raise ConfigError("climate.futures: need at least one future period")
        labels = [self.baseline.label] + [p.label for p in self.futures]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"climate: duplicate period labels in {labels}")
        if self.sequence_period is not None and self.sequence_period not in {
            p.label for p in self.futures
        }:
            raise ConfigError(
                f"climate.sequence_period: {self.sequence_period!r} is not a future period label"
            )
        if self.top_k < 1:
            raise ConfigError("climate.top_k: must be >= 1")

    def periods(self) -> dict[str, PeriodSpec]:
        out = {self.baseline.label: self.baseline}
        out.update({p.label: p for p in self.futures})
        return out

    def delta_period(self) -> PeriodSpec:
        if self.sequence_period is None:
            return self.futures[0]
        return next(p for p in self.futures if p.label == self.sequence_period)


@dataclass(frozen=True)
class RunConfig:
    nodes: str = _field(_PATH)
    edges: str = _field(_PATH)
    out_dir: str = _field(_PATH)
    mode: str | None = _field(_STRING, None)
    scenarios: tuple[str, ...] = _field(_NAMES, SCENARIOS, "a list of scenario names")
    seeds: int = _field(_INTEGER, 10)  # number of random-removal trials
    base_seed: int = _field(_INTEGER, 0)
    ranking: str = _field(_STRING, "static")
    collapse_threshold: float = _field(_NUMBER, DEFAULT_COLLAPSE_THRESHOLD)
    column_map: Mapping[str, str] | None = _field(_OBJECT, None)
    climate: ClimateConfig | None = _field(_SECTION, None)

    def validate(self) -> None:
        for name in ("nodes", "edges"):
            path = getattr(self, name)
            if not Path(path).is_file():
                raise ConfigError(f"{name}: file not found: {path}")
        if self.mode is not None and self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}, got {self.mode!r}")
        if not self.scenarios:
            raise ConfigError("scenarios: need at least one scenario")
        seen = set()
        for i, scenario in enumerate(self.scenarios):
            if scenario not in SCENARIOS:
                raise ConfigError(
                    f"scenarios[{i}]: unknown scenario {scenario!r} (choose from {SCENARIOS})"
                )
            if scenario in seen:
                raise ConfigError(f"scenarios[{i}]: duplicate scenario {scenario!r}")
            seen.add(scenario)
        if self.seeds < 1:
            raise ConfigError(f"seeds: need at least 1 trial, got {self.seeds}")
        if self.ranking not in RANKING_MODES:
            raise ConfigError(f"ranking: must be one of {RANKING_MODES}, got {self.ranking!r}")
        if not 0.0 < self.collapse_threshold < 1.0:
            raise ConfigError(
                f"collapse_threshold: must be in (0, 1), got {self.collapse_threshold}"
            )
        if self.column_map is not None:
            for key, value in self.column_map.items():
                if not isinstance(key, str) or not isinstance(value, str):
                    raise ConfigError("column_map: keys and values must be strings")
        if "hot_days" in self.scenarios and self.climate is None:
            raise ConfigError("climate: section required for the hot_days scenario")
        if self.climate is not None:
            self.climate.validate()


def _parse(cls, obj: dict, where: str, base: Path):
    """Build a config dataclass from its JSON object.

    Fields are checked in declaration order; ``where`` prefixes their
    names in messages ("" at the top level). A ``null`` stands for the
    default of a field whose default is None.
    """
    unknown = obj.keys() - {f.name for f in fields(cls)}
    _require(not unknown, f"{where or 'config'}: unknown field(s) {sorted(unknown)}")
    kwargs = {}
    for f in fields(cls):
        at = f"{where}.{f.name}" if where else f.name
        if f.name not in obj:
            _require(f.default is not MISSING, f"{at}: required field missing")
        elif obj[f.name] is not None or f.default is not None:
            kwargs[f.name] = _value(f.metadata["kind"], obj[f.name], at, base)
    return cls(**kwargs)


def load_config(path, overrides: Mapping[str, object] | None = None) -> RunConfig:
    """Read and validate a JSON run config.

    Paths inside the config resolve relative to the config file's
    directory. ``overrides`` (already-typed values, e.g. from CLI flags)
    replace config fields after parsing; ``threshold_c`` targets the
    climate section.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8-sig"))
    # ValueError: not UTF-8, not JSON, or an over-long integer literal;
    # RecursionError: arrays or objects nested too deeply to decode
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    _require(isinstance(raw, dict), "config: top level must be an object")
    config = _parse(RunConfig, raw, "", p.parent)

    for key, value in (overrides or {}).items():
        if key == "threshold_c":
            _require(
                config.climate is not None,
                "--threshold-c: requires a climate section in the config",
            )
            value = _override(ClimateConfig, key, value)
            config = replace(config, climate=replace(config.climate, threshold_c=value))
        else:
            config = replace(config, **{key: _override(RunConfig, key, value)})
    config.validate()
    return config


def _override(cls, key: str, value):
    """Check and convert an override with its field's kind, as if the
    value had been read from JSON; paths stay relative to the caller."""
    f = next((f for f in fields(cls) if f.name == key), None)
    _require(f is not None, f"override {key!r} is not a config field")
    if value is None and f.default is None:
        return None
    return _value(f.metadata["kind"], _json_form(value), f"override {key}", Path())


def _json_form(value):
    """An already-typed config value (tuples, ``Path``s, periods, a climate
    section) as the JSON value its kind parses."""
    if isinstance(value, os.PathLike):
        return os.fspath(value)
    if isinstance(value, tuple):
        return [_json_form(v) for v in value]
    if isinstance(value, PeriodSpec):
        return {"label": value.label, "start_year": value.start_year, "end_year": value.end_year}
    if isinstance(value, ClimateConfig):
        return {f.name: _json_form(getattr(value, f.name)) for f in fields(value)}
    return value


def _plain(value):
    """The JSON form of a config value: sections become objects, periods
    [label, start_year, end_year], tuples lists."""
    if isinstance(value, PeriodSpec):
        return [value.label, value.start_year, value.end_year]
    if isinstance(value, (RunConfig, ClimateConfig)):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, Mapping):
        return dict(value) or None  # an empty column_map hashes as no map
    return value


def config_digest_dict(config: RunConfig) -> dict:
    """Plain-dict view of a config for hashing (out_dir excluded)."""
    doc = _plain(config)
    del doc["out_dir"]
    return doc


def _digest_of(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Output directory and manifest


class _Recorder:
    """Collects the relative paths of every emitted file."""

    def __init__(self, out: Path):
        self.out = out
        self.relpaths: list[str] = []

    def path(self, name: str) -> Path:
        return self.out / name

    def add(self, name: str) -> None:
        if name in self.relpaths:
            raise RuntimeError(f"output {name!r} written twice")
        self.relpaths.append(name)

    def write_text(self, name: str, content: str) -> None:
        self.path(name).write_text(content, encoding="utf-8")
        self.add(name)


def _prepare_out_dir(out: Path) -> None:
    if not out.exists():
        out.mkdir(parents=True)
        return
    if not out.is_dir():
        raise ConfigError(f"out_dir: {out} exists and is not a directory")
    if not any(out.iterdir()):
        return
    manifest = out / MANIFEST_NAME
    if not manifest.is_file():
        raise ConfigError(
            f"out_dir: {out} is non-empty and has no {MANIFEST_NAME}; refusing to overwrite"
        )
    try:
        doc = json.loads(manifest.read_text(encoding="utf-8"))
        listed = sorted(doc["files"])
    except (ValueError, RecursionError, KeyError, TypeError) as exc:  # as in load_config
        raise ConfigError(f"out_dir: unreadable {MANIFEST_NAME}: {exc}") from exc
    # check every entry before deleting any: a manifest must not reach
    # outside the directory it manages
    root = out.resolve()
    targets = []
    for rel in listed:
        try:
            target = (out / rel).resolve()
        except (TypeError, ValueError):  # not a path string, or a NUL inside
            target = root
        if root not in target.parents:
            raise ConfigError(f"out_dir: {MANIFEST_NAME} entry {rel!r} is not a file inside {out}")
        targets.append(target)
    # a refused run deletes nothing
    managed = {*targets, manifest.resolve()}
    files = [p for p in out.rglob("*") if p.is_file() and p.resolve() not in managed]
    leftovers = sorted(str(p.relative_to(out)) for p in files)
    if leftovers:
        raise ConfigError(f"out_dir: unmanaged files present: {leftovers}")
    for target in targets:
        if target.is_file():
            target.unlink()
    manifest.unlink(missing_ok=True)


def _write_manifest(
    out: Path,
    config_sha256: str,
    relpaths: Sequence[str],
    status: str,
    failed_stage: str | None,
) -> tuple[Path, str]:
    from . import __version__

    files = {}
    for rel in sorted(relpaths):
        digest, size = hashlib.sha256(), 0
        with open(out / rel, "rb") as fh:  # in blocks: an output may be large
            for block in iter(partial(fh.read, 1 << 16), b""):
                digest.update(block)
                size += len(block)
        if status == "complete" and not size:
            raise RuntimeError(f"declared output {rel!r} is empty")
        files[rel] = {"sha256": digest.hexdigest(), "bytes": size}
    doc = {
        "format": MANIFEST_FORMAT,
        "tool": {"name": "freight-resilience", "version": __version__},
        "config_sha256": config_sha256,
        "status": status,
        "failed_stage": failed_stage,
        "files": files,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    path = out / MANIFEST_NAME
    path.write_text(text, encoding="utf-8")
    return path, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verify_managed(out: Path, relpaths: Sequence[str]) -> None:
    # manifest completeness: directory contents and manifest agree
    expected = set(relpaths) | {MANIFEST_NAME}
    actual = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    if expected != actual:
        raise RuntimeError(
            f"output directory out of sync with manifest: "
            f"unlisted={sorted(actual - expected)} missing={sorted(expected - actual)}"
        )


@dataclass(frozen=True)
class ReportBundle:
    out_dir: Path
    files: tuple[str, ...]
    manifest_path: Path
    manifest_sha256: str


# ---------------------------------------------------------------------------
# Stages


def _stage_ingest(config: RunConfig, rec: _Recorder, state: dict) -> None:
    net = load_network(config.nodes, config.edges, column_map=config.column_map)
    if config.mode is not None:
        net = filter_mode(net, config.mode)
    if net.node_count == 0:
        raise DataError(f"no nodes remain after filtering mode={config.mode!r}")
    save_network(net, rec.path("network_nodes.csv"), rec.path("network_edges.csv"))
    rec.add("network_nodes.csv")
    rec.add("network_edges.csv")
    state["net"] = net


def _stage_centrality(config: RunConfig, rec: _Recorder, state: dict) -> None:
    net = state["net"]
    score_sets, rank_keys = all_scores(net)
    write_scores_csv(score_sets, rec.path("centrality_scores.csv"))
    rec.add("centrality_scores.csv")

    names = {node.id: node.name for node in net.nodes}
    static = {}  # each kind's static removal order, for the simulate stage
    for kind, keys in rank_keys.items():
        name = f"ranking_{kind}.csv"
        order = rank_order(keys)
        write_ranking_csv(order, keys, names, rec.path(name))
        rec.add(name)
        static[f"targeted_{kind}"] = RemovalSequence(f"targeted_{kind}", order)
    state["static_sequences"] = static


def _count_profiles(cc: ClimateConfig, net) -> dict[tuple[str, str], HotDayProfile]:
    """Count the daily series into one profile per (model, period label)."""
    periods = (cc.baseline, *cc.futures)
    if cc.series:
        counts = count_series_csv(cc.series, periods, cc.threshold_c)
    else:
        counts = count_gridded_series_csv(cc.grid_series, net.nodes, periods, cc.threshold_c)
    by_model: dict[str, dict[int, tuple[int, ...]]] = {}
    for (model, nid), c in counts.items():
        by_model.setdefault(model, {})[nid] = c
    return {
        (model, period.label): HotDayProfile(
            model, period, {nid: c[i] for nid, c in nodes.items()}, cc.threshold_c
        )
        for model, nodes in by_model.items()
        for i, period in enumerate(periods)
    }


def _stage_climate(config: RunConfig, rec: _Recorder, state: dict) -> None:
    cc = config.climate
    if cc is None:
        return
    net = state["net"]
    if cc.profiles is not None:
        profiles = {
            (prof.model, prof.period.label): prof
            for prof in read_profiles_csv(cc.profiles, cc.periods())
            if prof.threshold_c == cc.threshold_c  # other thresholds are not ours
        }
        source, where = "profiles", f" at threshold {cc.threshold_c}"
        empty = f"{cc.profiles}: no profiles{where}"
    else:
        profiles = _count_profiles(cc, net)
        source, where = "daily series", ""
        empty = "no daily series found in the climate inputs"
    found = sorted({model for model, _ in profiles})
    if not found:
        raise DataError(empty)
    models = sorted(cc.models) if cc.models else found
    missing = sorted(set(models) - set(found))
    if missing:
        raise DataError(f"no {source} for model(s) {missing}{where}")
    profiles = {key: profiles[key] for key in sorted(profiles) if key[0] in models}

    write_profiles_csv(list(profiles.values()), rec.path("hotday_profiles.csv"))
    rec.add("hotday_profiles.csv")

    target = cc.delta_period()
    deltas: dict[str, dict[int, int]] = {}
    for model in models:
        base = profiles.get((model, cc.baseline.label))
        future = profiles.get((model, target.label))
        if base is None or future is None:
            raise DataError(
                f"model {model!r}: profiles missing for {cc.baseline.label} or {target.label}"
            )
        differing = set(base.counts).symmetric_difference(future.counts)
        if differing:
            raise DataError(
                f"model {model!r}: {cc.baseline.label} and {target.label} {source} cover "
                f"different nodes, first differing node id {min(differing)}",
                path=cc.profiles,
            )
        deltas[model] = hot_day_delta(future, base)
        uncovered = [n for n in net.node_ids if n not in deltas[model]]
        if uncovered:
            raise DataError(
                f"model {model!r}: no hot-day data for {len(uncovered)} network node(s), "
                f"first missing id {uncovered[0]}"
            )
        differing = set(deltas[model]).symmetric_difference(deltas[models[0]])
        if differing:
            raise DataError(
                f"model {model!r} covers a different node set than {models[0]!r}: "
                f"first differing node id {min(differing)}"
            )
    write_delta_csv(deltas, rec.path("hotday_deltas.csv"))
    rec.add("hotday_deltas.csv")

    ensemble = ensemble_stats(deltas)
    write_ensemble_csv(ensemble, len(models), rec.path("hotday_ensemble.csv"), "node_id")
    rec.add("hotday_ensemble.csv")

    sequences = [hot_day_sequence(net, deltas[m], m) for m in models]
    k = min(cc.top_k, net.node_count)
    freq = top_k_frequency([seq.order for seq in sequences], k)
    write_table(
        rec.path("hotday_topk.csv"),
        ("node_id", "appearances", "k", "n_models"),
        ([node, freq[node], k, len(models)] for node in rank_order(freq)),
    )
    rec.add("hotday_topk.csv")

    state["hot_day_sequences"] = sequences
    state["hotday_ensemble"] = ensemble


def _stage_simulate(config: RunConfig, rec: _Recorder, state: dict) -> None:
    net = state["net"]
    sequences: list[RemovalSequence] = []
    for scenario in config.scenarios:
        if scenario == "random":
            seqs = [
                random_sequence(net, config.base_seed + i) for i in range(config.seeds)
            ]
        elif scenario in TARGETED_SCENARIOS:
            if config.ranking == "static" and "static_sequences" in state:
                seqs = [state["static_sequences"][scenario]]
            else:  # adaptive, or centrality stage skipped: score only this kind
                seqs = [targeted_sequence(net, scenario.removeprefix("targeted_"), config.ranking)]
        else:  # hot_days; climate stage ran earlier per config validation
            if "hot_day_sequences" not in state:
                raise DataError("hot_days scenario requires climate inputs")
            seqs = state["hot_day_sequences"]
        sequences.extend(seqs)
    write_sequences_csv(sequences, rec.path("sequences.csv"))
    rec.add("sequences.csv")
    curves = _replay_in_workers(net, sequences, rec.path("curves.csv"))
    if curves is None:
        curves = [replay(net, s) for s in sequences]
        write_curves_csv(curves, rec.path("curves.csv"))
    rec.add("curves.csv")
    by_scenario: dict[str, list[RobustnessCurve]] = {s: [] for s in config.scenarios}
    for curve in curves:
        by_scenario[curve.scenario].append(curve)
    state["sequences"] = sequences
    state["curves_by_scenario"] = by_scenario


# Measured on a 2-CPU host, pool start included, replaying and rendering
# 2,000-node random trials: 2 workers took about the in-process time at
# 20k rows, 0.83x at 40k and 0.74x at 60k, so fewer rows are replayed
# in-process (static-500 has 28k). Small tasks keep small what the parent
# holds of the workers' results: 100 trials in tasks of 13, 4 and 2 trials
# peaked at 62-65, 56-57 and 55 MB, against 46 MB in-process, so a task
# has about _TASK_ROWS rows.
_REPLAY_SERIAL_BELOW_ROWS = 50_000
_TASK_ROWS = 4096


def _replay_in_workers(
    net, sequences: list[RemovalSequence], path: Path
) -> list[RobustnessCurve] | None:
    """``replay`` of each sequence, in order, with the curves written to
    ``path`` as ``write_curves_csv`` writes them: ``fork_map`` workers replay
    and render contiguous slices of ``sequences``, and each slice's block is
    written as it arrives. None, for the caller to replay in-process, where
    the curves have few rows, and after any fault."""
    rows = sum(len(s.order) + 1 for s in sequences)
    workers = pool_size(rows, _REPLAY_SERIAL_BELOW_ROWS)
    if workers < 2:
        return None
    step = max(1, len(sequences) * _TASK_ROWS // rows)
    slices = [(i, i + step) for i in range(0, len(sequences), step)]

    def task(start: int, end: int) -> tuple[list[RobustnessCurve], str]:
        curves = [replay(net, s) for s in sequences[start:end]]
        return curves, "".join(map(render_curve, curves))

    def consume(parts) -> list[RobustnessCurve]:
        curves: list[RobustnessCurve] = []

        def blocks():
            for part, text in parts:
                curves.extend(part)
                yield text

        write_curve_blocks(blocks(), path)
        return curves

    return fork_map(task, slices, consume, workers)


def _plot_limits(sequences: Sequence[RemovalSequence]) -> dict[str, int]:
    # hot-day plots stop once every model has run out of positively
    # affected nodes; the CSVs keep the full curves
    hot = [s for s in sequences if s.scenario == "hot_days"]
    if not hot:
        return {}
    boundary = max(len(s.order) - len(s.beyond_criterion) for s in hot)
    return {"hot_days": max(boundary, 1)}


def emit_report(
    by_scenario: Mapping[str, Sequence[RobustnessCurve]],
    scenario_order: Sequence[str],
    threshold: float,
    rec: _Recorder,
    *,
    mode: str | None = None,
    sequences: Sequence[RemovalSequence] = (),
    map_points: Sequence[tuple[float, float, float]] = (),
) -> None:
    """Collapse tables, per-step ensembles, and SVG plots from curves, all
    read from one ``aggregate_curves`` pass per scenario."""
    collapse_rows, ensemble_rows = [], []
    ensembles = {}  # the multi-curve scenarios' ensembles, for their CSVs and bands
    for scenario in scenario_order:
        curves = by_scenario[scenario]
        ens = aggregate_curves(curves, threshold)
        # one row per (scenario, model) cell: random seeds collapse to their
        # mean fraction, and a cell where any curve never collapses has none
        cells: dict[str | None, list] = {}
        for curve, point in zip(curves, ens.collapse_points):
            cells.setdefault(curve.model, []).append(point)
        for model, points in cells.items():
            value = None if None in points else math.fsum(p[1] for p in points) / len(points)
            collapse_rows.append([scenario, model, threshold, value])
        s = ens.collapse
        spread = [None] * 4 if s is None else [s.mean, s.sd, s.min, s.max]
        ensemble_rows.append([scenario, threshold, *spread, ens.n_curves])
        if ens.n_curves > 1:
            ensembles[scenario] = ens

    write_table(
        rec.path("collapse.csv"),
        ("scenario", "model", "threshold", "collapse_fraction"),
        collapse_rows,
    )
    rec.add("collapse.csv")
    for ens in ensembles.values():
        for target, stats in (("scf", ens.scf), ("tonnage_fraction", ens.tonnage_fraction)):
            name = f"ensemble_{target}_{ens.scenario}.csv"
            write_ensemble_csv(stats, ens.n_curves, rec.path(name), "step")
            rec.add(name)
    write_table(
        rec.path("collapse_ensemble.csv"),
        ("scenario", "threshold", "mean", "sd", "min", "max", "n_curves"),
        ensemble_rows,
    )
    rec.add("collapse_ensemble.csv")

    limits = _plot_limits(sequences)
    where = f" ({mode})" if mode else ""

    def chart(field: str, title: str, y_label: str) -> str:
        # one line per scenario: a lone curve drawn as itself, else the plain
        # per-step mean in its min-max band
        series: list[LineSeries] = []
        bands: list[Band] = []
        for i, scenario in enumerate(scenario_order):
            head = by_scenario[scenario][0]
            color = PALETTE[i % len(PALETTE)]
            stop = limits.get(scenario, len(head.ff) - 1) + 1
            xs = head.fraction_removed[:stop]
            ens = ensembles.get(scenario)
            if ens is None:
                series.append(LineSeries(scenario, tuple(zip(xs, getattr(head, field))), color))
                continue
            stats = getattr(ens, field)
            lo = tuple((x, stats[j].min) for j, x in enumerate(xs))
            hi = tuple((x, stats[j].max) for j, x in enumerate(xs))
            bands.append(Band(lo, hi, color))
            pts = tuple(zip(xs, getattr(ens, f"{field}_mean")))
            series.append(LineSeries(f"{scenario} (mean of {ens.n_curves})", pts, color))
        return line_chart(
            series,
            title=f"{title}{where}",
            x_label="fraction of nodes removed",
            y_label=y_label,
            bands=bands,
        )

    rec.write_text("robustness.svg", chart("scf", "Robustness under node disruption", "SCF"))
    rec.write_text(
        "tonnage.svg",
        chart("tonnage_fraction", "Tonnage capacity under node disruption", "tonnage fraction"),
    )
    if map_points:
        rec.write_text(
            "hotday_map.svg",
            scatter_map(
                map_points,
                title="Projected change in hot days per year-window",
                value_label="delta",
            ),
        )


def _stage_report(config: RunConfig, rec: _Recorder, state: dict) -> None:
    net = state["net"]
    map_points: list[tuple[float, float, float]] = []
    if "hotday_ensemble" in state:
        stats = state["hotday_ensemble"]
        map_points = [
            (node.lon, node.lat, stats[node.id].mean) for node in net.nodes if node.id in stats
        ]
    emit_report(
        state["curves_by_scenario"],
        config.scenarios,
        config.collapse_threshold,
        rec,
        mode=config.mode,
        sequences=state.get("sequences", ()),
        map_points=map_points,
    )


_STAGE_FNS = {
    "ingest": _stage_ingest,
    "centrality": _stage_centrality,
    "climate": _stage_climate,
    "simulate": _stage_simulate,
    "report": _stage_report,
}


def _emit(
    out: Path, digest: str, stages: Sequence[tuple[str, Callable[[_Recorder], None]]]
) -> ReportBundle:
    """Prepare ``out``, run the named stages into it in order, and seal it
    with a manifest; a failing stage is handled as ``run`` describes."""
    _prepare_out_dir(out)
    rec = _Recorder(out)
    for name, stage in stages:
        try:
            stage(rec)
        except Exception as exc:
            _write_manifest(out, digest, rec.relpaths, "incomplete", name)
            if isinstance(exc, PipelineError):
                raise
            raise PipelineError(name, exc) from exc
    manifest_path, manifest_sha = _write_manifest(out, digest, rec.relpaths, "complete", None)
    _verify_managed(out, rec.relpaths)
    return ReportBundle(
        out_dir=out,
        files=tuple(rec.relpaths),
        manifest_path=manifest_path,
        manifest_sha256=manifest_sha,
    )


def run(config: RunConfig, stages: Sequence[str] = STAGES) -> ReportBundle:
    """Execute the pipeline and return the emitted bundle.

    On a stage failure the manifest is still written, with status
    "incomplete" and the failing stage's name, then the error is
    re-raised wrapped as PipelineError.
    """
    unknown = [s for s in stages if s not in _STAGE_FNS]
    if unknown:
        raise ConfigError(f"unknown stage(s) {unknown}")
    config.validate()
    state: dict = {}
    return _emit(
        Path(config.out_dir),
        _digest_of(config_digest_dict(config)),
        [(s, partial(_STAGE_FNS[s], config, state=state)) for s in STAGES if s in stages],
    )


def report_from_curves(curves_csv, out_dir, threshold: float = DEFAULT_COLLAPSE_THRESHOLD) -> ReportBundle:
    """Rebuild collapse tables, ensembles, and plots from a curves CSV."""
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"collapse threshold must be in (0, 1), got {threshold}")
    curves = read_curves_csv(curves_csv)
    if not curves:
        raise DataError("curves file contains no curves", path=curves_csv)
    by_scenario: dict[str, list[RobustnessCurve]] = {}
    for curve in curves:
        # a scenario name becomes part of an output file name
        if curve.scenario not in SCENARIOS:
            raise DataError(f"unknown scenario {curve.scenario!r}", path=curves_csv)
        group = by_scenario.setdefault(curve.scenario, [])
        head = group[0] if group else curve
        # the ensembles and plots compare curves of one scenario step by step
        if (curve.n_nodes, len(curve.ff)) != (head.n_nodes, len(head.ff)):
            raise DataError(
                f"scenario {curve.scenario!r}: curves have mismatched shapes "
                f"({head.n_nodes} nodes, {len(head.ff)} steps vs "
                f"{curve.n_nodes} nodes, {len(curve.ff)} steps)",
                path=curves_csv,
            )
        group.append(curve)
    return _emit(
        Path(out_dir),
        _digest_of({"curves_csv": str(curves_csv), "collapse_threshold": threshold}),
        [("report", partial(emit_report, by_scenario, list(by_scenario), threshold))],
    )
