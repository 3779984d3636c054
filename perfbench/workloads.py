"""The four benchmark workloads: inputs from a seed, pipeline calls, output digests.

Each workload drives the package only through its public entry points
(``load_config``, ``run`` and ``report_from_curves``) on synthetic inputs
made with ``synth``. The seed passed to the benchmark is the synthetic-data
seed; the program itself only ever sees the generated files.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

from freight_resilience.climate import (
    BASELINE,
    FUTURE_FAR,
    FUTURE_NEAR,
    HotDayProfile,
    PeriodSpec,
    write_profiles_csv,
)
from freight_resilience.disruption import SCENARIOS
from freight_resilience.pipeline import (
    MANIFEST_NAME,
    RunConfig,
    load_config,
    report_from_curves,
    run,
)
from freight_resilience.synth import DEFAULT_MODELS, SynthSpec, generate_synthetic

PROFILE_MODELS = ("mA", "mB", "mC")
SIMULATE_PREFIX = ("ingest", "climate", "simulate")


@dataclass(frozen=True)
class Workload:
    name: str
    n_nodes: int
    avg_degree: float
    seeds: int  # random-removal trials
    scenarios: tuple[str, ...] = SCENARIOS
    ranking: str = "static"
    # daily series over these years (split into three equal periods);
    # None means precomputed hot-day profiles instead
    series_years: tuple[int, int] | None = None
    threshold_c: float | None = None
    # simulate stage prefix, then report_from_curves on its curves.csv
    replay_report: bool = False


# why each workload was chosen: BENCHMARK.json (short) and baseline.json (long)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "static-500",
            n_nodes=500,
            avg_degree=4.0,
            seeds=50,
        ),
        Workload(
            "adaptive-rail-84",
            n_nodes=84,
            avg_degree=20.19,
            seeds=10,
            ranking="adaptive",
        ),
        Workload(
            "replay-2000",
            n_nodes=2000,
            avg_degree=4.0,
            seeds=100,
            scenarios=("random", "targeted_degree", "hot_days"),
            replay_report=True,
        ),
        Workload(
            "climate-series",
            n_nodes=40,
            avg_degree=4.0,
            seeds=10,
            series_years=(1991, 2020),
            threshold_c=30.0,
        ),
    )
}

# Tiny sizes for the harness's own test: same code paths, seconds to run.
SMOKE = {
    "static-500": dict(n_nodes=12, seeds=3),
    "adaptive-rail-84": dict(n_nodes=10, avg_degree=4.0, seeds=2),
    "replay-2000": dict(n_nodes=15, seeds=3),
    "climate-series": dict(n_nodes=6, seeds=2, series_years=(1991, 1993)),
}


def get(name: str, smoke: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **SMOKE[name]) if smoke else workload


def _periods(years: tuple[int, int]) -> tuple[PeriodSpec, PeriodSpec, PeriodSpec]:
    start, end = years
    span = (end - start + 1) // 3
    bounds = [(start + k * span, start + (k + 1) * span - 1) for k in range(3)]
    return tuple(PeriodSpec(f"{a}-{b}", a, b) for a, b in bounds)


def _write_profiles(n_nodes: int, seed: int, path: Path) -> None:
    # the construction of tests/test_acceptance.py::demo_config, with the
    # benchmark seed mixed in so every input follows from it
    profiles = []
    for m in PROFILE_MODELS:
        for p_idx, period in enumerate((BASELINE, FUTURE_NEAR, FUTURE_FAR)):
            counts = {
                i: hashlib.sha256(f"{seed}:{m}:{period.label}:{i}".encode()).digest()[0]
                % (40 * (p_idx + 1))
                for i in range(1, n_nodes + 1)
            }
            profiles.append(HotDayProfile(m, period, counts))
    write_profiles_csv(profiles, path)


def setup(workload: Workload, seed: int, work_dir: Path) -> RunConfig:
    """Generate the workload's inputs under ``work_dir`` and load its config."""
    data = work_dir / "data"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    if workload.series_years is None:
        spec = SynthSpec(workload.n_nodes, workload.avg_degree, seed, models=())
    else:
        start, end = workload.series_years
        spec = SynthSpec(
            workload.n_nodes,
            workload.avg_degree,
            seed,
            models=DEFAULT_MODELS,
            start_year=start,
            end_year=end,
        )
    paths = generate_synthetic(spec, data)
    if workload.series_years is None:
        _write_profiles(workload.n_nodes, seed, data / "profiles.csv")
        climate: dict = {"profiles": "data/profiles.csv"}
    else:
        base, *futures = _periods(workload.series_years)
        climate = {
            "series": [f"data/{paths[f'series:{m}'].name}" for m in DEFAULT_MODELS],
            "threshold_c": workload.threshold_c,
            "baseline": _period_doc(base),
            "futures": [_period_doc(p) for p in futures],
        }
    doc = {
        "nodes": "data/nodes.csv",
        "edges": "data/edges.csv",
        "out_dir": "out",
        "scenarios": list(workload.scenarios),
        "seeds": workload.seeds,
        "ranking": workload.ranking,
        "climate": climate,
    }
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return load_config(config_path)


def _period_doc(p: PeriodSpec) -> dict:
    return {"label": p.label, "start_year": p.start_year, "end_year": p.end_year}


def out_dirs(work_dir: Path) -> tuple[Path, Path]:
    return work_dir / "out", work_dir / "report"


def execute(workload: Workload, config: RunConfig, work_dir: Path) -> list:
    """The measured pipeline call or calls; returns their ReportBundles."""
    if not workload.replay_report:
        return [run(config)]
    out, report = out_dirs(work_dir)
    simulated = run(config, stages=SIMULATE_PREFIX)
    return [
        simulated,
        report_from_curves(out / "curves.csv", report, threshold=config.collapse_threshold),
    ]


def output_digests(bundles) -> tuple[dict[str, str], int]:
    """Per-file sha256 of every output, from each manifest and re-hashed on disk.

    Raises ValueError unless every manifest says ``complete`` and lists
    exactly the bytes found on disk. The manifest bytes themselves are
    not compared: its ``config_sha256`` covers absolute input paths.
    Returns the digests keyed ``<out dir name>/<file>`` and the total
    bytes written.
    """
    digests: dict[str, str] = {}
    total = 0
    for bundle in bundles:
        out = Path(bundle.out_dir)
        doc = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
        if doc.get("status") != "complete":
            raise ValueError(f"{out.name}: manifest status {doc.get('status')!r}")
        for rel, entry in doc["files"].items():
            data = (out / rel).read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            if sha != entry["sha256"] or len(data) != entry["bytes"]:
                raise ValueError(f"{out.name}/{rel}: bytes on disk differ from the manifest")
            digests[f"{out.name}/{rel}"] = sha
            total += len(data)
    return digests, total


def combined_digest(digests: dict[str, str]) -> str:
    blob = json.dumps(digests, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
