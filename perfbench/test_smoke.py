"""The benchmark's own test: every workload at smoke size, untraced and traced.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from types import SimpleNamespace

import pytest

from tracing import Tracer, _covered

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# exact work counts at smoke size (12 and 10 nodes)
SMOKE_COUNTS = {
    "static-500": {
        "centrality.betweenness_exact.calls": 2,
        "centrality.closeness_centrality.calls": 3,
        "centrality.sweeps": 5,
        "centrality.bfs_sources": 5 * 12,
        "network.remove_nodes.calls": 0,
    },
    "adaptive-rail-84": {
        "centrality.sweeps": 3 + 2 * 10,
        "centrality.bfs_sources": 3 * 10 + 2 * sum(range(1, 11)),
        "network.remove_nodes.calls": 3 * 10,
    },
}


def _bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_reports_end_to_end_metrics(workload):
    result = _bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_reports_per_layer_metrics(workload):
    result = _bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, count in SMOKE_COUNTS.get(workload, {}).items():
        assert result["metrics"][name]["value"] == count, name


def test_overlapping_spans_count_once():
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.8)]) == 4.0
    assert _covered([]) == 0.0


def test_sweeps_counted_per_network_from_the_searches():
    # one pass shared by two scores counts once; a pass over one
    # component of a network counts as a sweep of that network
    module = SimpleNamespace(_bfs_counts=lambda adj, source: source)
    tracer = Tracer()
    tracer._count_sources(module, "_bfs_counts")
    whole, other = {1: (2,), 2: (1,), 3: ()}, {1: ()}
    for source in whole:
        module._bfs_counts(whole, source)
    for source in (1, 2):
        module._bfs_counts(whole, source)
    module._bfs_counts(other, 1)
    assert tracer.sweep_counts() == {"centrality.sweeps": 3, "centrality.bfs_sources": 6}
    tracer.restore()
    assert module._bfs_counts(whole, 3) == 3 and tracer.sweep_counts()["centrality.bfs_sources"] == 6


def test_refuses_without_package_source(tmp_path):
    # a directory holding only the benchmark: no result, non-zero exit
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")
    cmd = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
