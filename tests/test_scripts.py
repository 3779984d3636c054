"""The two scripts under ``scripts/`` run end to end on synthetic inputs."""

import re

import pytest

from conftest import load_script
from freight_resilience.centrality import betweenness_exact, rank_order
from freight_resilience.network import load_network
from freight_resilience.synth import SynthSpec, generate_synthetic


def test_run_demo_prints_the_collapse_table(tmp_path, capsys):
    run_demo = load_script("run_demo")
    assert run_demo.main(["--workdir", str(tmp_path), "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    table = out[out.index("\nscenario "):].split("\n\n")[0].split("\n")[1:]
    assert table[0].split() == ["scenario", "model", "collapse", "fraction"]
    assert [line.split()[0] for line in table[1:]] == [
        "random",
        "targeted_degree",
        "targeted_closeness",
        "targeted_betweenness",
        "hot_days",
        "hot_days",
    ]
    assert (tmp_path / "out" / "collapse.csv").is_file()


def write_ftot_stand_ins(root, rail_nodes):
    """Synthetic networks in the FTOT export layout (``<mode>_nodes.csv``,
    ``<mode>_edges.csv``): ``rail_nodes`` rail nodes and 12 water nodes."""
    for mode, n_nodes, degree in (("rail", rail_nodes, 6.0), ("water", 12, 3.0)):
        staging = root / mode
        spec = SynthSpec(n_nodes=n_nodes, avg_degree=degree, seed=3, mode=mode, models=())
        paths = generate_synthetic(spec, staging)
        for role in ("nodes", "edges"):
            paths[role].rename(root / f"{mode}_{role}.csv")
    return root


@pytest.fixture
def ftot_stand_ins(tmp_path):
    # the rail network is large enough for the 20-removal tonnage check
    return write_ftot_stand_ins(tmp_path, 30)


def test_ftot_repro_runs_on_stand_ins(ftot_stand_ins, capsys):
    ftot_repro = load_script("ftot_repro")
    assert ftot_repro.main([str(ftot_stand_ins)]) in (0, 1)
    out = capsys.readouterr().out
    assert re.search(r"^rail network \(30 nodes, \d+ edges\)$", out, re.M)
    assert re.search(r"^water network \(12 nodes, \d+ edges\)$", out, re.M)
    water = load_network(ftot_stand_ins / "water_nodes.csv", ftot_stand_ins / "water_edges.csv")
    exact = betweenness_exact(water)
    expected = [
        f"  {rank}. {water.node_by_id[node].name} ({float(exact[node]):.1f})"
        for rank, node in enumerate(rank_order(exact)[:5], 1)
    ]
    assert out[out.index("water betweenness top 5:"):].splitlines()[1:6] == expected


def test_ftot_repro_fails_the_tonnage_check_on_a_small_rail_network(tmp_path, capsys):
    # 12 rail nodes allow only 12 removals: the check after 20 fails, and
    # the other checks still run
    ftot_repro = load_script("ftot_repro")
    assert ftot_repro.main([str(write_ftot_stand_ins(tmp_path, 12))]) == 1
    out = capsys.readouterr().out
    check = re.search(r"^  rail tonnage fraction after 20 removals +measured (.*)$", out, re.M)
    assert check and check[1].startswith("nan ") and check[1].endswith("[MISMATCH]")
    assert "water betweenness top 5:" in out
    assert out.rstrip().endswith("some checks FAILED")
