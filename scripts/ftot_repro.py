#!/usr/bin/env python3
"""Reproduce the published 2022 US freight-network figures.

Needs a directory holding FTOT-derived exports in the canonical CSV
layout: rail_nodes.csv, rail_edges.csv, water_nodes.csv, water_edges.csv
(node columns id,name,mode,lat,lon,tonnage; edge columns src,dst). The
directory is taken from the command line or FREIGHT_RESILIENCE_FTOT_DIR.

Prints measured vs expected values and exits 1 on any mismatch.
"""

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from freight_resilience.centrality import betweenness_exact, rank_order
from freight_resilience.disruption import targeted_sequence
from freight_resilience.metrics import collapse_point, replay
from freight_resilience.network import average_degree, load_network

ENV_VAR = "FREIGHT_RESILIENCE_FTOT_DIR"

EXPECTED = {
    "rail": {"nodes": 84, "avg_degree": (20.19, 0.01), "collapse": (0.46, 0.02)},
    "water": {"nodes": 47, "avg_degree": (6.55, 0.01), "collapse": (0.23, 0.02)},
}


def check(label: str, measured, expected, tol=None) -> bool:
    if tol is None:
        ok = measured == expected
        shown, want = f"{measured}", f"{expected}"
    else:
        ok = abs(measured - expected) <= tol
        shown, want = f"{measured:.4f}", f"{expected} +/- {tol}"
    mark = "ok" if ok else "MISMATCH"
    print(f"  {label:<42} measured {shown}  expected {want}  [{mark}]")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "data_dir",
        nargs="?",
        default=os.environ.get(ENV_VAR),
        help=f"directory with the four export CSVs (default: ${ENV_VAR})",
    )
    args = parser.parse_args(argv)
    if not args.data_dir:
        parser.error(f"no data directory given and {ENV_VAR} is not set")
    data = Path(args.data_dir)

    all_ok = True
    curves = {}
    for mode in ("rail", "water"):
        net = load_network(data / f"{mode}_nodes.csv", data / f"{mode}_edges.csv")
        exp = EXPECTED[mode]
        print(f"{mode} network ({net.node_count} nodes, {net.edge_count} edges)")
        all_ok &= check("node count", net.node_count, exp["nodes"])
        all_ok &= check("average degree", average_degree(net), *exp["avg_degree"])
        curve = replay(net, targeted_sequence(net, "degree"))
        curves[mode] = (net, curve)
        point = collapse_point(curve, 0.10)
        frac = point[1] if point else float("nan")
        all_ok &= check("targeted-degree collapse fraction", frac, *exp["collapse"])

    rail_net, rail_curve = curves["rail"]
    tonnage = rail_curve.tonnage_fraction
    all_ok &= check(
        "rail tonnage fraction after 20 removals",
        tonnage[20] if len(tonnage) > 20 else float("nan"),  # a network of 20 nodes or fewer
        0.30,
        0.03,
    )

    water_net, _ = curves["water"]
    exact = betweenness_exact(water_net)
    top = rank_order(exact)[:5]
    print("water betweenness top 5:")
    for rank, node in enumerate(top, 1):
        print(f"  {rank}. {water_net.node_by_id[node].name} ({float(exact[node]):.1f})")
    top_name = water_net.node_by_id[top[0]].name
    all_ok &= check("top water hub", "new orleans" in top_name.lower(), True)

    print("all checks passed" if all_ok else "some checks FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
