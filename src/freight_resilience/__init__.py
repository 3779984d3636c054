"""Robustness and resilience analysis of rail and water freight networks.

The package simulates node disruptions (random, centrality-targeted, and
hot-day driven) on undirected freight networks, tracks the surviving
connectivity (SCF) and tonnage capacity along each removal sequence, and
aggregates results across a climate-model ensemble.
"""

__version__ = "0.1.0"

from .network import FreightNetwork, NodeRecord, average_degree, load_network, remove_nodes
from .centrality import (
    CentralityScores,
    RankedNodes,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    rank_nodes,
)
from .climate import (
    EnsembleSummary,
    HotDayProfile,
    PeriodSpec,
    ensemble_stats,
    hot_day_delta,
    map_nodes_to_grid,
    top_k_frequency,
)
from .disruption import RemovalSequence, hot_day_sequence, random_sequence, targeted_sequence
from .metrics import (
    CollapseRow,
    CurveEnsemble,
    RobustnessCurve,
    aggregate_curves,
    collapse_point,
    gcc_size,
    replay,
)
from .pipeline import ReportBundle, RunConfig, run

__all__ = [
    "CentralityScores",
    "CollapseRow",
    "CurveEnsemble",
    "EnsembleSummary",
    "FreightNetwork",
    "HotDayProfile",
    "NodeRecord",
    "PeriodSpec",
    "RankedNodes",
    "RemovalSequence",
    "ReportBundle",
    "RobustnessCurve",
    "RunConfig",
    "average_degree",
    "betweenness_centrality",
    "closeness_centrality",
    "collapse_point",
    "degree_centrality",
    "ensemble_stats",
    "gcc_size",
    "hot_day_delta",
    "hot_day_sequence",
    "load_network",
    "map_nodes_to_grid",
    "rank_nodes",
    "random_sequence",
    "remove_nodes",
    "replay",
    "run",
    "targeted_sequence",
    "top_k_frequency",
]
