"""moddiv: divisive community detection with modularity scoring.

Graph communities are found by repeatedly removing edges that sit between
dense regions (lowest edge clustering coefficient, or highest edge
betweenness), accepting each split only when global modularity improves,
and letting borderline vertices migrate to wherever they fit best.
"""

from .bench import ALGORITHMS, DATASETS, BenchRow, run_bench
from .engine import (
    Bisection,
    ConfigError,
    Dendrogram,
    DetectionResult,
    EngineConfig,
    RefinementMove,
    TraceEntry,
    bisect_community,
    refine,
    run_ccr,
    run_ccr_ebr,
)
from .graph import (
    Graph,
    GraphLoadError,
    LoadWarnings,
    Subgraph,
    connected_components,
    load_edge_list,
    load_gml,
    write_edge_list,
    write_gml,
)
from .measures import (
    BETWEENNESS,
    CLUSTERING_G3,
    CLUSTERING_G4,
    EdgeScoreTable,
    compute_scores,
    edge_betweenness,
    edge_clustering_g3,
    edge_clustering_g4,
    rescore_after_removal,
)
from .modularity import (
    Partition,
    modularity_q,
    modularity_q_pairwise,
    move_q,
    partition_to_tsv,
)
from .oracles import (
    OracleReport,
    betweenness_naive,
    cycle_count_naive,
    exhaustive_best_partition,
    run_verification_suite,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BETWEENNESS",
    "BenchRow",
    "Bisection",
    "CLUSTERING_G3",
    "CLUSTERING_G4",
    "ConfigError",
    "DATASETS",
    "Dendrogram",
    "DetectionResult",
    "EdgeScoreTable",
    "EngineConfig",
    "Graph",
    "GraphLoadError",
    "LoadWarnings",
    "OracleReport",
    "Partition",
    "RefinementMove",
    "Subgraph",
    "TraceEntry",
    "betweenness_naive",
    "bisect_community",
    "compute_scores",
    "connected_components",
    "cycle_count_naive",
    "edge_betweenness",
    "edge_clustering_g3",
    "edge_clustering_g4",
    "exhaustive_best_partition",
    "load_edge_list",
    "load_gml",
    "modularity_q",
    "modularity_q_pairwise",
    "move_q",
    "partition_to_tsv",
    "refine",
    "rescore_after_removal",
    "run_bench",
    "run_ccr",
    "run_ccr_ebr",
    "run_verification_suite",
    "write_edge_list",
    "write_gml",
]
