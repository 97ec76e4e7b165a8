"""moddiv: divisive community detection with modularity scoring.

Graph communities are found by repeatedly removing edges that sit between
dense regions (lowest edge clustering coefficient, or highest edge
betweenness), accepting each split only when global modularity improves,
and letting borderline vertices migrate to wherever they fit best.
"""

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

__version__ = "0.1.0"

__all__ = [
    "BETWEENNESS",
    "Bisection",
    "CLUSTERING_G3",
    "CLUSTERING_G4",
    "ConfigError",
    "Dendrogram",
    "DetectionResult",
    "EdgeScoreTable",
    "EngineConfig",
    "Graph",
    "GraphLoadError",
    "LoadWarnings",
    "Partition",
    "RefinementMove",
    "Subgraph",
    "TraceEntry",
    "bisect_community",
    "compute_scores",
    "connected_components",
    "edge_betweenness",
    "edge_clustering_g3",
    "edge_clustering_g4",
    "load_edge_list",
    "load_gml",
    "modularity_q",
    "modularity_q_pairwise",
    "move_q",
    "partition_to_tsv",
    "refine",
    "rescore_after_removal",
    "run_ccr",
    "run_ccr_ebr",
    "write_edge_list",
    "write_gml",
]
