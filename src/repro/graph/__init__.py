"""Graph substrate: CSR storage, generators, datasets, statistics.

The paper stores graphs in compressed sparse row (CSR) format with the
vertex list in GPU memory and the 8-byte-per-ID edge list on external
memory (Section 2.1).  This subpackage provides that representation plus
the synthetic generators standing in for the paper's datasets (Table 1).
"""

from .. import _attach

__all__ = [
    "CSRGraph",
    "build_csr",
    "symmetrize_edges",
    "dedupe_edges",
    "uniform_random_graph",
    "kronecker_graph",
    "chung_lu_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "paper_table1",
    "GraphStats",
    "graph_stats",
    "table1_row",
    "StripedLayout",
    "stripe_layout",
    "degree_sort_order",
    "bfs_order",
    "random_order",
    "apply_order",
    "relabel_gain",
    "PaddedLayout",
    "padded_layout",
    "padded_trace",
    "padding_tradeoff",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".csr": ("CSRGraph",),
        ".builder": ("build_csr", "symmetrize_edges", "dedupe_edges"),
        ".generators": (
            "uniform_random_graph", "kronecker_graph", "chung_lu_graph",
            "path_graph", "star_graph", "complete_graph", "grid_graph",
        ),
        ".datasets": (
            "DATASETS", "DatasetSpec", "load_dataset", "paper_table1",
        ),
        ".stats": ("GraphStats", "graph_stats", "table1_row"),
        ".partition": ("StripedLayout", "stripe_layout"),
        ".formats": (
            "PaddedLayout", "padded_layout", "padded_trace",
            "padding_tradeoff",
        ),
        ".reorder": (
            "degree_sort_order", "bfs_order", "random_order", "apply_order",
            "relabel_gain",
        ),
    },
)
