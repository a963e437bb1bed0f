"""Graph statistics used throughout the evaluation.

:func:`graph_stats` computes the quantities Table 1 reports (vertex and
edge counts, edge-list bytes, average degree over non-isolated vertices,
average sublist bytes) plus the degree-distribution summaries that explain
*why* the datasets amplify differently in Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import VERTEX_ID_BYTES
from ..units import GB
from .csr import CSRGraph, sorted_unique

__all__ = ["GraphStats", "graph_stats", "table1_row", "degree_histogram"]


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a CSR graph (Table 1 columns and more)."""

    name: str
    num_vertices: int
    num_edges: int
    edge_list_bytes: int
    avg_degree: float
    avg_sublist_bytes: float
    max_degree: int
    median_degree: float
    isolated_vertices: int
    degree_p99: float

    def as_dict(self) -> dict[str, float | int | str]:
        """Plain-dict view for report tables."""
        return {
            "dataset": self.name,
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "edge_list_bytes": self.edge_list_bytes,
            "avg_degree": self.avg_degree,
            "sublist_bytes": self.avg_sublist_bytes,
            "max_degree": self.max_degree,
            "median_degree": self.median_degree,
            "isolated": self.isolated_vertices,
            "degree_p99": self.degree_p99,
        }


def graph_stats(graph: CSRGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``.

    Average degree excludes isolated (0-degree) vertices, matching the
    Table 1 footnote.
    """
    deg = graph.degrees
    nonzero = deg[deg > 0]
    avg = float(nonzero.mean()) if nonzero.size else 0.0
    return GraphStats(
        name=graph.name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        edge_list_bytes=graph.edge_list_bytes,
        avg_degree=avg,
        avg_sublist_bytes=avg * VERTEX_ID_BYTES,
        max_degree=int(deg.max()) if deg.size else 0,
        median_degree=float(np.median(nonzero)) if nonzero.size else 0.0,
        isolated_vertices=int((deg == 0).sum()),
        degree_p99=float(np.percentile(nonzero, 99)) if nonzero.size else 0.0,
    )


def table1_row(graph: CSRGraph) -> dict[str, float | int | str]:
    """The measured counterpart of one Table 1 row for ``graph``."""
    stats = graph_stats(graph)
    return {
        "dataset": stats.name,
        "vertices": stats.num_vertices,
        "edges": stats.num_edges,
        "edge_list_gb": stats.edge_list_bytes / GB,
        "avg_degree": stats.avg_degree,
        "sublist_bytes": stats.avg_sublist_bytes,
    }


def degree_histogram(graph: CSRGraph, bins: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Log-spaced degree histogram ``(bin_edges, counts)``.

    Useful for eyeballing that the Kronecker / Chung-Lu generators produce
    the heavy tails that drive their higher RAF at large alignments.
    """
    deg = graph.degrees[graph.degrees > 0]
    if deg.size == 0:
        return np.array([1.0]), np.array([], dtype=np.int64)
    edges = sorted_unique(
        np.geomspace(1, max(2, deg.max() + 1), num=bins + 1).astype(np.int64)
    )
    counts, _ = np.histogram(deg, bins=edges)
    return edges, counts
