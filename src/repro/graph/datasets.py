"""Dataset registry mirroring Table 1 of the paper.

The paper's datasets (urand27, kron27, Friendster) hold 3.6-4.4 billion
edges — far beyond what a pure-Python reproduction should materialise.
The registry maps each paper dataset to a *scaled* synthetic equivalent
that preserves the properties the paper's analysis actually depends on:
the degree distribution family and the average degree / edge-sublist size
(Table 1's rightmost column), which drive read amplification and transfer
sizes.  Scale is a free parameter; ``DEFAULT_SCALE`` (2**16 vertices) keeps
every experiment comfortably laptop-sized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..config import VERTEX_ID_BYTES
from ..core.evalcache import graph_memo
from ..errors import GraphGenerationError
from ..units import GB
from .csr import CSRGraph
from .generators import chung_lu_graph, kronecker_graph, uniform_random_graph

__all__ = ["DatasetSpec", "DATASETS", "DEFAULT_SCALE", "load_dataset", "paper_table1"]

#: Default reproduction scale (log2 of the vertex count).
DEFAULT_SCALE = 16


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 1 plus the recipe for its scaled equivalent.

    ``paper_*`` fields record the numbers the paper reports so that the
    Table 1 bench can print paper-vs-measured side by side.
    """

    name: str
    paper_vertices: float
    paper_edges: float
    paper_avg_degree: float
    generator: Callable[..., CSRGraph]
    generator_kwargs: Mapping[str, float]

    @property
    def paper_edge_list_gb(self) -> float:
        """Edge list size in GB as in Table 1 (8 B per vertex ID)."""
        return self.paper_edges * VERTEX_ID_BYTES / GB

    @property
    def paper_sublist_bytes(self) -> float:
        """Average edge-sublist size in bytes as in Table 1."""
        return self.paper_avg_degree * VERTEX_ID_BYTES

    def build(self, scale: int = DEFAULT_SCALE, seed: int = 0) -> CSRGraph:
        """Instantiate the scaled dataset at ``2**scale`` vertices."""
        graph = self.generator(scale, seed=seed, **dict(self.generator_kwargs))
        return CSRGraph(
            graph.indptr,
            graph.indices,
            graph.weights,
            name=f"{self.name}@{scale}",
        )


DATASETS: dict[str, DatasetSpec] = {
    "urand": DatasetSpec(
        name="urand",
        paper_vertices=134e6,
        paper_edges=4.4e9,
        paper_avg_degree=32.0,
        generator=uniform_random_graph,
        generator_kwargs={"avg_degree": 32.0},
    ),
    "kron": DatasetSpec(
        name="kron",
        paper_vertices=134e6,
        paper_edges=4.2e9,
        paper_avg_degree=67.0,
        generator=kronecker_graph,
        # Edge factor calibrated so the average degree over non-isolated
        # vertices lands near kron27's 67 (Table 1) at reproduction scales;
        # R-MAT leaves a large isolated fraction, so this exceeds
        # Graph500's nominal 16.
        generator_kwargs={"edge_factor": 40.0},
    ),
    "friendster": DatasetSpec(
        name="friendster",
        paper_vertices=125e6,
        paper_edges=3.6e9,
        paper_avg_degree=55.1,
        generator=chung_lu_graph,
        generator_kwargs={"avg_degree": 55.0},
    ),
}


def load_dataset(name: str, scale: int = DEFAULT_SCALE, seed: int = 0) -> CSRGraph:
    """Build the scaled equivalent of a paper dataset by name.

    ``name`` accepts the registry key (``"urand"``) or the paper's suffixed
    form (``"urand27"``, in which case the suffix is ignored in favour of
    ``scale``).  Builds go through
    :data:`repro.core.evalcache.graph_memo`, so every caller asking for the
    same ``(key, scale, seed)`` gets the *same* graph object: it is shared
    and immutable (read-only arrays; derive a new graph, e.g. with
    :meth:`~repro.graph.csr.CSRGraph.with_uniform_random_weights`, rather
    than changing it).
    """
    key = name.rstrip("0123456789")
    if key not in DATASETS:
        raise GraphGenerationError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        )
    return graph_memo.get_or_compute(
        (key, scale, seed), lambda: DATASETS[key].build(scale=scale, seed=seed)
    )


def paper_table1() -> list[dict[str, float | str]]:
    """Table 1 exactly as the paper reports it (for report rendering)."""
    rows = []
    for spec in DATASETS.values():
        rows.append(
            {
                "dataset": spec.name,
                "vertices": spec.paper_vertices,
                "edges": spec.paper_edges,
                "edge_list_gb": spec.paper_edge_list_gb,
                "avg_degree": spec.paper_avg_degree,
                "sublist_bytes": spec.paper_sublist_bytes,
            }
        )
    return rows
