"""Shared fixtures: small graphs, traces, and system configurations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.experiment import emogi_system, run_algorithm
from repro.graph.builder import build_csr
from repro.graph.generators import (
    grid_graph,
    kronecker_graph,
    path_graph,
    star_graph,
    uniform_random_graph,
)


@pytest.fixture(scope="session")
def urand_small():
    """A small uniform random graph (scale 10, avg degree 16)."""
    return uniform_random_graph(10, 16.0, seed=7)


@pytest.fixture(scope="session")
def kron_small():
    """A small Kronecker graph (heavy-tailed degrees)."""
    return kronecker_graph(10, 16.0, seed=7)


@pytest.fixture(scope="session")
def weighted_small(urand_small):
    """The small urand graph with uniform random weights."""
    return urand_small.with_uniform_random_weights(seed=3)


@pytest.fixture(scope="session")
def tiny_graph():
    """A hand-built 6-vertex graph with known structure.

    Edges: 0->1, 0->2, 1->3, 2->3, 3->4; vertex 5 is isolated.
    """
    src = np.array([0, 0, 1, 2, 3])
    dst = np.array([1, 2, 3, 3, 4])
    return build_csr(src, dst, num_vertices=6, name="tiny")


@pytest.fixture(scope="session")
def path10():
    """Undirected path on 10 vertices."""
    return path_graph(10)


@pytest.fixture(scope="session")
def star50():
    """Star with 49 leaves (one big sublist at the hub)."""
    return star_graph(50)


@pytest.fixture(scope="session")
def grid8x8():
    """8x8 grid (long, narrow BFS frontier profile)."""
    return grid_graph(8, 8)


@pytest.fixture(scope="session")
def urand_paper():
    """Paper-like urand: degree 32 (256 B sublists), big enough that the
    large BFS steps are bandwidth-bound as in the paper's regime."""
    return uniform_random_graph(12, 32.0, seed=7)


@pytest.fixture(scope="session")
def paper_bfs_trace(urand_paper):
    """BFS trace of the paper-like graph."""
    return run_algorithm(urand_paper, "bfs")


@pytest.fixture(scope="session")
def bfs_trace(urand_small):
    """BFS access trace of the small urand graph."""
    return run_algorithm(urand_small, "bfs")


@pytest.fixture(scope="session")
def sssp_trace(urand_small):
    """SSSP access trace of the small urand graph."""
    return run_algorithm(urand_small, "sssp")


@pytest.fixture(scope="session")
def emogi_gen4():
    """The EMOGI/host-DRAM baseline system on Gen 4."""
    return emogi_system()


def _reference_min_relax(graph, values, frontier, *, weighted: bool):
    """Plain per-edge min-relax rounds from ``frontier``: ``(values, frontiers)``.

    Each round keeps the values it started with, walks the frontier in
    ascending order and each sublist in CSR order, and lowers a target
    when its candidate (the source's start value, plus the edge weight
    when ``weighted``) beats the target's current value.  The next
    frontier is every vertex that ended the round below its start.
    Python scalars throughout, so it shares no kernel with the
    vectorised step loops it checks.
    """
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    weights = graph.weights.tolist() if weighted else None
    current = values.tolist()
    frontier = sorted(int(v) for v in frontier)
    frontiers = []
    while frontier:
        frontiers.append(frontier)
        start = list(current)
        for v in frontier:
            for e in range(indptr[v], indptr[v + 1]):
                candidate = start[v] + weights[e] if weighted else start[v]
                u = indices[e]
                if candidate < current[u]:
                    current[u] = candidate
        frontier = [u for u, (a, b) in enumerate(zip(current, start)) if a < b]
    return np.array(current, dtype=values.dtype), frontiers


@pytest.fixture
def reference_min_relax():
    """The plain per-edge min-relax oracle of SSSP and CC rounds."""
    return _reference_min_relax


def _relax_stress_graph(seed: int, *, symmetrize: bool, n: int = 300):
    """Seeded multigraph with zero weights, repeated targets and ties.

    Weights come from a few small integers (half of them zero), so many
    candidates for one target are equal; edges are not deduplicated, so
    a target repeats within a frontier's gather.
    """
    rng = np.random.default_rng(seed)
    m = 4 * n
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n // 3, size=m)  # few, popular targets
    weights = rng.choice([0.0, 0.0, 0.5, 1.0, 2.0], size=m)
    return build_csr(
        src, dst, num_vertices=n, weights=weights, symmetrize=symmetrize
    )


@pytest.fixture
def relax_stress_graph():
    """Factory of seeded weighted multigraphs that stress the min-relax."""
    return _relax_stress_graph
