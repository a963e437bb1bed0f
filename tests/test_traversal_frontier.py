"""The vectorized neighbor gather and the min-scatter / drain kernels."""

import numpy as np
import pytest

from repro.traversal.frontier import drain_mask, gather_neighbors, min_scatter


class TestGatherNeighbors:
    def test_matches_per_vertex_neighbors(self, tiny_graph):
        (neighbors,) = gather_neighbors(tiny_graph, np.array([0, 1, 3]))
        expected = np.concatenate(
            [tiny_graph.neighbors(v) for v in (0, 1, 3)]
        )
        assert np.array_equal(neighbors, expected)

    def test_with_sources_repeats_frontier_vertices(self, tiny_graph):
        neighbors, sources, edge_idx = gather_neighbors(
            tiny_graph, np.array([0, 3]), with_sources=True
        )
        assert sources.tolist() == [0, 0, 3]
        assert neighbors.tolist() == [1, 2, 4]
        assert np.array_equal(tiny_graph.indices[edge_idx], neighbors)

    def test_empty_frontier(self, tiny_graph):
        (neighbors,) = gather_neighbors(tiny_graph, np.array([], dtype=np.int64))
        assert neighbors.size == 0

    def test_all_zero_degree_frontier(self, tiny_graph):
        # Vertices 4 and 5 have no out-edges.
        neighbors, sources, edge_idx = gather_neighbors(
            tiny_graph, np.array([4, 5]), with_sources=True
        )
        assert neighbors.size == sources.size == edge_idx.size == 0

    def test_large_graph_consistency(self, urand_small):
        """Vectorized gather equals the per-vertex loop on a real graph."""
        rng = np.random.default_rng(1)
        frontier = np.unique(
            rng.integers(0, urand_small.num_vertices, 100)
        )
        (neighbors,) = gather_neighbors(urand_small, frontier)
        expected = np.concatenate(
            [urand_small.neighbors(v) for v in frontier]
        )
        assert np.array_equal(neighbors, expected)

    def test_duplicated_frontier_vertices_gather_twice(self, tiny_graph):
        (neighbors,) = gather_neighbors(tiny_graph, np.array([0, 0]))
        assert neighbors.tolist() == [1, 2, 1, 2]


class TestMinScatterDrain:
    """Filtered scatter + drain equals the unfiltered scatter-then-compare."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_equals_unfiltered(self, seed, dtype, unfiltered_min_scatter):
        rng = np.random.default_rng(seed)
        n = 50
        values = rng.integers(0, 8, size=n).astype(dtype)
        if dtype is np.float64:
            values[rng.random(n) < 0.3] = np.inf
        targets = rng.integers(0, n, size=400)  # heavy repetition
        candidate = rng.integers(0, 8, size=400).astype(dtype)  # ties
        got_values, want_values = values.copy(), values.copy()
        changed = np.zeros(n, dtype=bool)
        min_scatter(got_values, targets, candidate, changed)
        got = drain_mask(changed)
        assert not changed.any()
        want_changed = np.zeros(n, dtype=bool)
        unfiltered_min_scatter(want_values, targets, candidate, want_changed)
        want = np.flatnonzero(want_changed)
        assert np.array_equal(got_values, want_values)
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype

    def test_nothing_improves(self):
        values = np.array([0.0, 1.0, 2.0])
        changed = np.zeros(3, dtype=bool)
        min_scatter(values, np.array([1, 2, 2]), np.array([1.0, 2.0, 5.0]), changed)
        assert drain_mask(changed).size == 0
        assert values.tolist() == [0.0, 1.0, 2.0]
