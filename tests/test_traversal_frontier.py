"""The vectorized neighbor gather and the mark-array drain."""

import numpy as np

from repro.traversal.frontier import drain_mask, gather_neighbors


class TestGatherNeighbors:
    def test_matches_per_vertex_neighbors(self, tiny_graph):
        neighbors = gather_neighbors(tiny_graph, np.array([0, 1, 3]))
        expected = np.concatenate(
            [tiny_graph.neighbors(v) for v in (0, 1, 3)]
        )
        assert np.array_equal(neighbors, expected)

    def test_empty_frontier(self, tiny_graph):
        neighbors = gather_neighbors(tiny_graph, np.array([], dtype=np.int64))
        assert neighbors.size == 0

    def test_all_zero_degree_frontier(self, tiny_graph):
        # Vertices 4 and 5 have no out-edges.
        neighbors = gather_neighbors(tiny_graph, np.array([4, 5]))
        assert neighbors.size == 0

    def test_large_graph_consistency(self, urand_small):
        """Vectorized gather equals the per-vertex loop on a real graph."""
        rng = np.random.default_rng(1)
        frontier = np.unique(
            rng.integers(0, urand_small.num_vertices, 100)
        )
        neighbors = gather_neighbors(urand_small, frontier)
        expected = np.concatenate(
            [urand_small.neighbors(v) for v in frontier]
        )
        assert np.array_equal(neighbors, expected)

    def test_duplicated_frontier_vertices_gather_twice(self, tiny_graph):
        neighbors = gather_neighbors(tiny_graph, np.array([0, 0]))
        assert neighbors.tolist() == [1, 2, 1, 2]


class TestDrainMask:
    def test_returns_marked_positions_ascending_and_clears(self):
        mask = np.zeros(10, dtype=bool)
        mask[[7, 2, 2, 9]] = True
        got = drain_mask(mask)
        assert got.tolist() == [2, 7, 9]
        assert got.dtype == np.intp
        assert not mask.any()

    def test_empty_mask_drains_nothing(self):
        mask = np.zeros(4, dtype=bool)
        assert drain_mask(mask).size == 0
        assert not mask.any()
