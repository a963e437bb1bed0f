"""Regression guard for the DTYPE001 explicit-dtype fixes.

The dtype-less allocations flagged by ``repro lint`` (``sim/des.py``,
``traversal/``) were replaced with explicit ``dtype=np.float64`` / ``dtype=np.int64``.  On platforms
where the default integer is 64-bit this must be a bit-identical no-op;
these tests pin traversal results on a >64k-vertex graph (exact golden
sums captured before the change, cross-checked against the independent
reference implementations) so any behavioural drift from a future dtype
edit fails loudly.
"""

import numpy as np
import pytest

from repro.graph.generators import uniform_random_graph
from repro.traversal.bfs import bfs, bfs_reference
from repro.traversal.sssp import sssp_bellman_ford, sssp_reference

# 2^17 = 131072 vertices: comfortably past the 64k mark where 16/32-bit
# index arithmetic starts to matter.
SCALE, DEGREE, SEED = 17, 8.0, 3
WEIGHT_SEED = 5


@pytest.fixture(scope="module")
def large_graph():
    graph = uniform_random_graph(SCALE, DEGREE, seed=SEED)
    assert graph.num_vertices == 131_072
    return graph


class TestBFSLargeGraph:
    def test_results_identical_to_pre_dtype_fix_golden(self, large_graph):
        result = bfs(large_graph, source=0)
        # Captured from the build immediately *before* dtype= was added.
        assert result.num_reached == 131_035
        assert result.max_depth == 8
        assert int(result.depths[result.depths >= 0].sum()) == 764_091

    def test_matches_independent_reference(self, large_graph):
        result = bfs(large_graph, source=0)
        assert np.array_equal(result.depths, bfs_reference(large_graph, 0))

    def test_explicit_dtypes(self, large_graph):
        result = bfs(large_graph, source=0)
        assert result.depths.dtype == np.int64
        assert result.parents.dtype == np.int64


class TestSSSPLargeGraph:
    @pytest.fixture(scope="class")
    def weighted(self, large_graph):
        return large_graph.with_uniform_random_weights(seed=WEIGHT_SEED)

    def test_results_identical_to_pre_dtype_fix_golden(self, weighted):
        result = sssp_bellman_ford(weighted, source=0)
        finite = np.isfinite(result.distances)
        assert int(finite.sum()) == 131_035
        assert float(result.distances[finite].sum()) == pytest.approx(
            14_032_758.810311787, rel=0, abs=1e-6
        )

    def test_matches_independent_reference(self, weighted):
        result = sssp_bellman_ford(weighted, source=0)
        assert np.array_equal(result.distances, sssp_reference(weighted, 0))

    def test_explicit_dtype(self, weighted):
        result = sssp_bellman_ford(weighted, source=0)
        assert result.distances.dtype == np.float64
