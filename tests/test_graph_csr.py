"""CSR graph container: invariants, accessors, byte geometry."""

import numpy as np
import pytest

from repro.config import VERTEX_ID_BYTES
from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, ragged_index, sorted_unique


def make_graph(weighted=False):
    """0->1, 0->2, 1->2; vertex 3 isolated."""
    indptr = np.array([0, 2, 3, 3, 3])
    indices = np.array([1, 2, 2])
    weights = np.array([1.0, 2.0, 3.0]) if weighted else None
    return CSRGraph(indptr, indices, weights, name="t")


class TestValidation:
    def test_valid_graph_constructs(self):
        g = make_graph()
        assert g.num_vertices == 4
        assert g.num_edges == 3

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(GraphFormatError, match="start at 0"):
            CSRGraph(np.array([1, 2]), np.array([0]))

    def test_indptr_must_end_at_num_edges(self):
        with pytest.raises(GraphFormatError, match="end at"):
            CSRGraph(np.array([0, 5]), np.array([0]))

    def test_indptr_must_be_monotonic(self):
        with pytest.raises(GraphFormatError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 0, 0]))

    def test_indices_must_be_in_range(self):
        with pytest.raises(GraphFormatError, match="edge targets"):
            CSRGraph(np.array([0, 1]), np.array([7]))

    def test_negative_index_rejected(self):
        with pytest.raises(GraphFormatError, match="edge targets"):
            CSRGraph(np.array([0, 1]), np.array([-1]))

    def test_weights_shape_must_match(self):
        with pytest.raises(GraphFormatError, match="weights shape"):
            CSRGraph(np.array([0, 1]), np.array([0]), np.array([1.0, 2.0]))

    def test_2d_arrays_rejected(self):
        with pytest.raises(GraphFormatError, match="1-D"):
            CSRGraph(np.zeros((2, 2)), np.array([0]))

    def test_empty_graph_is_valid(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0


class TestImmutability:
    def test_arrays_are_read_only(self):
        g = make_graph(weighted=True)
        for arr in (g.indptr, g.indices, g.weights, g.degrees):
            with pytest.raises(ValueError):
                arr[0] = 99


class TestAccessors:
    def test_degrees(self):
        g = make_graph()
        assert g.degrees.tolist() == [2, 1, 0, 0]

    def test_neighbors(self):
        g = make_graph()
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbors(2).tolist() == []

    def test_neighbors_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            make_graph().neighbors(10)

    def test_edge_weights(self):
        g = make_graph(weighted=True)
        assert g.edge_weights(0).tolist() == [1.0, 2.0]

    def test_edge_weights_requires_weighted(self):
        with pytest.raises(GraphFormatError, match="no weights"):
            make_graph().edge_weights(0)

    def test_iter_edges(self):
        assert list(make_graph().iter_edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_average_degree_excludes_isolated_by_default(self):
        # degrees [2, 1, 0, 0]: mean over non-isolated = 1.5, plain = 0.75.
        g = make_graph()
        assert g.average_degree() == pytest.approx(1.5)
        assert g.average_degree(exclude_isolated=False) == pytest.approx(0.75)

    def test_average_degree_empty_graph(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert g.average_degree() == 0.0


class TestByteGeometry:
    def test_edge_list_bytes(self):
        assert make_graph().edge_list_bytes == 3 * VERTEX_ID_BYTES

    def test_sublist_byte_ranges(self):
        g = make_graph()
        starts, lengths = g.sublist_byte_ranges(np.array([0, 1, 2]))
        assert starts.tolist() == [0, 2 * VERTEX_ID_BYTES, 3 * VERTEX_ID_BYTES]
        assert lengths.tolist() == [2 * VERTEX_ID_BYTES, VERTEX_ID_BYTES, 0]

    def test_sublist_byte_ranges_rejects_bad_ids(self):
        with pytest.raises(GraphFormatError, match="out-of-range"):
            make_graph().sublist_byte_ranges(np.array([99]))

    def test_average_sublist_bytes(self):
        g = make_graph()
        assert g.average_sublist_bytes() == pytest.approx(1.5 * VERTEX_ID_BYTES)


class TestTransforms:
    def test_with_weights(self):
        g = make_graph().with_weights(np.array([5.0, 6.0, 7.0]))
        assert g.is_weighted
        assert g.weights.tolist() == [5.0, 6.0, 7.0]

    def test_with_uniform_random_weights_in_range(self):
        g = make_graph().with_uniform_random_weights(low=2.0, high=3.0, seed=1)
        assert np.all(g.weights >= 2.0)
        assert np.all(g.weights <= 3.0)

    def test_with_uniform_random_weights_deterministic(self):
        a = make_graph().with_uniform_random_weights(seed=5).weights
        b = make_graph().with_uniform_random_weights(seed=5).weights
        assert np.array_equal(a, b)

    def test_reversed_transposes_edges(self):
        g = make_graph()
        rev = g.reversed()
        assert sorted(rev.iter_edges()) == [(1, 0), (2, 0), (2, 1)]

    def test_reversed_twice_is_identity(self, urand_small):
        double = urand_small.reversed().reversed()
        assert np.array_equal(double.indptr, urand_small.indptr)
        # Within each sublist the order may differ; compare sorted sublists.
        for v in range(0, urand_small.num_vertices, 97):
            assert sorted(double.neighbors(v)) == sorted(urand_small.neighbors(v))

    def test_reversed_carries_weights(self):
        g = make_graph(weighted=True).reversed()
        # Edge (0->1, w=1.0) becomes (1->0, w=1.0).
        idx = list(g.iter_edges()).index((1, 0))
        assert g.weights[idx] == 1.0


class TestSortedUnique:
    """``sorted_unique`` is ``np.unique`` (no options) in values and dtype."""

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(np.empty(0, dtype=np.int64), id="empty"),
            pytest.param(np.array([7]), id="single"),
            pytest.param(np.full(9, 3), id="all_equal"),
            pytest.param(np.array([-5, 2, -5, 0, -1, 2]), id="negative"),
            pytest.param(np.array([9, 1, 9, 4, 1], dtype=np.int32), id="int32"),
            pytest.param(np.array([200, 3, 3, 255, 0], dtype=np.uint8), id="uint8"),
            pytest.param(np.array([1, 2, 2, 5, 8, 8, 8]), id="sorted"),
            pytest.param(np.arange(50)[::-1] // 3, id="reversed"),
            pytest.param(np.array([[4, 1, 4], [0, 1, 9]]), id="2d"),
            pytest.param(
                np.random.default_rng(0).integers(0, 1_000, 5_000), id="random"
            ),
        ],
    )
    def test_matches_np_unique(self, values):
        got = sorted_unique(values)
        expected = np.unique(values)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    def test_input_not_modified(self):
        values = np.array([3, 1, 2, 1])
        sorted_unique(values)
        assert values.tolist() == [3, 1, 2, 1]


def _segments(starts, counts):
    """``ragged_index`` as a loop: each segment's ``arange``, concatenated."""
    pieces = [np.arange(s, s + c, dtype=np.int64) for s, c in zip(starts, counts)]
    return np.concatenate([np.empty(0, dtype=np.int64), *pieces])


class TestRaggedIndex:
    @pytest.mark.parametrize(
        "starts, counts",
        [
            ([], []),
            ([5], [0]),
            ([3, 9, 4], [0, 0, 0]),
            ([7, 2, 40], [0, 0, 3]),  # leading zero counts
            ([7, 2, 40], [2, 0, 0]),  # trailing zero counts
            ([10, 0, 1, 2], [3, 2, 0, 4]),  # starts below their output position
            ([5, 5, 5], [2, 2, 2]),  # repeated segments
            ([100, 50, 0], [1, 1, 1]),
        ],
    )
    def test_matches_concatenated_segments(self, starts, counts):
        got = ragged_index(np.array(starts, dtype=np.int64), np.array(counts, dtype=np.int64))
        assert got.dtype == np.int64
        assert np.array_equal(got, _segments(starts, counts))

    @pytest.mark.parametrize("mean", [0.5, 2, 32])
    def test_random_segments(self, mean):
        rng = np.random.default_rng(int(mean * 10))
        counts = rng.poisson(mean, 500)
        starts = rng.integers(0, 10_000, 500)
        assert np.array_equal(ragged_index(starts, counts), _segments(starts, counts))
