"""Edge-array clean-up and CSR construction."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GraphFormatError
from repro.graph import builder
from repro.graph.builder import (
    build_csr,
    dedupe_edges,
    remove_self_loops,
    symmetrize_edges,
)


class TestRemoveSelfLoops:
    def test_removes_loops_only(self):
        src, dst, _ = remove_self_loops(np.array([0, 1, 2]), np.array([0, 2, 2]))
        assert src.tolist() == [1]
        assert dst.tolist() == [2]

    def test_carries_weights(self):
        _, _, w = remove_self_loops(
            np.array([0, 1]), np.array([0, 2]), np.array([9.0, 7.0])
        )
        assert w.tolist() == [7.0]


#: One past the largest vertex id dedupe_edges can pack: floor(sqrt(2**63)).
PACK_LIMIT = 3_037_000_499


def lexsort_dedupe(src, dst, weights=None):
    """Reference: the two-key ``np.lexsort`` dedupe that packed keys replaced."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.size == 0:
        return src, dst, weights
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)[order]
    keep = np.empty(src.size, dtype=bool)
    keep[0] = True
    np.logical_or(src[1:] != src[:-1], dst[1:] != dst[:-1], out=keep[1:])
    return src[keep], dst[keep], (weights[keep] if weights is not None else None)


def assert_same_edges(got, want):
    for g, w in zip(got, want):
        if w is None:
            assert g is None
        else:
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


class TestDedupeMatchesLexsort:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("num_vertices", [2, 37, 1 << 16])
    def test_random_edges_with_duplicates(self, seed, num_vertices):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 3000))
        src = rng.integers(0, num_vertices, size)
        dst = rng.integers(0, num_vertices, size)
        # Repeat a slice so every input has duplicates.
        src = np.concatenate([src, src[: size // 3]])
        dst = np.concatenate([dst, dst[: size // 3]])
        assert_same_edges(dedupe_edges(src, dst), lexsort_dedupe(src, dst))

    @pytest.mark.parametrize("seed", range(6))
    def test_weighted_keeps_first_weight_of_repeated_keys(self, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, 8, 400)
        dst = rng.integers(0, 8, 400)
        weights = rng.random(400)
        assert_same_edges(
            dedupe_edges(src, dst, weights), lexsort_dedupe(src, dst, weights)
        )

    def test_empty(self):
        empty = np.array([], dtype=np.int64)
        assert_same_edges(dedupe_edges(empty, empty), lexsort_dedupe(empty, empty))

    def test_single_edge(self):
        got = dedupe_edges(np.array([4]), np.array([2]), np.array([1.5]))
        assert_same_edges(got, lexsort_dedupe([4], [2], [1.5]))

    @pytest.mark.parametrize("seed", range(3))
    def test_ids_near_the_packing_limit(self, seed):
        rng = np.random.default_rng(seed)
        ids = np.array([0, 1, PACK_LIMIT - 3, PACK_LIMIT - 2, PACK_LIMIT - 1])
        src, dst = rng.choice(ids, 200), rng.choice(ids, 200)
        assert_same_edges(dedupe_edges(src, dst), lexsort_dedupe(src, dst))

    @pytest.mark.parametrize("seed", range(3))
    def test_deduped_build_matches_reference_build(self, seed):
        rng = np.random.default_rng(seed)
        src = rng.integers(0, 30, 500)
        dst = rng.integers(0, 30, 500)
        weights = rng.random(500)
        got = build_csr(src, dst, 30, weights, dedupe=True)
        ref_src, ref_dst, ref_weights = lexsort_dedupe(src, dst, weights)
        want = build_csr(ref_src, ref_dst, 30, ref_weights)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.weights, want.weights)


class TestDedupeRejectsUnpackableIds:
    def test_negative_endpoint(self):
        # Packed, (1, -1) would silently become (0, n - 1).
        with pytest.raises(GraphFormatError, match="non-negative"):
            dedupe_edges(np.array([0, 1]), np.array([1, -1]))

    def test_ids_whose_square_overflows_int64(self):
        with pytest.raises(GraphFormatError, match="packed"):
            dedupe_edges(np.array([0]), np.array([PACK_LIMIT]))


class TestDedupe:
    def test_removes_duplicates(self):
        src, dst, _ = dedupe_edges(np.array([1, 0, 1, 0]), np.array([2, 3, 2, 3]))
        assert list(zip(src.tolist(), dst.tolist())) == [(0, 3), (1, 2)]

    def test_keeps_first_weight(self):
        src = np.array([0, 0])
        dst = np.array([1, 1])
        # Both entries pack to the same key; the stable sort keeps input
        # order, so the first occurrence wins.
        _, _, w = dedupe_edges(src, dst, np.array([5.0, 9.0]))
        assert w.tolist() == [5.0]

    def test_empty_input(self):
        src, dst, w = dedupe_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert src.size == 0 and dst.size == 0 and w is None


class TestSymmetrize:
    def test_adds_reverse_edges(self):
        src, dst, _ = symmetrize_edges(np.array([0]), np.array([1]))
        assert sorted(zip(src.tolist(), dst.tolist())) == [(0, 1), (1, 0)]

    def test_doubles_weights(self):
        _, _, w = symmetrize_edges(np.array([0]), np.array([1]), np.array([4.0]))
        assert w.tolist() == [4.0, 4.0]


class TestBuildCSR:
    def test_basic_construction(self):
        g = build_csr(np.array([1, 0, 0]), np.array([2, 1, 2]))
        assert g.num_vertices == 3
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbors(1).tolist() == [2]

    def test_explicit_num_vertices(self):
        g = build_csr(np.array([0]), np.array([1]), num_vertices=10)
        assert g.num_vertices == 10
        assert g.degrees[9] == 0

    def test_num_vertices_inferred(self):
        g = build_csr(np.array([0]), np.array([7]))
        assert g.num_vertices == 8

    def test_endpoints_exceeding_num_vertices_rejected(self):
        with pytest.raises(GraphFormatError, match="exceed"):
            build_csr(np.array([0]), np.array([5]), num_vertices=3)

    def test_negative_endpoints_rejected(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            build_csr(np.array([-1]), np.array([0]), num_vertices=3)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(GraphFormatError, match="equal-length"):
            build_csr(np.array([0, 1]), np.array([0]))

    def test_weights_follow_edge_sort(self):
        g = build_csr(
            np.array([1, 0]), np.array([0, 1]), weights=np.array([10.0, 20.0])
        )
        # Vertex 0's edge carries 20.0, vertex 1's carries 10.0.
        assert g.edge_weights(0).tolist() == [20.0]
        assert g.edge_weights(1).tolist() == [10.0]

    def test_full_cleanup_pipeline(self):
        # Self loop, duplicate and asymmetry all at once.
        g = build_csr(
            np.array([0, 0, 0, 1]),
            np.array([0, 1, 1, 0]),
            symmetrize=True,
            dedupe=True,
            drop_self_loops=True,
        )
        assert sorted(g.iter_edges()) == [(0, 1), (1, 0)]

    def test_empty_edges_build(self):
        g = build_csr(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), num_vertices=4
        )
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_sublists_are_contiguous_and_ordered_by_source(self):
        rng = np.random.default_rng(0)
        src = rng.integers(0, 50, 500)
        dst = rng.integers(0, 50, 500)
        g = build_csr(src, dst, num_vertices=50)
        # Every edge of vertex v appears exactly degrees[v] times.
        counts = np.bincount(src, minlength=50)
        assert np.array_equal(g.degrees, counts)


def reference_symmetric_csr(src, dst, num_vertices):
    """The public helpers composed: drop loops, symmetrize, dedupe, bincount."""
    src, dst, _ = remove_self_loops(src, dst)
    src, dst, _ = symmetrize_edges(src, dst)
    src, dst, _ = dedupe_edges(src, dst)
    if num_vertices is None:
        num_vertices = int(max(src.max(), dst.max())) + 1 if src.size else 0
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_vertices), out=indptr[1:])
    return indptr, dst


def symmetric_build(src, dst, num_vertices):
    return build_csr(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_vertices=num_vertices,
        symmetrize=True,
        dedupe=True,
        drop_self_loops=True,
    )


@st.composite
def edge_lists(draw):
    """Small-id edge lists: duplicates, self-loops and isolated vertices abound."""
    ids = draw(st.integers(1, 12))
    endpoint = st.integers(0, ids - 1)
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=60))
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    extra = draw(st.none() | st.integers(0, 5))  # None: infer num_vertices
    return src, dst, None if extra is None else ids + extra


class TestSymmetricBuildMatchesHelpers:
    """The packed-key symmetric build equals the helpers' composition, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(edges=edge_lists(), chunk=st.sampled_from([1, 2, 3, 1 << 18]))
    def test_hypothesis_edge_lists(self, edges, chunk):
        src, dst, num_vertices = edges
        with mock.patch.object(builder, "_COMPACT_CHUNK", chunk):
            got = symmetric_build(src, dst, num_vertices)
        indptr, indices = reference_symmetric_csr(src, dst, num_vertices)
        assert got.indptr.tobytes() == indptr.tobytes()
        assert got.indices.tobytes() == indices.tobytes()

    @pytest.mark.parametrize("num_vertices", [None, 5])
    def test_all_self_loops(self, num_vertices):
        loops = np.array([0, 3, 3, 1], dtype=np.int64)
        got = symmetric_build(loops, loops, num_vertices)
        indptr, indices = reference_symmetric_csr(loops, loops, num_vertices)
        assert got.num_edges == 0
        assert got.indptr.tobytes() == indptr.tobytes()
        assert got.indices.tobytes() == indices.tobytes()

    @pytest.mark.parametrize("num_vertices", [None, 4])
    def test_empty(self, num_vertices):
        got = symmetric_build([], [], num_vertices)
        indptr, _ = reference_symmetric_csr(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), num_vertices
        )
        assert got.num_edges == 0
        assert got.indptr.tobytes() == indptr.tobytes()

    def test_takes_the_packed_path(self):
        """The symmetric columns are never built on the unweighted path."""
        rng = np.random.default_rng(0)
        src, dst = rng.integers(0, 64, 500), rng.integers(0, 64, 500)
        with mock.patch.object(builder, "symmetrize_edges", side_effect=AssertionError):
            got = symmetric_build(src, dst, 64)
        indptr, indices = reference_symmetric_csr(src, dst, 64)
        assert got.indptr.tobytes() == indptr.tobytes()
        assert got.indices.tobytes() == indices.tobytes()

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphFormatError, match="exceed num_vertices=3"):
            symmetric_build([0], [5], 3)

    def test_out_of_range_self_loop_is_dropped_first(self):
        got = symmetric_build([0, 9], [1, 9], 3)
        assert sorted(got.iter_edges()) == [(0, 1), (1, 0)]

    def test_negative_endpoints_rejected(self):
        with pytest.raises(GraphFormatError, match="non-negative"):
            symmetric_build([-1, 0], [0, 2], 3)
