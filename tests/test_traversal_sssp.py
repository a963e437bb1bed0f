"""SSSP: Bellman-Ford against Dijkstra, traces, input validation."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.graph.builder import build_csr
from repro.graph.generators import path_graph
from repro.traversal import reader as reader_module
from repro.traversal.reader import TraceRecorder
from repro.traversal.sssp import (
    sssp_bellman_ford,
    sssp_reference,
    sssp_steps,
)


def weighted_diamond():
    """0->1 (1), 0->2 (4), 1->2 (1), 2->3 (1), 1->3 (5): dist = [0,1,2,3]."""
    return build_csr(
        np.array([0, 0, 1, 2, 1]),
        np.array([1, 2, 2, 3, 3]),
        num_vertices=4,
        weights=np.array([1.0, 4.0, 1.0, 1.0, 5.0]),
    )


class TestCorrectness:
    def test_diamond_distances(self):
        g = weighted_diamond()
        expected = np.array([0.0, 1.0, 2.0, 3.0])
        assert np.allclose(sssp_bellman_ford(g, 0).distances, expected)
        assert np.allclose(sssp_reference(g, 0), expected)

    @pytest.mark.parametrize("source", [0, 11, 101])
    def test_bellman_ford_matches_dijkstra(self, weighted_small, source):
        result = sssp_bellman_ford(weighted_small, source)
        assert np.allclose(result.distances, sssp_reference(weighted_small, source))

    def test_unreachable_is_inf(self):
        g = build_csr(
            np.array([0]), np.array([1]), num_vertices=3, weights=np.array([1.0])
        )
        dist = sssp_bellman_ford(g, 0).distances
        assert np.isinf(dist[2])
        assert sssp_bellman_ford(g, 0).num_reached == 2


class TestValidation:
    def test_unweighted_graph_rejected(self, urand_small):
        with pytest.raises(TraceError, match="weighted"):
            sssp_bellman_ford(urand_small, 0)

    def test_negative_weights_rejected(self):
        g = build_csr(
            np.array([0]), np.array([1]), num_vertices=2, weights=np.array([-1.0])
        )
        with pytest.raises(TraceError, match="non-negative"):
            sssp_bellman_ford(g, 0)

    def test_nan_weight_rejected(self):
        g = path_graph(4).with_weights(np.array([1.0, 1.0, np.nan, 1.0, 1.0, 1.0]))
        for run in (sssp_bellman_ford, sssp_reference):
            with pytest.raises(TraceError, match="NaN"):
                run(g, 0)

    def test_nan_does_not_hide_a_negative_weight(self):
        g = build_csr(
            np.array([0, 1]),
            np.array([1, 2]),
            num_vertices=3,
            weights=np.array([-1.0, np.nan]),
        )
        with pytest.raises(TraceError, match="non-negative"):
            sssp_bellman_ford(g, 0)

    def test_bad_source_rejected(self, weighted_small):
        with pytest.raises(TraceError, match="out of range"):
            sssp_bellman_ford(weighted_small, 10**6)

class TestTraces:
    def test_bellman_ford_first_step_is_source(self, weighted_small):
        trace = sssp_bellman_ford(weighted_small, 5).trace
        assert trace.steps[0].vertices.tolist() == [5]

    def test_sssp_revisits_make_trace_larger_than_bfs(self, weighted_small):
        """SSSP relaxation revisits vertices, so it reads more sublist
        bytes than BFS (which visits each vertex once)."""
        from repro.traversal.bfs import bfs

        sssp_bytes = sssp_bellman_ford(weighted_small, 0).trace.useful_bytes
        bfs_bytes = bfs(weighted_small, 0).trace.useful_bytes
        assert sssp_bytes >= bfs_bytes

    def test_frontier_sizes_recorded(self, weighted_small):
        result = sssp_bellman_ford(weighted_small, 0)
        assert result.frontier_sizes[0] == 1
        assert len(result.frontier_sizes) == result.trace.num_steps


class TestFilteredRelax:
    """The filtered per-edge relax matches ``sssp_steps``' unfiltered one, bit for bit.

    Each ``sssp_steps`` chunk scatters every candidate unfiltered; the
    per-edge reference round of ``tests/conftest.py`` lowers a target
    only when its candidate beats the current value.  Distances, frontier
    sizes and every step's trace vertices must agree at every edge budget.
    """

    @staticmethod
    def _check(monkeypatch, reference_min_relax, g, source):
        start = np.full(g.num_vertices, np.inf)
        start[source] = 0.0
        want, frontiers = reference_min_relax(g, start, [source], weighted=True)
        for budget in [1, 7, reader_module.EDGE_CHUNK]:
            monkeypatch.setattr(reader_module, "EDGE_CHUNK", budget)
            recorder = TraceRecorder(g)
            (got,) = sssp_steps(recorder, source)
            assert got.tobytes() == want.tobytes(), budget
            assert recorder.frontier_sizes == [len(f) for f in frontiers]
            steps = recorder.trace("sssp").steps
            assert [step.vertices.tolist() for step in steps] == frontiers
        return want, frontiers

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("symmetrize", [False, True])
    def test_matches_unfiltered_relax(
        self, monkeypatch, relax_stress_graph, reference_min_relax, seed, symmetrize
    ):
        g = relax_stress_graph(seed, symmetrize=symmetrize)
        want, _ = self._check(monkeypatch, reference_min_relax, g, seed)
        assert np.array_equal(want, sssp_reference(g, seed))

    def test_tied_candidates_improve_nothing(self, monkeypatch, reference_min_relax):
        """A candidate equal to its target's value neither lowers nor marks it."""
        g = build_csr(
            np.array([0, 0, 1, 1]),
            np.array([1, 1, 1, 0]),  # a repeated target, a self-loop, a back-edge
            num_vertices=2,
            weights=np.array([1.0, 1.0, 0.0, 0.0]),
        )
        want, frontiers = self._check(monkeypatch, reference_min_relax, g, 0)
        assert want.tolist() == [0.0, 1.0]
        assert frontiers == [[0], [1]]
