"""Access traces: invariants, statistics, persistence."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traversal.trace import AccessTrace, TraceStep, trace_from_frontiers


def make_step(vertices=(0, 1), starts=(0, 100), lengths=(50, 30)):
    return TraceStep(
        np.array(vertices), np.array(starts), np.array(lengths)
    )


class TestTraceStep:
    def test_counts(self):
        step = make_step()
        assert step.frontier_size == 2
        assert step.num_requests == 2
        assert step.useful_bytes == 80

    def test_zero_length_requests_not_counted(self):
        step = make_step(lengths=(50, 0))
        assert step.num_requests == 1
        assert step.frontier_size == 2

    def test_nonempty_filters(self):
        step = make_step(lengths=(50, 0)).nonempty()
        assert step.frontier_size == 1
        assert step.vertices.tolist() == [0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(TraceError, match="identical shapes"):
            TraceStep(np.array([0]), np.array([0, 1]), np.array([5]))

    def test_negative_offsets_rejected(self):
        with pytest.raises(TraceError, match="non-negative"):
            make_step(starts=(-5, 0))

    def test_negative_lengths_rejected(self):
        with pytest.raises(TraceError, match="non-negative"):
            make_step(lengths=(5, -1))


class TestAccessTrace:
    def make_trace(self):
        trace = AccessTrace(algorithm="bfs", graph_name="t", edge_list_bytes=1000)
        trace.append(make_step())
        trace.append(make_step(vertices=(2,), starts=(200,), lengths=(100,)))
        return trace

    def test_aggregates(self):
        trace = self.make_trace()
        assert trace.num_steps == 2
        assert trace.total_requests == 3
        assert trace.useful_bytes == 180
        assert trace.frontier_sizes == [2, 1]

    def test_average_sublist_bytes(self):
        assert self.make_trace().average_sublist_bytes() == pytest.approx(60.0)

    def test_append_validates_bounds(self):
        trace = AccessTrace(algorithm="bfs", graph_name="t", edge_list_bytes=100)
        with pytest.raises(TraceError, match="past the edge list"):
            trace.append(make_step(starts=(90,), vertices=(0,), lengths=(20,)))

    def test_iteration(self):
        assert len(list(self.make_trace())) == 2

    def test_empty_trace_stats(self):
        trace = AccessTrace(algorithm="x", graph_name="t", edge_list_bytes=10)
        assert trace.useful_bytes == 0
        assert trace.average_sublist_bytes() == 0.0

    def test_save_load_roundtrip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = AccessTrace.load(path)
        assert loaded.algorithm == trace.algorithm
        assert loaded.graph_name == trace.graph_name
        assert loaded.edge_list_bytes == trace.edge_list_bytes
        assert loaded.num_steps == trace.num_steps
        for a, b in zip(loaded, trace):
            assert np.array_equal(a.vertices, b.vertices)
            assert np.array_equal(a.starts, b.starts)
            assert np.array_equal(a.lengths, b.lengths)

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, nothing=np.arange(2))
        with pytest.raises(TraceError, match="not a trace file"):
            AccessTrace.load(path)


class TestTraceFromFrontiers:
    def test_byte_ranges_match_graph(self, tiny_graph):
        trace = trace_from_frontiers(
            tiny_graph, [np.array([0]), np.array([1, 2])], algorithm="bfs"
        )
        assert trace.num_steps == 2
        # Vertex 0 has 2 out-edges of 8 B IDs.
        assert trace.steps[0].useful_bytes == 16
        # Vertices 1 and 2 have 1 out-edge each.
        assert trace.steps[1].useful_bytes == 16

    def test_total_useful_bytes_equals_touched_sublists(self, urand_small, bfs_trace):
        """BFS touches every reachable vertex's sublist exactly once."""
        from repro.traversal.bfs import bfs

        result = bfs(urand_small, 0)
        reached = result.depths >= 0
        expected = urand_small.degrees[reached].sum() * 8
        assert bfs_trace.useful_bytes == expected
