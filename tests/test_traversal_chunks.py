"""Chunked edge expansion: every edge budget gives the same run.

``GraphReader.neighbor_chunks`` hands a step's edges out in slices of
at most ``EDGE_CHUNK`` edges.  BFS, SSSP and CC must produce the same
values, steps and traces whatever the budget — one edge per chunk, an
odd budget that splits sublists of every size, the default, and no
limit at all — in memory and through every engine backend, where the
measured traffic and fault exposure must not move either.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro import workloads
from repro.engine import ExternalGraphEngine, ExternalMemoryBackend
from repro.errors import TraceError
from repro.faults import FaultPlan, FaultyBackend
from repro.gpu import BaMMethod, XLFDDMethod, ZeroCopyMethod
from repro.graph.datasets import load_dataset
from repro.graph.generators import kronecker_graph, star_graph, uniform_random_graph
from repro.traversal import reader as reader_module
from repro.traversal.reader import TraceRecorder, frontier_slices

BUDGETS = [1, 7, reader_module.EDGE_CHUNK, sys.maxsize]
ALGORITHMS = ["bfs", "sssp", "cc"]
BACKENDS = {
    "direct": lambda d: ExternalMemoryBackend(d, XLFDDMethod(16)),
    "cached": lambda d: ExternalMemoryBackend(d, BaMMethod(512)),
    "zero_copy": lambda d: ExternalMemoryBackend(d, ZeroCopyMethod()),
    "faulty": lambda d: FaultyBackend(
        ExternalMemoryBackend(d, XLFDDMethod()),
        FaultPlan(seed=3, read_error_rate=0.1, spike_rate=0.1),
    ),
}
STAT_FIELDS = (
    "requests",
    "fetched_bytes",
    "useful_bytes",
    "retries",
    "timeouts",
    "evictions",
    "faults_injected",
    "retry_wait_time",
)


@pytest.fixture(scope="module")
def graphs():
    """urand and kron at scale 8, and a star whose hub exceeds small budgets."""
    return {
        "urand": uniform_random_graph(8, 8.0, seed=1),
        "kron": kronecker_graph(8, 8.0, seed=2),
        "star": star_graph(40),
    }


def _source(graph) -> int:
    """A leaf of the star (so the hub is a later, oversized frontier)."""
    return 1 if graph.name.startswith("star") else 0


def _traced(graph, algorithm):
    workload = workloads.get(algorithm)
    prepared = workload.prepare(graph)
    recorder = TraceRecorder(prepared)
    (values, *_) = workload.algorithm(recorder, _source(graph))
    return values, recorder.trace(algorithm)


def _engine_run(graph, algorithm, backend):
    workload = workloads.get(algorithm)
    engine = ExternalGraphEngine(workload.prepare(graph), BACKENDS[backend])
    return workload.run(engine, source=_source(graph))


class TestFrontierSlices:
    @pytest.mark.parametrize("budget", [1, 3, 7, 100])
    def test_slices_tile_the_frontier_within_budget(self, monkeypatch, budget):
        monkeypatch.setattr(reader_module, "EDGE_CHUNK", budget)
        counts = np.array([0, 2, 9, 0, 1, 1, 0, 30, 3, 0], dtype=np.int64)
        ends = np.cumsum(counts)
        slices = list(frontier_slices(counts))
        assert slices[0][:3:2] == (0, 0)
        assert slices[-1][1] == counts.size and slices[-1][3] == ends[-1]
        for (lo, hi, a, b), nxt in zip(slices, slices[1:] + [None]):
            assert hi > lo
            assert b - a == counts[lo:hi].sum()
            # Over budget only as a single oversized vertex.
            assert b - a <= budget or hi - lo == 1
            if nxt is not None:
                assert (nxt[0], nxt[2]) == (hi, b)
                # Greedy: the next vertex would not have fit.
                assert b - a + counts[hi] > budget

    def test_empty_frontier_has_no_slices(self):
        assert list(frontier_slices(np.empty(0, dtype=np.int64))) == []


class TestChunkExactness:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name", ["urand", "kron", "star"])
    def test_in_memory_runs_match_across_budgets(
        self, monkeypatch, graphs, name, algorithm
    ):
        runs = []
        for budget in BUDGETS:
            monkeypatch.setattr(reader_module, "EDGE_CHUNK", budget)
            runs.append(_traced(graphs[name], algorithm))
        want_values, want_trace = runs[-1]
        for values, trace in runs[:-1]:
            assert np.array_equal(values, want_values)
            assert trace.num_steps == want_trace.num_steps
            for a, b in zip(trace.steps, want_trace.steps):
                assert np.array_equal(a.starts, b.starts)
                assert np.array_equal(a.lengths, b.lengths)

    def test_bfs_parents_match_across_budgets(self, monkeypatch, graphs):
        from repro.traversal.bfs import bfs_steps

        parents = []
        for budget in BUDGETS:
            monkeypatch.setattr(reader_module, "EDGE_CHUNK", budget)
            parents.append(bfs_steps(TraceRecorder(graphs["kron"]), 0)[1])
        assert all(np.array_equal(p, parents[-1]) for p in parents)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name", ["urand", "star"])
    def test_engine_runs_match_across_budgets(
        self, monkeypatch, graphs, name, algorithm, backend
    ):
        runs = []
        for budget in BUDGETS:
            monkeypatch.setattr(reader_module, "EDGE_CHUNK", budget)
            runs.append(_engine_run(graphs[name], algorithm, backend))
        want = runs[-1]
        for run in runs[:-1]:
            assert np.array_equal(run.values, want.values)
            assert run.steps == want.steps
            for field in STAT_FIELDS:
                assert getattr(run.stats, field) == getattr(want.stats, field), field
            assert run.stats.latency_samples == want.stats.latency_samples
        if backend == "faulty":
            assert want.stats.faults_injected > 0

    def test_engine_equals_in_memory_under_a_small_budget(self, monkeypatch, graphs):
        monkeypatch.setattr(reader_module, "EDGE_CHUNK", 7)
        for algorithm in ALGORITHMS:
            values, trace = _traced(graphs["kron"], algorithm)
            run = _engine_run(graphs["kron"], algorithm, "direct")
            assert np.array_equal(run.values, values)
            assert run.steps == trace.num_steps


class TestNeighborChunks:
    @pytest.mark.parametrize("weighted", [False, True])
    def test_chunks_concatenate_to_read_neighbors(self, monkeypatch, graphs, weighted):
        monkeypatch.setattr(reader_module, "EDGE_CHUNK", 5)
        graph = graphs["kron"]
        if weighted:
            graph = graph.with_uniform_random_weights(seed=4)
        frontier = np.flatnonzero(graph.degrees)[::3]
        readers = [
            TraceRecorder(graph),
            ExternalGraphEngine(graph, lambda d: ExternalMemoryBackend(d, XLFDDMethod())),
        ]
        for reader in readers:
            want = reader.read_neighbors(frontier)
            chunks = list(reader.neighbor_chunks(frontier))
            assert [c[:2] for c in chunks] == [
                (lo, hi) for lo, hi, _, _ in frontier_slices(graph.degrees[frontier])
            ]
            for i, column in enumerate(want):
                got = [c[2 + i] for c in chunks]
                if column is None:
                    assert all(g is None for g in got)
                else:
                    assert np.array_equal(np.concatenate(got), column)

    def test_engine_reads_each_frontier_once(self, monkeypatch, graphs):
        monkeypatch.setattr(reader_module, "EDGE_CHUNK", 1)
        engine = ExternalGraphEngine(
            graphs["star"], lambda d: ExternalMemoryBackend(d, XLFDDMethod())
        )
        reads = []
        read = engine.backend.read
        monkeypatch.setattr(
            engine.backend, "read", lambda s, n: reads.append(s.size) or read(s, n)
        )
        chunks = engine.neighbor_chunks(np.arange(10, dtype=np.int64))
        assert reads == [10]  # the read happens at the call, not per chunk
        assert len(list(chunks)) == 10
        assert reads == [10]


class TestOneReadPerStep:
    def test_second_read_in_a_step_raises(self, graphs):
        recorder = TraceRecorder(graphs["urand"])
        frontier = np.array([0, 1], dtype=np.int64)
        with recorder.step():
            recorder.read_neighbors(frontier)
            with pytest.raises(TraceError, match="twice"):
                recorder.neighbor_chunks(frontier)
        with recorder.step():
            recorder.neighbor_chunks(frontier)
            with pytest.raises(TraceError, match="twice"):
                recorder.read_neighbors(frontier)
        assert recorder.frontier_sizes == [2, 2]

    def test_one_read_per_step_is_recorded(self, graphs):
        recorder = TraceRecorder(graphs["urand"])
        for size in (1, 3):
            with recorder.step():
                recorder.read_neighbors(np.arange(size, dtype=np.int64))
        with recorder.step():
            pass  # a step without a read records nothing
        assert recorder.frontier_sizes == [1, 3]

    def test_reads_outside_steps_are_unchecked(self, graphs):
        recorder = TraceRecorder(graphs["urand"])
        recorder.read_neighbors(np.array([0], dtype=np.int64))
        recorder.read_neighbors(np.array([1], dtype=np.int64))
        assert recorder.frontier_sizes == [1, 1]


class TestTransientMemory:
    """Tracing kron@14 holds a bounded transient, not E-sized arrays."""

    @pytest.fixture(scope="class")
    def kron14(self):
        return load_dataset("kron", scale=14, seed=0)

    @staticmethod
    def _peak_mib(fn) -> float:
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def test_bfs_trace(self, kron14):
        assert self._peak_mib(lambda: workloads.get("bfs").trace(kron14)) <= 8

    def test_sssp_trace(self, kron14):
        # About half of the peak is the weights the workload attaches.
        assert self._peak_mib(lambda: workloads.get("sssp").trace(kron14)) <= 16
