"""Chunked edge expansion: every edge budget gives the same run.

``GraphReader.neighbor_chunks`` hands a step's edges out in slices of
at most ``EDGE_CHUNK`` edges.  BFS, SSSP and CC must produce the same
values, steps and traces whatever the budget — one edge per chunk, an
odd budget that splits sublists of every size, the default, and no
limit at all — in memory and through every engine backend, where the
measured traffic must not move either.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from repro import workloads
from repro.engine import ExternalGraphEngine, ExternalMemoryBackend
from repro.errors import TraceError
from repro.gpu import BaMMethod, XLFDDMethod, ZeroCopyMethod
from repro.graph.datasets import load_dataset
from repro.graph.generators import kronecker_graph, star_graph, uniform_random_graph
from repro.traversal import reader as reader_module
from repro.traversal.bfs import bfs_steps
from repro.traversal.reader import TraceRecorder, frontier_slices

BUDGETS = [1, 7, reader_module.EDGE_CHUNK, sys.maxsize]
ALGORITHMS = ["bfs", "sssp", "cc"]
BACKENDS = {
    "direct": lambda d: ExternalMemoryBackend(d, XLFDDMethod(16)),
    "cached": lambda d: ExternalMemoryBackend(d, BaMMethod(512)),
    "zero_copy": lambda d: ExternalMemoryBackend(d, ZeroCopyMethod()),
}
STAT_FIELDS = ("requests", "fetched_bytes", "useful_bytes")


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


def _first_discoverer_bfs(graph, source):
    """Plain-Python BFS ``(depths, parents)``; the first discoverer is the parent.

    Each level scans its frontier in ascending order and each sublist in
    CSR order; a vertex's parent is the frontier vertex whose edge
    reached it first.
    """
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    depths = [-1] * graph.num_vertices
    parents = [-1] * graph.num_vertices
    depths[source] = 0
    frontier = [source]
    while frontier:
        found = []
        for v in frontier:
            for u in indices[indptr[v] : indptr[v + 1]]:
                if depths[u] < 0:
                    depths[u] = depths[v] + 1
                    parents[u] = v
                    found.append(u)
        frontier = sorted(found)
    return depths, parents


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

    @pytest.mark.parametrize(
        "name", ["kron", "star", "stress", "stress-symmetric"]
    )
    def test_bfs_parents_equal_first_discoverer(
        self, monkeypatch, graphs, relax_stress_graph, name
    ):
        """Depths and parents equal a plain first-discoverer BFS at every budget."""
        if name.startswith("stress"):
            graph = relax_stress_graph(1, symmetrize=name.endswith("symmetric"))
        else:
            graph = graphs[name]
        source = _source(graph)
        want = _first_discoverer_bfs(graph, source)
        for budget in [1, 7, reader_module.EDGE_CHUNK]:
            monkeypatch.setattr(reader_module, "EDGE_CHUNK", budget)
            readers = [
                TraceRecorder(graph),
                ExternalGraphEngine(graph, BACKENDS["direct"]),
            ]
            for reader in readers:
                depths, parents = bfs_steps(reader, source)
                assert depths.tolist() == want[0], budget
                assert parents.tolist() == want[1], budget

    def test_bfs_parents_match_across_budgets(self, monkeypatch, graphs):
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
        ends = np.cumsum(graph.degrees[frontier])
        for reader in readers:
            neighbors, sources, weights = reader.read_neighbors(frontier)
            # Chunks carry no sources: edge e belongs to the first
            # frontier vertex whose cumulative degree exceeds e.
            owner = np.searchsorted(ends, np.arange(ends[-1]), side="right")
            assert np.array_equal(sources, frontier[owner])
            chunks = list(reader.neighbor_chunks(frontier))
            assert [c[:2] for c in chunks] == [
                (lo, hi) for lo, hi, _, _ in frontier_slices(graph.degrees[frontier])
            ]
            assert all(len(c) == 4 for c in chunks)
            assert np.array_equal(np.concatenate([c[2] for c in chunks]), neighbors)
            if weights is None:
                assert all(c[3] is None for c in chunks)
            else:
                got = np.concatenate([c[3] for c in chunks])
                assert np.array_equal(got.view(np.int64), weights.view(np.int64))

    def test_engine_reads_each_frontier_once(self, monkeypatch, graphs):
        """One ``request`` per step, at the call; one chunk per ``gather``."""
        graph = graphs["star"]
        frontier = np.arange(12, dtype=np.int64)  # the hub, then 11 leaves
        for budget in (1, 5):
            monkeypatch.setattr(reader_module, "EDGE_CHUNK", budget)
            for factory in BACKENDS.values():
                engine = ExternalGraphEngine(graph, factory)
                calls = []
                for name in ("request", "gather"):
                    method = getattr(engine.backend, name)
                    monkeypatch.setattr(
                        engine.backend,
                        name,
                        lambda s, n, name=name, method=method: (
                            calls.append((name, n // 8)) or method(s, n)
                        ),
                    )
                chunks = engine.neighbor_chunks(frontier)
                # The request happens at the call, for the whole frontier.
                assert [(name, n.size) for name, n in calls] == [
                    ("request", frontier.size)
                ]
                handed = [chunk[2].size for chunk in chunks]
                gathers = calls[1:]
                assert [name for name, _ in gathers] == ["gather"] * len(handed)
                assert [int(n.sum()) for _, n in gathers] == handed
                # Each gather is one chunk: within budget, or one sublist.
                assert all(n.sum() <= budget or n.size == 1 for _, n in gathers)
                assert sum(handed) == graph.degrees[frontier].sum()


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
    """Traces and engine runs at scale 14 hold a bounded transient, not E_f arrays."""

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

    def test_engine_sssp_holds_one_chunk(self):
        """An engine step gathers one chunk of 16 B records at a time.

        urand@14 has 524k edges (8 MiB of 16 B records); the run peaks near
        4x one chunk's records (the gathered 16 B words, their one-per-record
        ragged index and the chunk's candidates), not at E_f-sized arrays.
        """
        sssp = workloads.get("sssp")
        graph = sssp.prepare(load_dataset("urand", scale=14, seed=0))
        engine = ExternalGraphEngine(
            graph, lambda d: ExternalMemoryBackend(d, XLFDDMethod(16))
        )
        chunk_mib = reader_module.EDGE_CHUNK * 16 / 2**20
        assert self._peak_mib(lambda: sssp.run(engine)) <= 5 * chunk_mib
