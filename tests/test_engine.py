"""Functional engine: correct results AND traffic matching the models.

The engine executes traversals through byte-level backends; these tests
are the repository's strongest cross-validation — the engine's results
must match the oracles and in-memory runs, and its measured traffic the
independently written analytic traffic models, exactly.
"""

import numpy as np
import pytest

from repro import workloads
from repro.core.experiment import run_algorithm
from repro.engine import ExternalGraphEngine, ExternalMemoryBackend
from repro.errors import DeviceError, ModelError, TraceError
from repro.faults import FaultPlan, FaultyBackend
from repro.gpu import BaMMethod, XLFDDMethod, ZeroCopyMethod
from repro.graph.csr import ragged_index
from repro.memsim.cache import LRUCache
from repro.memsim.coalesce import coalesce_trace
from repro.memsim.raf import direct_access_amplification, read_amplification
from repro.traversal.bfs import bfs
from repro.traversal.cc import connected_components
from repro.traversal.sssp import sssp_reference


@pytest.fixture(scope="module")
def direct_engine(urand_small):
    return ExternalGraphEngine(
        urand_small, lambda data: ExternalMemoryBackend(data, XLFDDMethod(16))
    )


class TestCorrectness:
    def test_bfs_matches_in_memory(self, urand_small, direct_engine):
        run = workloads.get("bfs").run(direct_engine, source=0)
        assert np.array_equal(run.values, bfs(urand_small, 0).depths)

    def test_bfs_different_sources(self, urand_small, direct_engine):
        for source in (5, 100):
            run = workloads.get("bfs").run(direct_engine, source=source)
            assert np.array_equal(run.values, bfs(urand_small, source).depths)

    def test_sssp_matches_dijkstra(self, weighted_small):
        engine = ExternalGraphEngine(
            weighted_small, lambda data: ExternalMemoryBackend(data, XLFDDMethod(16))
        )
        run = workloads.get("sssp").run(engine, source=0)
        assert np.allclose(run.values, sssp_reference(weighted_small, 0))

    def test_cc_matches_in_memory(self, urand_small):
        engine = ExternalGraphEngine(
            urand_small, lambda data: ExternalMemoryBackend(data, BaMMethod(512))
        )
        run = workloads.get("cc").run(engine)
        assert np.array_equal(
            run.values, connected_components(urand_small).labels
        )

    def test_results_identical_across_backends(self, urand_small):
        runs = [
            workloads.get("bfs")
            .run(ExternalGraphEngine(urand_small, factory), source=0)
            .values
            for factory in (
                lambda d: ExternalMemoryBackend(d, XLFDDMethod()),
                lambda d: ExternalMemoryBackend(d, BaMMethod()),
                lambda d: ExternalMemoryBackend(d, ZeroCopyMethod()),
            )
        ]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[1], runs[2])

    def test_sssp_requires_weights(self, urand_small, direct_engine):
        with pytest.raises(TraceError, match="weighted"):
            workloads.get("sssp").run(direct_engine, source=0)

    def test_bad_source(self, direct_engine):
        with pytest.raises(TraceError):
            workloads.get("bfs").run(direct_engine, source=10**9)


class TestTrafficCrossValidation:
    """Measured backend traffic == analytic model predictions, exactly."""

    def test_direct_backend_matches_model(self, urand_small):
        engine = ExternalGraphEngine(
            urand_small,
            lambda d: ExternalMemoryBackend(d, XLFDDMethod(16, 2048)),
        )
        run = workloads.get("bfs").run(engine, source=0)
        trace = run_algorithm(urand_small, "bfs", source=0)
        model = direct_access_amplification(trace, 16, max_transfer=2048)
        assert run.stats.fetched_bytes == model.fetched_bytes
        assert run.stats.requests == model.requests
        assert run.stats.useful_bytes == trace.useful_bytes

    def test_cached_backend_matches_model(self, urand_small):
        engine = ExternalGraphEngine(
            urand_small, lambda d: ExternalMemoryBackend(d, BaMMethod(4096))
        )
        run = workloads.get("bfs").run(engine, source=0)
        trace = run_algorithm(urand_small, "bfs", source=0)
        model = read_amplification(trace, 4096)
        assert run.stats.fetched_bytes == model.fetched_bytes
        assert run.stats.requests == model.requests

    def test_zero_copy_backend_matches_model(self, urand_small):
        engine = ExternalGraphEngine(
            urand_small, lambda d: ExternalMemoryBackend(d, ZeroCopyMethod())
        )
        run = workloads.get("bfs").run(engine, source=0)
        trace = run_algorithm(urand_small, "bfs", source=0)
        model = coalesce_trace(trace)
        assert run.stats.fetched_bytes == model.total_bytes
        assert run.stats.requests == model.transactions

    def test_measured_raf_ordering(self, urand_small):
        """Measured RAFs reproduce Observation 1 end to end."""
        rafs = {}
        for alignment in (16, 512, 4096):
            engine = ExternalGraphEngine(
                urand_small,
                lambda d, a=alignment: ExternalMemoryBackend(d, XLFDDMethod(a)),
            )
            run = workloads.get("bfs").run(engine, source=0)
            rafs[alignment] = run.stats.read_amplification
        assert rafs[16] < rafs[512] < rafs[4096]

    def test_lru_cache_backend(self, urand_small):
        cache = LRUCache(capacity_blocks=64)
        engine = ExternalGraphEngine(
            urand_small,
            lambda d: ExternalMemoryBackend(d, BaMMethod(512, cache)),
        )
        run = workloads.get("bfs").run(engine, source=0)
        assert run.stats.fetched_bytes >= run.stats.useful_bytes

    def test_stats_reset_between_runs(self, urand_small):
        engine = ExternalGraphEngine(
            urand_small, lambda d: ExternalMemoryBackend(d, XLFDDMethod())
        )
        first = workloads.get("bfs").run(engine, source=0).stats.fetched_bytes
        second = workloads.get("bfs").run(engine, source=0).stats.fetched_bytes
        assert first == second


class TestBackendValidation:
    def test_out_of_range_read_rejected(self):
        backend = ExternalMemoryBackend(b"\x00" * 64, XLFDDMethod())
        with pytest.raises(DeviceError, match="outside"):
            backend.read(np.array([60]), np.array([10]))

    def test_negative_length_rejected(self):
        backend = ExternalMemoryBackend(b"\x00" * 64, XLFDDMethod())
        with pytest.raises(DeviceError):
            backend.read(np.array([0]), np.array([-1]))

    def test_gather_returns_exact_bytes(self):
        data = bytes(range(64))
        backend = ExternalMemoryBackend(data, XLFDDMethod(16))
        out = backend.read(np.array([3, 40]), np.array([4, 2]))
        assert out.tobytes() == bytes([3, 4, 5, 6, 40, 41])
        # Fetched is aligned: [0,16) and [32,48) -> 32 bytes.
        assert backend.stats.fetched_bytes == 32
        assert backend.stats.useful_bytes == 6

    def test_config_validation(self):
        with pytest.raises(ModelError):
            ExternalMemoryBackend(b"\x00", XLFDDMethod(alignment_bytes=0))
        with pytest.raises(ModelError):
            ExternalMemoryBackend(
                b"\x00", XLFDDMethod(alignment_bytes=16, max_transfer_bytes=100)
            )
        with pytest.raises(ModelError):
            ExternalMemoryBackend(
                b"\x00", ZeroCopyMethod(sector_bytes=48, line_bytes=100)
            )
        # Non-positive geometry fails at construction, not on first read.
        for max_transfer in (0, -16):
            with pytest.raises(ModelError, match="max transfer"):
                ExternalMemoryBackend(
                    b"\x00", XLFDDMethod(max_transfer_bytes=max_transfer)
                )
        for sector, line in ((0, 128), (-32, 128), (32, 0)):
            with pytest.raises(ModelError, match="sector"):
                ExternalMemoryBackend(
                    b"\x00", ZeroCopyMethod(sector_bytes=sector, line_bytes=line)
                )

    def test_weighted_payload_roundtrip(self, weighted_small):
        engine = ExternalGraphEngine(
            weighted_small, lambda d: ExternalMemoryBackend(d, XLFDDMethod())
        )
        neighbors, _, weights = engine.read_neighbors(np.array([0]))
        assert np.array_equal(neighbors, weighted_small.neighbors(0))
        assert np.allclose(weights, weighted_small.edge_weights(0))


def _two_repeat_index(starts, counts):
    """The original ragged-index formula: arange - repeat + repeat."""
    out_start = np.cumsum(counts) - counts
    return (
        np.arange(int(counts.sum()), dtype=np.int64)
        - np.repeat(out_start, counts)
        + np.repeat(starts, counts)
    )


class TestRaggedIndex:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_two_repeat_formula(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 6, 50)  # zeros included
        starts = rng.integers(0, 1_000, 50)
        got = ragged_index(starts, counts)
        assert got.dtype == np.int64
        assert np.array_equal(got, _two_repeat_index(starts, counts))

    def test_zero_counts_contribute_nothing(self):
        got = ragged_index(np.array([10, 50, 7]), np.array([2, 0, 3]))
        assert got.tolist() == [10, 11, 7, 8, 9]
        assert ragged_index(np.array([4, 9]), np.array([0, 0])).size == 0

    def test_empty_input(self):
        got = ragged_index(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert got.dtype == np.int64 and got.size == 0


BACKEND_FACTORIES = {
    "direct": lambda d: ExternalMemoryBackend(d, XLFDDMethod(16)),
    "cached": lambda d: ExternalMemoryBackend(d, BaMMethod(512)),
    "zero_copy": lambda d: ExternalMemoryBackend(d, ZeroCopyMethod()),
    "faulty": lambda d: FaultyBackend(
        ExternalMemoryBackend(d, XLFDDMethod()),
        FaultPlan(seed=3, read_error_rate=0.1, spike_rate=0.1),
    ),
}


def _expected(data: bytes, starts, lengths) -> bytes:
    return b"".join(data[s : s + n] for s, n in zip(starts, lengths))


class TestWordGather:
    """``read`` returns exactly the requested bytes at every gather width."""

    @pytest.mark.parametrize("name", sorted(BACKEND_FACTORIES))
    @pytest.mark.parametrize("word", [1, 2, 4, 8])
    def test_aligned_ranges(self, name, word):
        size = 1_024
        rng = np.random.default_rng(word)
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        starts = rng.integers(0, size // word, 40) * word
        lengths = rng.integers(0, (size - starts) // word + 1) * word
        # Zero-length, whole-store and last-word ranges ride along.
        starts = np.append(starts, [word, 0, size - word])
        lengths = np.append(lengths, [0, size, word])
        out = BACKEND_FACTORIES[name](data).read(starts, lengths)
        assert out.dtype == np.uint8
        assert out.tobytes() == _expected(data, starts, lengths)

    @pytest.mark.parametrize("name", sorted(BACKEND_FACTORIES))
    @pytest.mark.parametrize("size", [1_024, 1_021])
    def test_unaligned_ranges(self, name, size):
        rng = np.random.default_rng(size)
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        starts = rng.integers(0, size, 40)
        lengths = rng.integers(0, size - starts + 1)
        starts = np.append(starts, [size - 1, size, 0, 5])
        lengths = np.append(lengths, [1, 0, size, 0])
        out = BACKEND_FACTORIES[name](data).read(starts, lengths)
        assert out.tobytes() == _expected(data, starts, lengths)

    @pytest.mark.parametrize("name", sorted(BACKEND_FACTORIES))
    def test_empty_batch(self, name):
        out = BACKEND_FACTORIES[name](bytes(64)).read(np.array([]), np.array([]))
        assert out.dtype == np.uint8 and out.size == 0

    def test_array_and_bytes_payloads_store_the_same_bytes(self):
        words = np.arange(16, dtype=np.int64)
        from_array = ExternalMemoryBackend(words, XLFDDMethod())
        from_bytes = ExternalMemoryBackend(words.tobytes(), XLFDDMethod())
        starts, lengths = np.array([0, 24]), np.array([128, 40])
        assert from_array.size_bytes == from_bytes.size_bytes == 128
        assert np.array_equal(
            from_array.read(starts, lengths), from_bytes.read(starts, lengths)
        )

    @pytest.mark.parametrize("graph_name", ["urand_small", "weighted_small"])
    def test_read_neighbors_does_not_alias_the_store(self, request, graph_name):
        graph = request.getfixturevalue(graph_name)
        engine = ExternalGraphEngine(
            graph, lambda d: ExternalMemoryBackend(d, XLFDDMethod())
        )
        frontier = np.arange(8, dtype=np.int64)
        first = engine.read_neighbors(frontier)
        kept = [a.copy() for a in first if a is not None]
        for array in first:
            if array is not None:
                array[...] = -1
        again = [a for a in engine.read_neighbors(frontier) if a is not None]
        assert all(np.array_equal(a, b) for a, b in zip(again, kept))
        assert np.array_equal(again[0], graph.indices[: again[0].size])
