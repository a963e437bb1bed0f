"""Read-amplification engine: Figure 3's properties."""

import numpy as np
import pytest

from repro.errors import ModelError, TraceError
from repro.memsim.cache import IdealCache, LRUCache, NoCache
from repro.memsim.raf import (
    direct_access_amplification,
    raf_curve,
    read_amplification,
)
from repro.traversal.trace import AccessTrace, TraceStep


def make_trace(steps):
    trace = AccessTrace(algorithm="t", graph_name="t", edge_list_bytes=100_000)
    for starts, lengths in steps:
        starts = np.asarray(starts)
        trace.append(TraceStep(np.arange(starts.size), starts, np.asarray(lengths)))
    return trace


class TestReadAmplification:
    def test_aligned_requests_have_raf_one(self):
        trace = make_trace([(np.array([0, 64]), np.array([64, 64]))])
        assert read_amplification(trace, 64).raf == pytest.approx(1.0)

    def test_misaligned_request_amplifies(self):
        # 10 bytes at offset 60 straddles two 64 B blocks: fetch 128 B.
        trace = make_trace([(np.array([60]), np.array([10]))])
        result = read_amplification(trace, 64)
        assert result.fetched_bytes == 128
        assert result.raf == pytest.approx(12.8)

    def test_within_step_sharing(self):
        # Two requests in the same 4 kB block: one fetch (Figure 2).
        trace = make_trace([(np.array([0, 1000]), np.array([100, 100]))])
        result = read_amplification(trace, 4096)
        assert result.fetched_bytes == 4096
        assert result.requests == 1

    def test_cross_step_refetch(self):
        # Same block touched in two steps: fetched twice with the default
        # step-local cache.
        trace = make_trace(
            [(np.array([0]), np.array([100])), (np.array([50]), np.array([100]))]
        )
        result = read_amplification(trace, 4096)
        assert result.fetched_bytes == 2 * 4096

    def test_ideal_cache_dedupes_across_steps(self):
        trace = make_trace(
            [(np.array([0]), np.array([100])), (np.array([50]), np.array([100]))]
        )
        result = read_amplification(trace, 4096, cache=IdealCache())
        assert result.fetched_bytes == 4096

    def test_cache_is_reset_before_use(self):
        trace = make_trace([(np.array([0]), np.array([100]))])
        cache = IdealCache()
        first = read_amplification(trace, 4096, cache=cache)
        second = read_amplification(trace, 4096, cache=cache)
        assert first.fetched_bytes == second.fetched_bytes

    def test_d_equals_alignment(self):
        trace = make_trace([(np.array([0, 5000]), np.array([100, 100]))])
        result = read_amplification(trace, 512)
        assert result.avg_transfer_bytes == pytest.approx(512)

    def test_per_step_arrays(self):
        trace = make_trace(
            [(np.array([0]), np.array([100])), (np.array([5000]), np.array([10]))]
        )
        result = read_amplification(trace, 64)
        assert result.per_step_fetched.tolist() == [128, 64]
        assert result.per_step_requests.tolist() == [2, 1]

    def test_empty_trace_rejected(self):
        trace = AccessTrace(algorithm="t", graph_name="t", edge_list_bytes=10)
        with pytest.raises(TraceError, match="empty trace"):
            read_amplification(trace, 64)


class TestDirectAccess:
    def test_one_request_per_sublist(self):
        trace = make_trace([(np.array([0, 1000]), np.array([100, 100]))])
        result = direct_access_amplification(trace, 16)
        assert result.requests == 2
        assert result.fetched_bytes == 224  # 112 aligned bytes each

    def test_no_sharing_even_same_block(self):
        # Unlike cache-line access, two sublists in one block both fetch.
        trace = make_trace([(np.array([0, 1000]), np.array([100, 100]))])
        result = direct_access_amplification(trace, 4096)
        assert result.fetched_bytes == 2 * 4096

    def test_max_transfer_splits_requests(self):
        trace = make_trace([(np.array([0]), np.array([5000]))])
        result = direct_access_amplification(trace, 16, max_transfer=2048)
        assert result.requests == 3
        assert result.fetched_bytes == 5008  # aligned up to 16

    def test_max_transfer_must_be_multiple(self):
        trace = make_trace([(np.array([0]), np.array([100]))])
        with pytest.raises(ModelError, match="multiple"):
            direct_access_amplification(trace, 48, max_transfer=100)
        for max_transfer in (0, -16):
            with pytest.raises(ModelError, match="positive multiple"):
                direct_access_amplification(trace, 16, max_transfer=max_transfer)

    def test_direct_geq_cacheline_amplification(self, bfs_trace):
        """Cache-line access shares blocks; direct access cannot, so its
        fetched volume dominates at every alignment."""
        for a in (64, 512, 4096):
            direct = direct_access_amplification(bfs_trace, a)
            cached = read_amplification(bfs_trace, a)
            assert direct.fetched_bytes >= cached.fetched_bytes


class TestRafCurve:
    def test_monotone_in_alignment(self, bfs_trace):
        """Observation 1: RAF increases with alignment size."""
        results = raf_curve(bfs_trace, (16, 64, 256, 1024, 4096))
        rafs = [r.raf for r in results]
        assert rafs == sorted(rafs)
        assert rafs[0] < rafs[-1]

    def test_raf_at_least_one(self, bfs_trace, sssp_trace):
        for trace in (bfs_trace, sssp_trace):
            for result in raf_curve(trace, (16, 4096)):
                assert result.raf >= 1.0

    def test_cache_factory_receives_alignment(self, bfs_trace):
        seen = []

        def factory(alignment):
            seen.append(alignment)
            return LRUCache(max(1, 65536 // alignment))

        raf_curve(bfs_trace, (64, 128), cache_factory=factory)
        assert seen == [64, 128]

    def test_no_cache_factory_gives_worst_case(self, bfs_trace):
        worst = raf_curve(bfs_trace, (512,), cache_factory=lambda a: NoCache())[0]
        default = raf_curve(bfs_trace, (512,))[0]
        assert worst.fetched_bytes >= default.fetched_bytes
