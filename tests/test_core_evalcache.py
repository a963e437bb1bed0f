"""The process's memo type and the evaluation caches built on it."""

import numpy as np
import pytest

from repro.core.evalcache import (
    Memo,
    cached_physical_trace,
    clear_evaluation_cache,
    evaluation_cache_stats,
    raf_memo,
    workload_memo,
)
from repro.core.experiment import run_algorithm
from repro.core.suite import run_evaluation
from repro.errors import ModelError
from repro.gpu.bam import BaMMethod
from repro.gpu.uvm import UVMMethod
from repro.gpu.xlfdd_driver import XLFDDMethod
from repro.memsim.cache import IdealCache, LRUCache
from repro.memsim.raf import read_amplification
from repro.traversal.trace import TraceStep


@pytest.fixture(autouse=True)
def _cold_caches():
    clear_evaluation_cache()
    yield
    clear_evaluation_cache()


class TestMemo:
    def test_hit_miss_counters(self):
        memo = Memo(capacity=4)
        assert memo.get_or_compute("k", lambda: 42) == 42
        assert memo.get_or_compute("k", lambda: 0) == 42
        assert memo.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_fifo_eviction_at_capacity(self):
        memo = Memo(capacity=2)
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("b", lambda: 2)
        memo.get_or_compute("c", lambda: 3)  # evicts "a"
        assert memo.stats()["entries"] == 2
        assert memo.get_or_compute("b", lambda: 0) == 2
        assert memo.get_or_compute("c", lambda: 0) == 3
        assert memo.get_or_compute("a", lambda: 0) == 0

    def test_flushed_by_clear_evaluation_cache(self):
        memo = Memo(capacity=4)
        memo.get_or_compute("k", lambda: 1)
        clear_evaluation_cache()
        assert memo.stats() == {"hits": 0, "misses": 0, "entries": 0}
        assert memo.get_or_compute("k", lambda: 2) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ModelError):
            Memo(capacity=0)


class TestCachedPhysicalTrace:
    def test_structurally_equal_method_hits(self, bfs_trace):
        first = cached_physical_trace(XLFDDMethod(alignment_bytes=64), bfs_trace)
        second = cached_physical_trace(XLFDDMethod(alignment_bytes=64), bfs_trace)
        assert second is first
        assert evaluation_cache_stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_append_restamps_the_trace_fingerprint(self, urand_small):
        trace = run_algorithm(urand_small, "bfs")
        method = XLFDDMethod()
        cached_physical_trace(method, trace)
        trace.append(TraceStep(np.array([0]), np.array([0]), np.array([64])))
        cached_physical_trace(method, trace)
        assert evaluation_cache_stats() == {"hits": 0, "misses": 2, "entries": 2}

    def test_equal_bam_methods_share_an_entry(self, bfs_trace):
        # Distinct cache objects, one configuration: the memo keys on the
        # cache's class and config, never on its state.
        first = cached_physical_trace(BaMMethod(), bfs_trace)
        second = cached_physical_trace(BaMMethod(), bfs_trace)
        assert second is first
        assert first.fetched_bytes > 0
        assert evaluation_cache_stats() == {"hits": 1, "misses": 1, "entries": 1}
        lru = cached_physical_trace(BaMMethod(cache=LRUCache(64)), bfs_trace)
        assert cached_physical_trace(BaMMethod(cache=LRUCache(64)), bfs_trace) is lru
        assert evaluation_cache_stats() == {"hits": 2, "misses": 2, "entries": 2}

    def test_uvm_pool_sizes_miss(self, bfs_trace):
        small = UVMMethod(pool_bytes=8 * 4096)
        large = UVMMethod(pool_bytes=64 * 4096)
        assert cached_physical_trace(small, bfs_trace) == small.physical_trace(bfs_trace)
        assert cached_physical_trace(large, bfs_trace) == large.physical_trace(bfs_trace)
        assert evaluation_cache_stats() == {"hits": 0, "misses": 2, "entries": 2}
        assert (
            cached_physical_trace(small, bfs_trace).fetched_bytes
            > cached_physical_trace(large, bfs_trace).fetched_bytes
        )
        assert evaluation_cache_stats()["hits"] == 2


class TestRafMemo:
    def test_default_cache_repeat_hits(self, bfs_trace):
        first = read_amplification(bfs_trace, 512)
        second = read_amplification(bfs_trace, 512)
        assert second is first
        assert raf_memo.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_explicit_cache_bypasses_memo(self, bfs_trace):
        read_amplification(bfs_trace, 512, cache=IdealCache())
        read_amplification(bfs_trace, 512, cache=IdealCache())
        assert raf_memo.stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestWorkloadMemo:
    def test_cleared_after_run_evaluation(self):
        run_evaluation(scale=8)
        assert workload_memo.stats()["entries"] > 0
        clear_evaluation_cache()
        assert workload_memo.stats() == {"hits": 0, "misses": 0, "entries": 0}
