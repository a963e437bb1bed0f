"""Read-amplification engine: Figure 3's properties."""

import hashlib

import numpy as np
import pytest

from repro import systems
from repro import workloads as registry
from repro.errors import ModelError, TraceError
from repro.gpu.bam import BaMMethod
from repro.gpu.xlfdd_driver import XLFDDMethod
from repro.graph.datasets import load_dataset
from repro.memsim.cache import IdealCache, LRUCache, NoCache, StepLocalCache
from repro.memsim.raf import (
    direct_access_amplification,
    raf_curve,
    read_amplification,
)
from repro.traversal.trace import AccessTrace, TraceStep

#: Figure 3's alignment sweep.
FIG3_ALIGNMENTS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)

#: Cache models of the equivalence checks (``None``: the default).
CACHES = {
    "default": lambda: None,
    "none": NoCache,
    "ideal": IdealCache,
    "lru": lambda: LRUCache(64),
}


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


def _per_step(physical):
    return (
        [s.link_bytes for s in physical.steps],
        [s.requests for s in physical.steps],
    )


@pytest.mark.parametrize("trace_name", ["bfs_trace", "sssp_trace"])
class TestMatchesAccessMethods:
    """RAF equals the physical trace of the matching access method."""

    @pytest.mark.parametrize("cache_name", sorted(CACHES))
    @pytest.mark.parametrize("alignment", FIG3_ALIGNMENTS)
    def test_cache_line_equals_bam(self, request, trace_name, cache_name, alignment):
        trace = request.getfixturevalue(trace_name)
        make_cache = CACHES[cache_name]
        result = read_amplification(trace, alignment, make_cache())
        method_cache = make_cache()
        method = (
            BaMMethod(cacheline_bytes=alignment)
            if method_cache is None
            else BaMMethod(cacheline_bytes=alignment, cache=method_cache)
        )
        fetched, requests = _per_step(method.physical_trace(trace))
        assert result.per_step_fetched.tolist() == fetched
        assert result.per_step_requests.tolist() == requests
        assert result.useful_bytes == trace.useful_bytes

    @pytest.mark.parametrize("max_transfer", [None, 2048])
    @pytest.mark.parametrize("alignment", FIG3_ALIGNMENTS)
    def test_direct_equals_xlfdd(self, request, trace_name, max_transfer, alignment):
        trace = request.getfixturevalue(trace_name)
        result = direct_access_amplification(trace, alignment, max_transfer)
        method = XLFDDMethod(alignment_bytes=alignment, max_transfer_bytes=max_transfer)
        fetched, requests = _per_step(method.physical_trace(trace))
        assert result.per_step_fetched.tolist() == fetched
        assert result.per_step_requests.tolist() == requests

    def test_direct_4096_matches_figure5_pricing(self, request, trace_name):
        # Figure 5 prices XLFDD at 4 kB alignment under its 2 kB ceiling:
        # whole aligned units, so the ceiling rounds up to the alignment.
        trace = request.getfixturevalue(trace_name)
        result = direct_access_amplification(trace, 4096, max_transfer=2048)
        method = systems.get("xlfdd", alignment_bytes=4096).method
        fetched, requests = _per_step(method.physical_trace(trace))
        assert result.per_step_fetched.tolist() == fetched
        assert result.per_step_requests.tolist() == requests


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


#: Digests of ``read_amplification`` over Figure 3's nine alignments, per
#: paper dataset at scale 10 (seed 0), algorithm and cache model, as the
#: block-stream cache models computed them.
RAF_DIGESTS = {
    ("urand", "bfs", "step"): "6f0ec542f83ec37b",
    ("urand", "bfs", "ideal"): "dce30f6051c95996",
    ("urand", "sssp", "step"): "195ce309faa1ab5b",
    ("urand", "sssp", "ideal"): "16a97e36259a5915",
    ("kron", "bfs", "step"): "49b53974e9f9007f",
    ("kron", "bfs", "ideal"): "0deda4b7cf6e236a",
    ("kron", "sssp", "step"): "1a3a13c9534b2447",
    ("kron", "sssp", "ideal"): "1e4f83e05d9d2859",
    ("friendster", "bfs", "step"): "697cfc732d988e86",
    ("friendster", "bfs", "ideal"): "c6434c987b42d29d",
    ("friendster", "sssp", "step"): "bb2dcdd5ee022c04",
    ("friendster", "sssp", "ideal"): "f5d3c0761316f6bc",
}


@pytest.mark.parametrize("dataset, algorithm, cache_name", sorted(RAF_DIGESTS))
def test_raf_results_match_recorded_digests(dataset, algorithm, cache_name):
    """Every field of every Figure 3 ``RAFResult``, per-step arrays included."""
    trace = registry.get(algorithm).trace(load_dataset(dataset, scale=10, seed=0))
    make_cache = {"step": StepLocalCache, "ideal": IdealCache}[cache_name]
    digest = hashlib.sha256()
    for alignment in FIG3_ALIGNMENTS:
        r = read_amplification(trace, alignment, make_cache())
        fields = (r.alignment, r.useful_bytes, r.fetched_bytes, r.requests)
        digest.update(repr(fields).encode())
        digest.update(r.per_step_fetched.astype("<i8").tobytes())
        digest.update(r.per_step_requests.astype("<i8").tobytes())
    assert digest.hexdigest()[:16] == RAF_DIGESTS[dataset, algorithm, cache_name]
