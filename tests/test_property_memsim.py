"""Property-based tests: alignment, coalescing, caches, read amplification."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.memsim.alignment import (
    aligned_span,
    blocks_per_request,
    direct_requests,
    expand_to_blocks,
    split_by_max_transfer,
)
from repro.memsim.cache import IdealCache, LRUCache, NoCache, StepLocalCache
from repro.memsim.coalesce import coalesced_sizes
from repro.memsim.raf import direct_access_amplification, read_amplification
from repro.traversal.trace import AccessTrace, TraceStep

alignments = st.sampled_from([16, 32, 64, 128, 512, 4096])


@st.composite
def request_arrays(draw, max_requests=40):
    m = draw(st.integers(min_value=1, max_value=max_requests))
    starts = draw(
        st.lists(st.integers(0, 50_000), min_size=m, max_size=m).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        )
    )
    lengths = draw(
        st.lists(st.integers(0, 3_000), min_size=m, max_size=m).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        )
    )
    return starts, lengths


@given(request_arrays(), alignments)
@settings(max_examples=80, deadline=None)
def test_aligned_span_is_minimal_cover(reqs, a):
    starts, lengths = reqs
    a_starts, a_lengths = aligned_span(starts, lengths, a)
    nonzero = lengths > 0
    # Covers the request...
    assert np.all(a_starts[nonzero] <= starts[nonzero])
    assert np.all(
        a_starts[nonzero] + a_lengths[nonzero] >= starts[nonzero] + lengths[nonzero]
    )
    # ...is aligned...
    assert np.all(a_starts % a == 0)
    assert np.all(a_lengths % a == 0)
    # ...and minimal (shrinking either end by one block uncovers bytes).
    assert np.all(a_lengths[nonzero] - lengths[nonzero] < 2 * a)


@given(request_arrays(), alignments)
@settings(max_examples=80, deadline=None)
def test_block_expansion_consistent(reqs, a):
    starts, lengths = reqs
    blocks, request_idx = expand_to_blocks(starts, lengths, a)
    counts = blocks_per_request(starts, lengths, a)
    assert blocks.size == counts.sum()
    # Each request's blocks are consecutive and start at start//a.
    for i in np.unique(request_idx):
        mine = blocks[request_idx == i]
        assert mine[0] == starts[i] // a
        assert np.all(np.diff(mine) == 1)


@given(request_arrays(), st.sampled_from([64, 256, 2048]))
@settings(max_examples=80, deadline=None)
def test_split_conserves_bytes_and_caps_size(reqs, max_transfer):
    starts, lengths = reqs
    out_starts, out_lengths = split_by_max_transfer(starts, lengths, max_transfer)
    assert out_lengths.sum() == lengths.sum()
    if out_lengths.size:
        assert out_lengths.max() <= max_transfer
        assert out_lengths.min() >= 1


def _aligned_bounds(start, length, a):
    return start // a * a, -(-(start + length) // a) * a


def _direct_reference(starts, lengths, a, max_transfer):
    """Per-request loop: align, then cut back-to-back ``max_transfer`` pieces."""
    out_starts, out_sizes = [], []
    for start, length in zip(starts.tolist(), lengths.tolist()):
        if length == 0:
            continue
        lo, hi = _aligned_bounds(start, length, a)
        cap = hi - lo if max_transfer is None else max_transfer
        for piece in range(lo, hi, cap):
            out_starts.append(piece)
            out_sizes.append(min(cap, hi - piece))
    return out_starts, out_sizes


def _coalesced_reference(starts, lengths, sector, line):
    """Per-request loop: the sector span's overlap with each line it touches."""
    sizes = []
    for start, length in zip(starts.tolist(), lengths.tolist()):
        if length == 0:
            continue
        lo, hi = _aligned_bounds(start, length, sector)
        for line_start in range(lo // line * line, hi, line):
            sizes.append(min(hi, line_start + line) - max(lo, line_start))
    return sizes


@given(request_arrays(), alignments, st.sampled_from([None, 1, 2, 3, 16]))
@settings(max_examples=80, deadline=None)
def test_direct_requests_match_reference(reqs, a, multiple):
    starts, lengths = reqs
    max_transfer = None if multiple is None else multiple * a
    out_starts, sizes = direct_requests(starts, lengths, a, max_transfer)
    ref_starts, ref_sizes = _direct_reference(starts, lengths, a, max_transfer)
    assert out_starts.tolist() == ref_starts
    assert sizes.tolist() == ref_sizes
    assert np.all(sizes > 0) and np.all(sizes % a == 0)
    if max_transfer is not None:
        assert np.all(sizes <= max_transfer)
    # Splitting conserves the aligned spans' bytes.
    assert sizes.sum() == aligned_span(starts, lengths, a)[1].sum()


@given(request_arrays(), st.sampled_from([(32, 128), (16, 64), (64, 256)]))
@settings(max_examples=80, deadline=None)
def test_coalesced_sizes_match_reference(reqs, geometry):
    starts, lengths = reqs
    sector, line = geometry
    sizes = coalesced_sizes(starts, lengths, sector, line)
    assert sizes.tolist() == _coalesced_reference(starts, lengths, sector, line)
    assert np.all(sizes % sector == 0)
    assert np.all((sizes >= sector) & (sizes <= line))
    assert sizes.sum() == aligned_span(starts, lengths, sector)[1].sum()


block_streams = st.lists(
    st.lists(st.integers(0, 30), min_size=0, max_size=50).map(
        lambda xs: np.asarray(xs, dtype=np.int64)
    ),
    min_size=1,
    max_size=6,
)


@given(block_streams)
@settings(max_examples=80, deadline=None)
def test_cache_hierarchy_ordering(batches):
    """Ideal is the floor; NoCache the ceiling.  StepLocal and finite LRU
    sit in between but are not mutually ordered (LRU retains across steps
    yet thrashes within a large one; StepLocal is the reverse)."""
    def total_misses(cache):
        return sum(cache.access(batch) for batch in batches)

    none = total_misses(NoCache())
    step = total_misses(StepLocalCache())
    lru = total_misses(LRUCache(capacity_blocks=8))
    ideal = total_misses(IdealCache())
    assert none >= step >= ideal
    assert none >= lru >= ideal


@given(block_streams, st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_lru_stack_inclusion(batches, capacity):
    """Doubling LRU capacity never increases misses."""
    small = LRUCache(capacity_blocks=capacity)
    large = LRUCache(capacity_blocks=capacity * 2)
    small_misses = sum(small.access(b) for b in batches)
    large_misses = sum(large.access(b) for b in batches)
    assert large_misses <= small_misses


@given(block_streams)
@settings(max_examples=60, deadline=None)
def test_cache_stats_conservation(batches):
    for cache in (NoCache(), StepLocalCache(), IdealCache(), LRUCache(4)):
        for batch in batches:
            cache.access(batch)
        total = sum(b.size for b in batches)
        assert cache.stats.hits + cache.stats.misses == total


@st.composite
def traces(draw):
    """Traces whose per-step requests are disjoint, as real sublist reads
    are (a traversal step reads each frontier vertex's sublist once)."""
    steps = draw(st.integers(1, 4))
    trace = AccessTrace(algorithm="p", graph_name="p", edge_list_bytes=2**21)
    for _ in range(steps):
        m = draw(st.integers(1, 20))
        lengths = np.asarray(
            draw(st.lists(st.integers(0, 2_000), min_size=m, max_size=m)),
            dtype=np.int64,
        )
        gaps = np.asarray(
            draw(st.lists(st.integers(0, 5_000), min_size=m, max_size=m)),
            dtype=np.int64,
        )
        starts = np.cumsum(gaps + lengths) - lengths
        trace.append(TraceStep(np.arange(m), starts, lengths))
    return trace


@given(traces(), alignments)
@settings(max_examples=60, deadline=None)
def test_raf_at_least_one_when_data_read(trace, a):
    result = read_amplification(trace, a)
    if trace.useful_bytes > 0:
        assert result.raf >= 1.0 - 1e-12
    assert result.fetched_bytes == result.requests * a


@given(traces(), alignments)
@settings(max_examples=60, deadline=None)
def test_direct_access_dominates_cached(trace, a):
    direct = direct_access_amplification(trace, a)
    cached = read_amplification(trace, a)
    assert direct.fetched_bytes >= cached.fetched_bytes


@given(traces())
@settings(max_examples=40, deadline=None)
def test_raf_monotone_in_alignment_property(trace):
    fetched = [
        read_amplification(trace, a).fetched_bytes for a in (16, 64, 256, 1024)
    ]
    assert fetched == sorted(fetched)


@given(traces())
@settings(max_examples=40, deadline=None)
def test_write_traffic_conservation(trace):
    """CXL write traffic covers the user bytes; flash dominates CXL for
    every workload (page >= flit granularity, GC >= 1)."""
    from repro.memsim.writes import cxl_write_traffic, flash_write_traffic

    cxl = cxl_write_traffic(trace)
    flash = flash_write_traffic(trace)
    assert cxl.user_bytes == flash.user_bytes == trace.useful_bytes
    assert cxl.written_bytes >= cxl.user_bytes
    if trace.useful_bytes:
        assert flash.written_bytes >= cxl.written_bytes


@given(traces(), st.sampled_from([2, 5, 16]), st.sampled_from([64, 4096, 2**20]))
@settings(max_examples=40, deadline=None)
def test_stripe_split_consistent_with_device_of(trace, devices, stripe):
    """Every sub-request lands on the device that owns its first byte."""
    from repro.graph.partition import StripedLayout

    layout = StripedLayout(num_devices=devices, stripe_bytes=stripe)
    for step in trace:
        dev, starts, lengths = layout.split_requests(step.starts, step.lengths)
        assert np.array_equal(dev, layout.device_of(starts))
        # No sub-request crosses a stripe-unit boundary.
        assert np.all(starts // stripe == (starts + lengths - 1) // stripe)
