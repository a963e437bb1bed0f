"""Every access method's ``step_input`` equals the per-request-size formula.

The methods price a step from per-read span arithmetic.  The oracle here
is the formula they replaced: list one size per link request
(:func:`~repro.memsim.coalesce.coalesced_sizes` for zero-copy,
:func:`~repro.memsim.alignment.direct_requests` for XLFDD, one line per
cache miss of the expanded block stream for BaM and UVM), then count and
sum the list and split each size into device flits with
:func:`~repro.interconnect.cxl_proto.flits_per_request`.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import systems
from repro.graph.datasets import load_dataset
from repro.gpu import BaMMethod, UVMMethod, XLFDDMethod, ZeroCopyMethod
from repro.interconnect.cxl_proto import flits_per_request
from repro.memsim.alignment import direct_requests, expand_to_blocks
from repro.memsim.cache import IdealCache, LRUCache
from repro.memsim.coalesce import coalesced_sizes
from repro.sim.fluid import StepInput
from repro.workloads import registry

#: Figure 3's and Figure 5's alignment sweep.
ALIGNMENTS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


def _request_sizes(method, starts, lengths):
    """One link-request size per request, as the methods used to list them."""
    if isinstance(method, ZeroCopyMethod):
        return coalesced_sizes(starts, lengths, method.sector_bytes, method.line_bytes)
    if isinstance(method, XLFDDMethod):
        return direct_requests(
            starts, lengths, method.alignment_bytes, method.effective_max_transfer
        )[1]
    line = getattr(method, "cacheline_bytes", None) or method.page_bytes
    misses = method.cache.access(expand_to_blocks(starts, lengths, line))
    return np.full(misses, line, dtype=np.int64)


def _oracle_step(method, starts, lengths):
    sizes = _request_sizes(method, starts, lengths)
    requests, link_bytes = int(sizes.size), int(sizes.sum())
    flit = method.device_flit_bytes
    if flit is None:
        return StepInput(requests, link_bytes, requests, link_bytes)
    ops = int(flits_per_request(sizes, flit).sum())
    return StepInput(requests, link_bytes, ops, ops * flit)


def _with_flit(method, flit):
    method.device_flit_bytes = flit
    return method


def _methods():
    """Every registered system's method plus the geometries the figures sweep."""
    methods = {name: systems.get(name).method for name in systems.available()}
    for a in ALIGNMENTS:
        methods[f"xlfdd-{a}"] = XLFDDMethod(a)
        methods[f"bam-{a}"] = BaMMethod(a)
    methods.update(
        {
            "xlfdd-uncapped": XLFDDMethod(16, None),
            "xlfdd-16-cap128": XLFDDMethod(16, 128),
            "xlfdd-flit64": _with_flit(XLFDDMethod(16), 64),
            "xlfdd-uncapped-flit48": _with_flit(XLFDDMethod(16, None), 48),
            "bam-lru": BaMMethod(512, cache=LRUCache(16)),
            "bam-ideal": BaMMethod(512, cache=IdealCache()),
            "uvm-pool": UVMMethod(pool_bytes=16 * 4096),
            "zerocopy-64-256": ZeroCopyMethod(sector_bytes=64, line_bytes=256),
            "zerocopy-64-256-cxl": ZeroCopyMethod(64, sector_bytes=64, line_bytes=256),
            "zerocopy-flit48": ZeroCopyMethod(48),
        }
    )
    return methods


METHODS = _methods()


@pytest.mark.parametrize("algorithm", ["bfs", "sssp"])
@pytest.mark.parametrize("dataset", ["urand", "kron", "friendster"])
def test_paper_traces_price_like_the_request_list(dataset, algorithm):
    """Every step of every method on the six paper traces, field by field."""
    trace = registry.get(algorithm).trace(load_dataset(dataset, scale=11, seed=0))
    for name, method in METHODS.items():
        oracle = copy.deepcopy(method)
        oracle.reset()
        expected = [_oracle_step(oracle, s.starts, s.lengths) for s in trace]
        assert method.physical_trace(trace).steps == expected, name


reads = st.lists(
    st.tuples(
        st.integers(0, 4_096),
        st.one_of(
            st.just(0),
            st.integers(1, 64),
            st.sampled_from([31, 32, 33, 96, 127, 128, 129, 255, 256, 257]),
            st.integers(1, 2_500),
        ),
    ),
    max_size=30,
)


@st.composite
def zero_copy_methods(draw):
    sector, line = draw(st.sampled_from([(32, 128), (64, 256), (16, 64)]))
    flit = draw(st.sampled_from([None, 64, 48, 32, 100]))
    return ZeroCopyMethod(flit, sector_bytes=sector, line_bytes=line)


@st.composite
def xlfdd_methods(draw):
    a = draw(st.sampled_from([16, 64, 512, 4096]))
    cap = draw(st.sampled_from([None, 2048, 4 * a]))
    return _with_flit(XLFDDMethod(a, cap), draw(st.sampled_from([None, 64, 48])))


@st.composite
def cached_methods(draw):
    line = draw(st.sampled_from([32, 512, 4096]))
    if draw(st.booleans()):
        pool = draw(st.sampled_from([None, 4 * line]))
        method = UVMMethod(page_bytes=line, pool_bytes=pool)
    else:
        cache = draw(st.sampled_from([None, LRUCache(4), IdealCache()]))
        method = BaMMethod(line) if cache is None else BaMMethod(line, cache=cache)
    return _with_flit(method, draw(st.sampled_from([None, 64, 48])))


def _read_arrays(pairs):
    starts = np.array([s for s, _ in pairs], dtype=np.int64)
    lengths = np.array([n for _, n in pairs], dtype=np.int64)
    return starts, lengths


@given(
    st.one_of(zero_copy_methods(), xlfdd_methods(), cached_methods()),
    st.lists(reads, min_size=1, max_size=3),
)
@settings(max_examples=150, deadline=None)
# Empty, single-sector, one-line and line-ending reads; a read ending
# exactly on a 128 B line boundary; 64/256 geometry; a 48 B flit.
@example(
    ZeroCopyMethod(48),
    [[(0, 0), (40, 0), (0, 1), (33, 30), (0, 128), (96, 32), (100, 156), (130, 500)]],
)
@example(
    ZeroCopyMethod(48, sector_bytes=64, line_bytes=256),
    [[(0, 0), (64, 1), (200, 56), (256, 256), (250, 7), (10, 1000)]],
)
@example(
    _with_flit(XLFDDMethod(16, None), 48), [[(0, 0), (5, 1), (16, 2048), (8, 4100)]]
)
@example(_with_flit(XLFDDMethod(16), 64), [[(0, 0), (1, 2047), (0, 2048), (8, 6000)]])
def test_step_input_matches_the_request_list(method, batches):
    """Batch after batch (a cache keeps its state between them)."""
    oracle = copy.deepcopy(method)
    method.reset()
    oracle.reset()
    for batch in batches:
        starts, lengths = _read_arrays(batch)
        expected = _oracle_step(oracle, starts, lengths)
        assert method.step_input(starts, lengths) == expected
