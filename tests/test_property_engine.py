"""Property-based tests: the functional engine on random graphs."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import workloads
from repro.engine import ExternalGraphEngine, ExternalMemoryBackend
from repro.gpu import BaMMethod, XLFDDMethod, ZeroCopyMethod
from repro.graph.builder import build_csr
from repro.traversal.bfs import bfs_reference
from repro.traversal.sssp import sssp_reference


@st.composite
def graphs(draw, max_vertices=20, max_edges=60):
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    src = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
                     dtype=np.int64)
    dst = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
                     dtype=np.int64)
    return build_csr(src, dst, num_vertices=n)


backend_factories = st.sampled_from(
    [
        lambda d: ExternalMemoryBackend(d, XLFDDMethod(16)),
        lambda d: ExternalMemoryBackend(d, XLFDDMethod(64, 128)),
        lambda d: ExternalMemoryBackend(d, BaMMethod(64)),
        lambda d: ExternalMemoryBackend(d, ZeroCopyMethod()),
    ]
)


@given(graphs(), backend_factories, st.integers(0, 10**6))
@settings(max_examples=50, deadline=None)
def test_engine_bfs_matches_reference(graph, factory, source_seed):
    if graph.num_edges == 0:
        return
    source = source_seed % graph.num_vertices
    engine = ExternalGraphEngine(graph, factory)
    run = workloads.get("bfs").run(engine, source=source)
    assert np.array_equal(run.values, bfs_reference(graph, source))


@given(graphs(), backend_factories, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_engine_traffic_invariants(graph, factory, source_seed):
    if graph.num_edges == 0:
        return
    source = source_seed % graph.num_vertices
    engine = ExternalGraphEngine(graph, factory)
    run = workloads.get("bfs").run(engine, source=source)
    stats = run.stats
    # Fetched always covers the useful bytes; request count is positive
    # whenever anything was read.
    assert stats.fetched_bytes >= stats.useful_bytes
    assert (stats.requests == 0) == (stats.fetched_bytes == 0)
    if stats.useful_bytes:
        assert stats.read_amplification >= 1.0


@given(graphs(), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_engine_sssp_matches_dijkstra(graph, weight_seed):
    if graph.num_edges == 0:
        return
    weighted = graph.with_uniform_random_weights(seed=weight_seed)
    engine = ExternalGraphEngine(
        weighted, lambda d: ExternalMemoryBackend(d, XLFDDMethod(16))
    )
    run = workloads.get("sssp").run(engine, source=0)
    assert np.allclose(run.values, sssp_reference(weighted, 0))
