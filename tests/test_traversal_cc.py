"""Connected components: correctness and trace behaviour."""

import numpy as np
import pytest

from repro.graph.builder import build_csr
from repro.graph.generators import path_graph, uniform_random_graph
from repro.traversal import reader as reader_module
from repro.traversal.cc import cc_reference, cc_steps, connected_components
from repro.traversal.reader import TraceRecorder


def two_triangles():
    """Two disjoint triangles: components {0,1,2} and {3,4,5}."""
    src = np.array([0, 1, 2, 3, 4, 5])
    dst = np.array([1, 2, 0, 4, 5, 3])
    return build_csr(src, dst, num_vertices=6, symmetrize=True)


def test_two_components():
    result = connected_components(two_triangles())
    assert result.num_components == 2
    assert result.labels[:3].tolist() == [0, 0, 0]
    assert result.labels[3:].tolist() == [3, 3, 3]


def test_labels_are_component_minimum():
    result = connected_components(two_triangles())
    assert set(result.labels) == {0, 3}


def test_matches_union_find_oracle():
    g = uniform_random_graph(9, 1.5, seed=11)  # sparse -> many components
    assert np.array_equal(
        connected_components(g).labels, cc_reference(g)
    )


def test_isolated_vertices_are_own_components():
    g = build_csr(
        np.array([0]), np.array([1]), num_vertices=4, symmetrize=True
    )
    result = connected_components(g)
    assert result.num_components == 3
    assert result.labels.tolist() == [0, 0, 2, 3]


def test_single_component_path():
    result = connected_components(path_graph(20))
    assert result.num_components == 1
    assert np.all(result.labels == 0)


def test_connected_urand_is_one_component(urand_small):
    # Average degree 16 at scale 10 is far above the connectivity threshold.
    assert connected_components(urand_small).num_components == 1


def test_first_frontier_is_all_vertices(urand_small):
    result = connected_components(urand_small)
    assert result.frontier_sizes[0] == urand_small.num_vertices


def test_trace_steps_shrink(urand_small):
    """Label propagation converges: later frontiers are (weakly) smaller."""
    sizes = connected_components(urand_small).frontier_sizes
    assert sizes[-1] <= sizes[0]
    assert len(sizes) >= 2


def test_path_takes_many_rounds():
    """Min-label propagation on a path needs ~n rounds: worst case."""
    result = connected_components(path_graph(32))
    assert result.trace.num_steps >= 16


@pytest.mark.parametrize("seed", range(5))
def test_filtered_relax_matches_unfiltered(
    monkeypatch, relax_stress_graph, reference_min_relax, seed
):
    """The filtered per-edge relax matches ``cc_steps``' unfiltered one, bit for bit.

    Labels, frontier sizes and every step's trace vertices equal the
    per-edge reference rounds of ``tests/conftest.py`` at every budget.
    """
    g = relax_stress_graph(seed, symmetrize=True, n=400)
    n = g.num_vertices
    want, frontiers = reference_min_relax(
        g, np.arange(n, dtype=np.int64), range(n), weighted=False
    )
    assert np.array_equal(want, cc_reference(g))
    for budget in [1, 7, reader_module.EDGE_CHUNK]:
        monkeypatch.setattr(reader_module, "EDGE_CHUNK", budget)
        recorder = TraceRecorder(g)
        (got,) = cc_steps(recorder)
        assert got.dtype == want.dtype and np.array_equal(got, want), budget
        assert recorder.frontier_sizes == [len(f) for f in frontiers]
        steps = recorder.trace("cc").steps
        assert [step.vertices.tolist() for step in steps] == frontiers
