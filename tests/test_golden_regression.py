"""Golden regression snapshots.

Exact values captured from a known-good build at fixed seeds/scales.
Any change to generators, traversal, amplification or the performance
model that shifts these numbers must be deliberate — update the
constants together with an explanation in the commit.

(Numpy's ``default_rng`` bit streams are stable across versions by API
contract, so these are safe to pin exactly.)
"""

import pytest

from repro.core.experiment import cxl_system, emogi_system, run_algorithm
from repro.core.runtime_model import predict_runtime
from repro.graph.datasets import load_dataset
from repro.memsim.raf import read_amplification

SCALE, SEED = 12, 0


@pytest.fixture(scope="module")
def urand():
    return load_dataset("urand", scale=SCALE, seed=SEED)


@pytest.fixture(scope="module")
def urand_bfs(urand):
    return run_algorithm(urand, "bfs")


class TestGraphGeneration:
    def test_edge_counts(self, urand):
        assert urand.num_edges == 130_542
        assert load_dataset("kron", scale=SCALE, seed=SEED).num_edges == 203_586
        assert (
            load_dataset("friendster", scale=SCALE, seed=SEED).num_edges == 213_884
        )


class TestTraversal:
    def test_default_source_is_max_degree(self, urand):
        from repro.core.experiment import default_source
        from repro.workloads import registry

        assert default_source is registry.default_source
        assert default_source(urand) == 1_486

    def test_bfs_frontier_profile(self, urand_bfs):
        assert urand_bfs.frontier_sizes == [1, 54, 1393, 2648]

    def test_useful_bytes(self, urand_bfs):
        assert urand_bfs.useful_bytes == 1_044_336


class TestAmplification:
    def test_raf_at_4kb(self, urand_bfs):
        result = read_amplification(urand_bfs, 4096)
        assert result.fetched_bytes == 2_293_760
        assert result.raf == pytest.approx(2.1963812412863293, rel=1e-12)


class TestRuntimeModel:
    def test_emogi_runtime(self, urand_bfs):
        runtime = predict_runtime(urand_bfs, emogi_system()).runtime
        assert runtime == pytest.approx(9.239733333333332e-5, rel=1e-9)

    def test_cxl_plus_2us_runtime(self, urand_bfs):
        runtime = predict_runtime(urand_bfs, cxl_system(2e-6)).runtime
        assert runtime == pytest.approx(2.3413359375e-4, rel=1e-9)

    def test_normalized_ratio(self, urand_bfs):
        """The derived quantity the figures report, pinned end to end.

        Note the two systems run different default links (Gen4 vs Gen3),
        so this ratio is a configuration-sensitivity canary, not a
        Figure 11 point.
        """
        emogi = predict_runtime(urand_bfs, emogi_system()).runtime
        cxl = predict_runtime(urand_bfs, cxl_system(2e-6)).runtime
        assert cxl / emogi == pytest.approx(2.53399, rel=1e-4)
