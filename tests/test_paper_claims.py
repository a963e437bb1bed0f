"""Integration tests: the paper's headline claims, end to end.

Each test regenerates a result from scratch (graph -> traversal ->
physical traffic -> runtime) and asserts the *shape* the paper reports:
who wins, by roughly what factor, and where the crossovers fall.
"""

import numpy as np
import pytest

from repro import figures
from repro.core.experiment import (
    bam_system,
    cxl_system,
    emogi_system,
    run_algorithm,
    run_experiment,
    xlfdd_system,
)
from repro.core.report import system_geomean
from repro.core.runtime_model import predict_runtime
from repro.core.sweep import cxl_latency_grid, sweep_trace
from repro.graph.datasets import load_dataset
from repro.interconnect.pcie import PCIeLink
from repro.units import USEC

SCALE = 13
#: Figure 11's link (Section 4.2.2).
GEN3 = PCIeLink.from_name("gen3")


@pytest.fixture(scope="module")
def urand():
    return load_dataset("urand", scale=SCALE, seed=1)


@pytest.fixture(scope="module")
def urand_bfs(urand):
    return run_algorithm(urand, "bfs")


class TestObservation1:
    """"A smaller address alignment size is better."""

    def test_xlfdd_runtime_monotone_in_alignment(self, urand, urand_bfs):
        runtimes = [
            run_experiment(
                urand, "bfs", xlfdd_system(alignment_bytes=a), trace=urand_bfs
            ).runtime
            for a in (16, 32, 128, 512, 4096)
        ]
        assert runtimes == sorted(runtimes)

    def test_small_alignment_approaches_host_dram(self, urand, urand_bfs):
        """Figure 5/6: XLFDD at 16 B is within ~1.3x of EMOGI."""
        emogi = run_experiment(urand, "bfs", emogi_system(), trace=urand_bfs)
        xlfdd = run_experiment(urand, "bfs", xlfdd_system(), trace=urand_bfs)
        assert xlfdd.runtime / emogi.runtime < 1.3

    def test_bam_gap_larger_than_xlfdd_gap(self):
        """Figure 6: geomean normalized runtime ~1.13x (XLFDD) vs ~2.76x
        (BaM); we assert XLFDD < 1.5x, BaM > 1.5x, and the ordering."""
        rows = figures.figure6(scale=SCALE, seed=1).rows
        xlfdd = system_geomean(rows, "xlfdd")
        bam = system_geomean(rows, "bam")
        # Paper (scale 27): 1.13x vs 2.76x.  At scale 13 the RAF (and
        # hence BaM's gap) is smaller, but the ordering and a clear margin
        # must hold.
        assert xlfdd < 1.5
        assert bam > 1.5
        assert bam > 1.3 * xlfdd


class TestObservation2:
    """"The allowable latency is a few microseconds."""

    def test_cxl_flat_below_the_gen3_bound(self, urand_bfs):
        """GPU-observed latency under 1.91 us: runtime within 5% of DRAM."""
        points = sweep_trace(urand_bfs, cxl_latency_grid((0.0,)), GEN3)
        assert points[0].normalized_runtime == pytest.approx(1.0, abs=0.05)

    def test_cxl_degrades_past_the_bound(self, urand_bfs):
        """+2 us added (≈3.8 us observed) is clearly past the 1.91 us
        allowance: runtime grows markedly."""
        points = sweep_trace(urand_bfs, cxl_latency_grid((2e-6, 3e-6)), GEN3)
        assert points[0].normalized_runtime > 1.4
        assert points[1].normalized_runtime > points[0].normalized_runtime

    def test_knee_position_tracks_littles_law(self, urand_bfs):
        """Past the knee, runtime grows linearly with latency at slope
        ~L/1.91us (the Little's-law regime)."""
        points = sweep_trace(urand_bfs, cxl_latency_grid((2e-6, 3e-6, 4e-6)), GEN3)
        norms = [p.normalized_runtime for p in points]
        growth1 = norms[1] - norms[0]
        growth2 = norms[2] - norms[1]
        assert growth1 == pytest.approx(growth2, rel=0.15)

    def test_gen4_tolerates_more_latency_than_gen3(self, urand_bfs):
        """2.87 us vs 1.91 us allowance: at +1 us added CXL latency the
        Gen4 link stays flat while Gen3 has begun to degrade.

        Gen4 needs 768 outstanding reads covered by the device pool, so we
        scale it to 12 devices (768 tags) — exactly the consideration that
        made the paper downgrade its rig to Gen 3.0 with 5 devices.
        """
        added = 1.0 * USEC

        def ratio(link, devices):
            dram = predict_runtime(urand_bfs, emogi_system(link)).runtime
            cxl = predict_runtime(
                urand_bfs, cxl_system(added, link, devices=devices)
            ).runtime
            return cxl / dram

        gen3_ratio = ratio(PCIeLink.from_name("gen3"), devices=5)
        gen4_ratio = ratio(PCIeLink.from_name("gen4"), devices=12)
        assert gen4_ratio < gen3_ratio
        assert gen4_ratio == pytest.approx(1.0, abs=0.1)
        assert gen3_ratio > 1.25

    def test_prototype_tags_bind_on_gen4(self, urand_bfs):
        """The flip side: keeping only 5 devices (320 tags < 768) on Gen4
        makes the *device pool* the concurrency bottleneck — the paper's
        stated reason for testing on Gen 3.0 (Section 4.2.2)."""
        link = PCIeLink.from_name("gen4")
        added = 1.0 * USEC
        five = predict_runtime(urand_bfs, cxl_system(added, link, devices=5))
        twelve = predict_runtime(urand_bfs, cxl_system(added, link, devices=12))
        assert five.runtime > 1.2 * twelve.runtime
        assert five.dominant_bound() == "latency"


class TestEquationConsistency:
    def test_predicted_throughput_near_link_bandwidth_for_emogi(self, urand_bfs):
        """Both EMOGI and BaM 'achieve a data transfer rate close to the
        peak PCIe bandwidth' (Section 3)."""
        result = predict_runtime(urand_bfs, emogi_system())
        w = emogi_system().link.effective_bandwidth
        assert result.avg_throughput > 0.6 * w

    def test_runtime_equals_d_over_t(self, urand_bfs):
        """Equation 1 holds by construction on the reported quantities."""
        result = predict_runtime(urand_bfs, emogi_system())
        assert result.runtime == pytest.approx(
            result.fetched_bytes / result.avg_throughput
        )


class TestWorkloadBreadth:
    @pytest.mark.parametrize("algorithm", ["bfs", "sssp", "cc"])
    def test_cxl_knee_holds_across_algorithms(self, urand, algorithm):
        trace = run_algorithm(urand, algorithm)
        points = sweep_trace(trace, cxl_latency_grid((0.0, 3e-6)), GEN3)
        assert points[0].normalized_runtime == pytest.approx(1.0, abs=0.1)
        assert points[1].normalized_runtime > 1.5

    def test_pagerank_insensitive_to_bam_alignment(self, urand):
        """Sequential workloads don't punish large alignments (related
        work: Graphene is near in-memory for PageRank)."""
        from repro.traversal.pagerank import pagerank

        trace = pagerank(urand, max_iterations=2, tol=1e-300).trace
        bam = run_experiment(urand, "pagerank", bam_system(), trace=trace)
        assert bam.runtime_result.raf < 1.2
