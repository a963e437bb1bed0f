"""Sweeps: the machinery behind Figures 5, 6, 11."""

import pytest

from repro.core.report import geometric_mean
from repro.core.sweep import (
    alignment_grid,
    comparison_matrix,
    cxl_latency_grid,
    normalized,
    sweep_trace,
)
from repro.errors import ModelError
from repro.interconnect.pcie import PCIeLink

#: Figure 11's link (Section 4.2.2); the alignment sweep keeps Gen4.
GEN3 = PCIeLink.from_name("gen3")


class TestNormalized:
    def test_divides_by_baseline(self):
        assert normalized([2.0, 4.0], 2.0) == [1.0, 2.0]

    def test_zero_baseline_rejected(self):
        with pytest.raises(ModelError):
            normalized([1.0], 0.0)


class TestAlignmentSweep:
    @pytest.fixture(scope="class")
    def sweep(self, paper_bfs_trace):
        points = sweep_trace(paper_bfs_trace, alignment_grid((16, 64, 512, 4096)))
        # The grid appends BaM's single 4 kB comparison point last.
        return {"xlfdd": points[:-1], "bam": points[-1:]}

    def test_keys(self, sweep):
        assert set(sweep) == {"xlfdd", "bam"}
        assert len(sweep["xlfdd"]) == 4
        assert len(sweep["bam"]) == 1

    def test_monotone_in_alignment(self, sweep):
        """Figure 5: faster execution with smaller alignments."""
        norms = [p.normalized_runtime for p in sweep["xlfdd"]]
        assert norms == sorted(norms)

    def test_small_alignment_approaches_dram(self, sweep):
        """At 16 B the normalized runtime is ~1 (Observation 1)."""
        assert sweep["xlfdd"][0].normalized_runtime == pytest.approx(1.0, abs=0.35)

    def test_bam_point_at_4kb(self, sweep):
        assert sweep["bam"][0].x == 4096.0
        assert sweep["bam"][0].normalized_runtime > 1.3

    def test_no_bam_option(self, bfs_trace):
        sweep = sweep_trace(bfs_trace, alignment_grid((16,), include_bam=False))
        assert len(sweep) == 1
        assert not sweep[0].system.startswith("bam")


class TestCxlLatencySweep:
    @pytest.fixture(scope="class")
    def sweep(self, bfs_trace):
        return sweep_trace(bfs_trace, cxl_latency_grid(), GEN3)

    def test_four_points(self, sweep):
        assert [p.x for p in sweep] == [0.0, 1e-6, 2e-6, 3e-6]

    def test_flat_at_zero_added(self, sweep):
        """Figure 11: identical to DRAM while under the 1.91 us bound."""
        assert sweep[0].normalized_runtime == pytest.approx(1.0, abs=0.1)

    def test_monotone_growth(self, sweep):
        norms = [p.normalized_runtime for p in sweep]
        assert norms == sorted(norms)
        assert norms[-1] > 1.5

    def test_knee_binds_on_latency(self, sweep):
        """Past the knee the latency term is the dominant bound."""
        assert sweep[-1].bound == "latency"

    def test_more_devices_dont_help_past_pcie(self, bfs_trace):
        """With the PCIe link binding, doubling CXL devices changes little
        at zero added latency (the bottleneck is N_max, not the pool)."""
        five = sweep_trace(bfs_trace, cxl_latency_grid((0.0,), devices=5), GEN3)
        ten = sweep_trace(bfs_trace, cxl_latency_grid((0.0,), devices=10), GEN3)
        assert ten[0].runtime == pytest.approx(five[0].runtime, rel=0.05)


class TestMethodComparison:
    @pytest.fixture(scope="class")
    def rows(self, urand_small, kron_small):
        return comparison_matrix([urand_small, kron_small], algorithms=("bfs",))

    def test_row_count(self, rows):
        # 2 graphs x 1 algorithm x 2 systems.
        assert len(rows) == 4

    def test_normalized_column_present(self, rows):
        assert all("normalized_runtime" in row for row in rows)

    def test_figure6_ordering(self, rows):
        """XLFDD's geomean beats BaM's across the workload matrix."""
        xlfdd = [
            r["normalized_runtime"] for r in rows if str(r["system"]).startswith("xlfdd")
        ]
        bam = [
            r["normalized_runtime"] for r in rows if str(r["system"]).startswith("bam")
        ]
        assert geometric_mean(xlfdd) < geometric_mean(bam)


class TestRunSweep:
    """The declarative spec/grid path behind ``repro sweep``."""

    @pytest.fixture(scope="class")
    def result(self):
        from repro.core.sweep import run_sweep
        from repro.exec import ExperimentSpec, SweepConfig
        from repro.exec.spec import GraphSpec, SweepAxis, SystemSpec

        spec = ExperimentSpec(
            graph=GraphSpec(dataset="urand", scale=10),
            system=SystemSpec(name="xlfdd", link="gen4"),
        )
        config = SweepConfig(
            axes=(
                SweepAxis(
                    key="system.options.alignment_bytes", values=(16, 64, 512)
                ),
            ),
            baseline={"system.name": "emogi", "system.options": {}},
        )
        return run_sweep(spec, config)

    def test_one_row_per_point_in_grid_order(self, result):
        assert len(result.rows) == 3
        axis = "system.options.alignment_bytes"
        assert [row["overrides"][axis] for row in result.rows] == [16, 64, 512]

    def test_points_match_figure5_shape(self, result):
        points = result.points()
        norms = [p.normalized_runtime for p in points]
        assert norms == sorted(norms)  # slower with larger alignments
        assert points[0].normalized_runtime == pytest.approx(1.0, abs=0.35)

    def test_baseline_division_parent_side(self, result):
        for row in result.rows:
            assert row["normalized_runtime"] == pytest.approx(
                row["runtime"] / result.baseline_runtime
            )

    def test_points_without_baseline_raises(self):
        from repro.core.sweep import SweepResult
        from repro.exec import ExperimentSpec

        bare = SweepResult(
            spec=ExperimentSpec(), axes=("a",), rows=(), baseline_runtime=None
        )
        with pytest.raises(ModelError, match="baseline"):
            bare.points()
