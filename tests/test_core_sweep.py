"""Sweeps: the machinery behind Figures 5, 6, 11."""

import pytest

from repro import systems
from repro.core.experiment import run_algorithm
from repro.core.report import geometric_mean
from repro.core.sweep import (
    alignment_grid,
    comparison_grid,
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
    """Figure 6's cells: ``sweep_trace`` over ``comparison_grid()``."""

    @pytest.fixture(scope="class")
    def rows(self, urand_small, kron_small):
        return [
            p.as_dict()
            for graph in (urand_small, kron_small)
            for p in sweep_trace(run_algorithm(graph, "bfs"), comparison_grid())
        ]

    def test_row_count(self, rows):
        # 2 graphs x 1 algorithm x 2 systems.
        assert len(rows) == 4

    def test_grid_is_registry_defaults(self, rows):
        names = [systems.get("xlfdd").name, systems.get("bam").name]
        assert [r["system"] for r in rows] == names * 2

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

    def test_example_config_golden_digest(self):
        """``examples/sweep_config.yaml`` prices to its recorded bytes."""
        import hashlib
        from pathlib import Path

        from repro.bench.schema import canonical_json
        from repro.core.sweep import run_sweep
        from repro.exec import load_spec

        path = Path(__file__).resolve().parent.parent / "examples" / "sweep_config.yaml"
        loaded = load_spec(path)
        payload = canonical_json(run_sweep(loaded.spec, loaded.sweep).as_dict())
        assert hashlib.sha256(payload.encode()).hexdigest()[:16] == "36442e36a13aa553"

    def test_each_workload_normalised_by_its_own_baseline(self):
        from repro.core.sweep import run_sweep
        from repro.exec import ExperimentSpec, SweepConfig
        from repro.exec.spec import GraphSpec, SweepAxis

        spec = ExperimentSpec(graph=GraphSpec(dataset="urand", scale=10))
        config = SweepConfig(
            axes=(SweepAxis(key="graph.scale", values=(8, 10)),),
            baseline={"system.name": "emogi"},
        )
        result = run_sweep(spec, config)
        assert [row["normalized_runtime"] for row in result.rows] == [1.0, 1.0]
        assert result.rows[0]["runtime"] < result.rows[1]["runtime"]
        assert result.baseline_runtime == result.rows[1]["runtime"]

    def test_baseline_outside_system_rejected(self):
        from repro.errors import SpecError
        from repro.exec import SweepConfig

        with pytest.raises(SpecError, match="'graph.scale'"):
            SweepConfig.from_dict({
                "axes": {"system.name": ["xlfdd"]},
                "baseline": {"system.name": "emogi", "graph.scale": 8},
            })

    def test_no_baseline_rows_are_unnormalised(self, result):
        from repro.core.sweep import run_sweep
        from repro.exec import SweepConfig
        from repro.exec.spec import SweepAxis

        axis = SweepAxis(key="system.options.alignment_bytes", values=(16, 64, 512))
        bare = run_sweep(result.spec, SweepConfig(axes=(axis,)))
        assert all(
            set(row) == {"overrides", "runtime", "system", "bound"}
            for row in bare.rows
        )
        assert [r["runtime"] for r in bare.rows] == [r["runtime"] for r in result.rows]
        assert bare.baseline_runtime is None

    def test_points_without_baseline_raises(self):
        from repro.core.sweep import SweepResult
        from repro.exec import ExperimentSpec

        bare = SweepResult(
            spec=ExperimentSpec(), axes=("a",), rows=(), baseline_runtime=None
        )
        with pytest.raises(ModelError, match="baseline"):
            bare.points()
