"""Placement analysis and the full evaluation suite."""

import numpy as np
import pytest

from repro import figures
from repro.core.placement import placement_report, stripe_size_sweep
from repro.core.suite import run_evaluation
from repro.errors import ModelError
from repro.exec.executor import SerialExecutor
from repro.graph.partition import StripedLayout
from repro.traversal.trace import AccessTrace, TraceStep


def make_trace(steps, edge_list_bytes=2**22):
    trace = AccessTrace(algorithm="t", graph_name="t", edge_list_bytes=edge_list_bytes)
    for starts, lengths in steps:
        starts = np.asarray(starts)
        trace.append(TraceStep(np.arange(starts.size), starts, np.asarray(lengths)))
    return trace


class TestPlacementReport:
    def test_uniform_coverage_balances(self):
        starts = np.arange(0, 64 * 256, 64)
        trace = make_trace([(starts, np.full(starts.size, 64))])
        layout = StripedLayout(num_devices=4, stripe_bytes=64)
        report = placement_report(
            trace, layout, alignment_bytes=16, max_transfer_bytes=None
        )
        assert report.imbalance == pytest.approx(1.0)
        assert report.total_requests == 256

    def test_hot_region_imbalances_large_stripes(self):
        # All requests inside one 1 MiB region.
        starts = np.arange(0, 64 * 100, 64)
        trace = make_trace([(starts, np.full(100, 64))])
        fine = placement_report(
            trace, StripedLayout(4, 64), alignment_bytes=16, max_transfer_bytes=None
        )
        coarse = placement_report(
            trace, StripedLayout(4, 2**20), alignment_bytes=16,
            max_transfer_bytes=None,
        )
        assert coarse.imbalance > 2.0  # everything on one device
        assert fine.imbalance < 1.5

    def test_per_step_aggregation(self, bfs_trace):
        layout = StripedLayout(num_devices=16, stripe_bytes=4096)
        report = placement_report(bfs_trace, layout)
        assert report.imbalance >= 1.0
        assert report.per_device_requests.size == 16
        assert report.per_device_requests.sum() == report.total_requests

    def test_real_trace_small_stripes_balance_well(self, bfs_trace):
        reports = stripe_size_sweep(bfs_trace, num_devices=16)
        assert reports[0].stripe_bytes < reports[-1].stripe_bytes
        # Fine striping keeps the pool within ~30% of perfect balance.
        assert reports[0].imbalance < 1.3
        # Imbalance grows (weakly) with the stripe unit.
        imbalances = [r.imbalance for r in reports]
        assert imbalances[-1] >= imbalances[0]

    def test_empty_trace_rejected(self):
        trace = AccessTrace(algorithm="t", graph_name="t", edge_list_bytes=10)
        with pytest.raises(ModelError):
            placement_report(trace, StripedLayout(2, 64))

    def test_sweep_validation(self, bfs_trace):
        with pytest.raises(ModelError):
            stripe_size_sweep(bfs_trace, num_devices=0)


class TestEvaluationSuite:
    @pytest.fixture(scope="class")
    def report(self):
        return run_evaluation(scale=12, datasets=("urand", "kron"))

    def test_matrix_shape(self, report):
        # 2 datasets x 2 algorithms x 2 systems.
        assert len(report.comparison_rows) == 8
        # 2 x 2 x 4 latency points.
        assert len(report.latency_rows) == 16

    def test_headline_checks_pass(self, report):
        assert all(report.headline_checks().values())

    def test_geomeans_ordered(self, report):
        assert 0.8 < report.xlfdd_geomean < report.bam_geomean

    def test_render_mentions_paper_numbers(self, report):
        text = report.render()
        assert "1.13x" in text and "2.76x" in text

    def test_validation(self):
        with pytest.raises(ModelError):
            run_evaluation(scale=10, datasets=())
        # cxl_flat_worst needs the zero-added-latency point.
        with pytest.raises(ModelError):
            run_evaluation(scale=10, added_latencies_us=(1, 2))
        with pytest.raises(ModelError):
            run_evaluation(scale=10, added_latencies_us=())


class TestEvaluationMatchesFigures:
    """``repro evaluate`` and the figure functions price cells identically."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_evaluation(scale=8, executor=SerialExecutor())

    def test_comparison_rows_equal_figure6(self, report):
        fig6 = figures.figure6(scale=8).rows
        assert [
            (r["algorithm"], r["system"], r["normalized_runtime"])
            for r in report.comparison_rows
        ] == [(r["algorithm"], r["system"], r["normalized_runtime"]) for r in fig6]

    def test_latency_rows_equal_figure11(self, report):
        fig11 = figures.figure11(scale=8).rows
        assert len(report.latency_rows) == len(fig11)
        for ours, theirs in zip(report.latency_rows, fig11):
            assert (ours["dataset"], ours["algorithm"]) == (
                theirs["dataset"],
                theirs["algorithm"],
            )
            assert ours["added_latency_us"] == pytest.approx(theirs["added_latency_us"])
            assert ours["normalized_runtime"] == theirs["normalized_runtime"]
