"""Failure injection: the stack fails loudly and cleanly, never silently.

A reproduction's numbers are only trustworthy if broken inputs cannot
produce plausible-looking outputs.  These tests inject corrupted graphs,
lying backends, and inconsistent configurations, and assert that each is
rejected at the right layer with the package's own exception types.
"""

import numpy as np
import pytest

from repro.engine import ExternalGraphEngine
from repro.engine.backend import ExternalMemoryBackend
from repro.errors import (
    DeviceError,
    GraphFormatError,
    ReproError,
    SimulationError,
    TraceError,
)
from repro.gpu import XLFDDMethod
from repro.graph.csr import CSRGraph
from repro.sim.des import DESConfig, simulate_step
from repro.sim.events import Simulator
from repro.traversal.trace import AccessTrace, TraceStep


class TruncatingBackend(ExternalMemoryBackend):
    """A faulty device that silently holds fewer bytes than claimed."""

    def _account(self, starts, lengths):  # pragma: no cover - trivial
        self.stats.requests += int((lengths > 0).sum())
        self.stats.fetched_bytes += int(lengths.sum())


class TestCorruptGraphs:
    def test_corrupt_indptr_rejected_at_construction(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 3, 2]), np.array([0, 1]))

    def test_dangling_edge_target_rejected(self):
        with pytest.raises(GraphFormatError):
            CSRGraph(np.array([0, 2]), np.array([0, 99]))

    def test_all_repro_errors_share_a_base(self):
        for exc in (GraphFormatError, TraceError, DeviceError, SimulationError):
            assert issubclass(exc, ReproError)


class TestLyingBackend:
    def test_short_backend_rejected_by_engine(self, urand_small):
        # Backend initialised with half the edge list.
        payload = urand_small.indices.tobytes()
        with pytest.raises(DeviceError, match="full edge list"):
            ExternalGraphEngine(
                urand_small,
                lambda data: TruncatingBackend(
                    data[: len(payload) // 2], XLFDDMethod()
                ),
            )

    def test_reads_beyond_capacity_rejected(self):
        backend = ExternalMemoryBackend(b"\x00" * 128, XLFDDMethod())
        with pytest.raises(DeviceError):
            backend.read(np.array([120]), np.array([16]))


class TestInconsistentTraces:
    def test_trace_step_past_edge_list(self):
        trace = AccessTrace(algorithm="x", graph_name="g", edge_list_bytes=100)
        with pytest.raises(TraceError):
            trace.append(
                TraceStep(np.array([0]), np.array([96]), np.array([16]))
            )

    def test_trace_with_negative_geometry(self):
        with pytest.raises(TraceError):
            TraceStep(np.array([0]), np.array([-8]), np.array([16]))


class TestSimulatorGuards:
    def test_runaway_simulation_detected(self):
        sim = Simulator()

        def forever():
            sim.schedule(1e-9, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="runaway"):
            sim.run(max_events=1_000)

    def test_des_event_budget_enforced(self):
        config = DESConfig(
            link_bandwidth=1e9,
            latency=1e-6,
            device_iops=1e6,
            device_internal_bandwidth=1e9,
        )
        with pytest.raises(SimulationError, match="runaway"):
            simulate_step(np.full(1_000, 64), config, max_events=100)

    def test_straggler_device_slows_the_step_not_the_sim(self):
        """A 100x-slower device degrades the result, not the machinery."""
        fast = DESConfig(
            link_bandwidth=24e9, latency=1e-6,
            device_iops=10e6, device_internal_bandwidth=24e9, num_devices=2,
        )
        slow = DESConfig(
            link_bandwidth=24e9, latency=1e-6,
            device_iops=0.1e6, device_internal_bandwidth=24e9, num_devices=2,
        )
        sizes = np.full(400, 128)
        t_fast = simulate_step(sizes, fast).time
        t_slow = simulate_step(sizes, slow).time
        assert t_slow > 10 * t_fast


class TestCLIErrorPaths:
    def test_domain_errors_become_clean_exit_codes(self, capsys):
        from repro.cli import main

        code = main(["requirements", "--transfer-bytes", "-1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_evaluate_check_failure_is_clean(self, capsys, monkeypatch):
        """If the headline claims ever regress, `evaluate --check` must
        exit non-zero rather than print a passing-looking report."""
        from repro.cli import main
        from repro.core import suite

        class Broken(suite.EvaluationReport):
            def headline_checks(self):
                return {"observation1_xlfdd_near_dram": False}

        def fake_eval(scale=13, seed=0, **kwargs):
            report = Broken(scale=scale)
            report.comparison_rows = [{"x": 1}]
            report.latency_rows = [{"x": 1}]
            report.xlfdd_geomean = report.bam_geomean = 9.9
            report.cxl_flat_worst = 9.9
            return report

        monkeypatch.setattr(suite, "run_evaluation", fake_eval)
        code = main(["evaluate", "--scale", "10", "--check"])
        assert code == 1
        assert "[FAIL] observation1_xlfdd_near_dram" in capsys.readouterr().out
