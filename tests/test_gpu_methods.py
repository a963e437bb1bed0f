"""Access methods: zero-copy, BaM, XLFDD trace transformations."""

import numpy as np
import pytest

from repro.config import CXL_FLIT_BYTES
from repro.errors import ModelError
from repro.gpu.bam import BaMMethod
from repro.gpu.base import PhysicalTrace
from repro.gpu.xlfdd_driver import XLFDDMethod
from repro.gpu.zerocopy import ZeroCopyMethod
from repro.memsim.cache import IdealCache, NoCache
from repro.sim.fluid import StepInput
from repro.traversal.trace import AccessTrace, TraceStep


def make_trace(steps, edge_list_bytes=10**6):
    trace = AccessTrace(algorithm="t", graph_name="t", edge_list_bytes=edge_list_bytes)
    for starts, lengths in steps:
        starts = np.asarray(starts)
        trace.append(TraceStep(np.arange(starts.size), starts, np.asarray(lengths)))
    return trace


class TestPhysicalTypes:
    def test_step_validation(self):
        with pytest.raises(ModelError):
            StepInput(requests=-1, link_bytes=0, device_ops=0, device_bytes=0)

    def test_trace_aggregates(self):
        trace = PhysicalTrace(
            method_name="m",
            useful_bytes=100,
            steps=[
                StepInput(2, 150, 2, 150),
                StepInput(1, 50, 1, 50),
            ],
        )
        assert trace.fetched_bytes == 200
        assert trace.total_requests == 3
        assert trace.raf == pytest.approx(2.0)
        assert trace.avg_transfer_bytes == pytest.approx(200 / 3)

    def test_empty_trace_ratios(self):
        trace = PhysicalTrace(method_name="m", useful_bytes=0, steps=[])
        assert trace.raf == 0.0
        assert trace.avg_transfer_bytes == 0.0


class TestZeroCopy:
    def test_sizes_are_coalesced_transactions(self):
        method = ZeroCopyMethod()
        trace = make_trace([([0], [256])])
        physical = method.physical_trace(trace)
        # A 256 B aligned sublist = two full 128 B lines.
        assert physical.steps[0].requests == 2
        assert physical.steps[0].link_bytes == 256

    def test_dram_device_side_equals_link_side(self):
        physical = ZeroCopyMethod().physical_trace(make_trace([([0], [96])]))
        step = physical.steps[0]
        assert step.device_bytes == step.link_bytes
        assert step.device_ops == step.requests

    def test_cxl_flit_padding(self):
        physical = ZeroCopyMethod.for_cxl().physical_trace(make_trace([([0], [96])]))
        step = physical.steps[0]
        # One 96 B transaction = 2 flits = 128 device-side bytes.
        assert step.requests == 1
        assert step.link_bytes == 96
        assert step.device_ops == 2
        assert step.device_bytes == 128

    def test_same_link_traffic_dram_and_cxl(self, bfs_trace):
        """Section 4.2.1: the same EMOGI code/requests for both targets."""
        dram = ZeroCopyMethod().physical_trace(bfs_trace)
        cxl = ZeroCopyMethod.for_cxl().physical_trace(bfs_trace)
        assert dram.fetched_bytes == cxl.fetched_bytes
        assert dram.total_requests == cxl.total_requests
        assert cxl.steps[0].device_bytes >= dram.steps[0].device_bytes

    def test_name_reflects_target(self):
        assert ZeroCopyMethod().name == "emogi"
        assert ZeroCopyMethod.for_cxl().name == "emogi-cxl"

    def test_geometry_validation(self):
        with pytest.raises(ModelError):
            ZeroCopyMethod(sector_bytes=48, line_bytes=100)
        for geometry in (
            {"sector_bytes": 0},
            {"sector_bytes": -32},
            {"line_bytes": 0},
        ):
            with pytest.raises(ModelError, match="positive"):
                ZeroCopyMethod(**geometry)


class TestBaM:
    def test_requests_are_cachelines(self):
        method = BaMMethod(cacheline_bytes=4096)
        physical = method.physical_trace(make_trace([([0, 10_000], [100, 100])]))
        step = physical.steps[0]
        assert step.requests == 2
        assert step.link_bytes == 2 * 4096

    def test_within_step_sharing(self):
        method = BaMMethod(cacheline_bytes=4096)
        physical = method.physical_trace(make_trace([([0, 1000], [100, 100])]))
        assert physical.steps[0].requests == 1

    def test_cache_reset_between_runs(self):
        method = BaMMethod(cacheline_bytes=4096, cache=IdealCache())
        trace = make_trace([([0], [100])])
        first = method.physical_trace(trace).fetched_bytes
        second = method.physical_trace(trace).fetched_bytes
        assert first == second

    def test_no_cache_refetches(self):
        trace = make_trace([([0, 1000], [100, 100])])
        shared = BaMMethod(cacheline_bytes=4096).physical_trace(trace)
        none = BaMMethod(cacheline_bytes=4096, cache=NoCache()).physical_trace(trace)
        assert none.fetched_bytes > shared.fetched_bytes

    def test_name_includes_cacheline(self):
        assert BaMMethod(cacheline_bytes=512).name == "bam-512B"

    def test_validation(self):
        with pytest.raises(ModelError):
            BaMMethod(cacheline_bytes=0)


class TestXLFDD:
    def test_one_request_per_sublist(self):
        method = XLFDDMethod(alignment_bytes=16)
        physical = method.physical_trace(make_trace([([8, 1000], [240, 16])]))
        step = physical.steps[0]
        assert step.requests == 2
        # 240 B at offset 8 -> aligned [0, 256); 16 B at 1000 -> [992, 1016+] = 32.
        assert step.link_bytes == 256 + 32

    def test_large_sublists_split_at_2kb(self):
        method = XLFDDMethod(alignment_bytes=16)
        physical = method.physical_trace(make_trace([([0], [5000])]))
        assert physical.steps[0].requests == 3

    def test_avg_transfer_tracks_sublist_size(self):
        """Section 4.1.1: d approaches the average sublist size (256 B)."""
        starts = np.arange(0, 256 * 100, 256)
        lengths = np.full(100, 256)
        physical = XLFDDMethod().physical_trace(make_trace([(starts, lengths)]))
        assert physical.avg_transfer_bytes == pytest.approx(256)

    def test_alignment_forces_whole_units(self):
        method = XLFDDMethod(alignment_bytes=4096)
        physical = method.physical_trace(make_trace([([100], [50])]))
        assert physical.steps[0].link_bytes == 4096

    def test_no_dedup_across_sublists(self):
        # Two sublists in the same 4 kB unit both fetch it (no cache).
        method = XLFDDMethod(alignment_bytes=4096)
        physical = method.physical_trace(make_trace([([0, 1000], [100, 100])]))
        assert physical.steps[0].link_bytes == 2 * 4096

    def test_validation(self):
        with pytest.raises(ModelError):
            XLFDDMethod(alignment_bytes=0)
        with pytest.raises(ModelError, match="multiple"):
            XLFDDMethod(alignment_bytes=24, max_transfer_bytes=2048)

    def test_useful_bytes_preserved(self, bfs_trace):
        for method in (ZeroCopyMethod(), BaMMethod(), XLFDDMethod()):
            assert (
                method.physical_trace(bfs_trace).useful_bytes
                == bfs_trace.useful_bytes
            )

    def test_fetched_at_least_useful(self, bfs_trace):
        for method in (ZeroCopyMethod(), BaMMethod(), XLFDDMethod()):
            physical = method.physical_trace(bfs_trace)
            assert physical.fetched_bytes >= physical.useful_bytes
