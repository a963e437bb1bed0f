"""GPU coalescing: transaction sizes and the EMOGI distribution."""

import numpy as np
import pytest

from repro.config import EMOGI_TRANSFER_DISTRIBUTION
from repro.errors import ModelError
from repro.memsim.coalesce import (
    coalesce_step,
    coalesce_trace,
    transfer_size_distribution,
)
from repro.traversal.trace import TraceStep


def make_step(starts, lengths):
    starts = np.asarray(starts)
    return TraceStep(np.arange(starts.size), starts, np.asarray(lengths))


class TestCoalesceStep:
    def test_single_sector_read(self):
        result = coalesce_step(make_step([0], [8]))
        assert result.size_counts == {32: 1}

    def test_full_line_read(self):
        result = coalesce_step(make_step([0], [128]))
        assert result.size_counts == {128: 1}

    def test_line_crossing_splits(self):
        # 128 B starting at 64: half of line 0, half of line 1.
        result = coalesce_step(make_step([64], [128]))
        assert result.size_counts == {64: 2}

    def test_misaligned_sublist(self):
        # 100 B at offset 16: sector span [0, 128) -> one 128 B transaction.
        result = coalesce_step(make_step([16], [100]))
        assert result.size_counts == {128: 1}

    def test_transaction_sizes_are_sector_multiples(self, bfs_trace):
        for step in bfs_trace:
            result = coalesce_step(step)
            for size in result.size_counts:
                assert size % 32 == 0
                assert 32 <= size <= 128

    def test_zero_length_requests_ignored(self):
        result = coalesce_step(make_step([0, 100], [0, 8]))
        assert result.transactions == 1

    def test_geometry_validation(self):
        with pytest.raises(ModelError, match="multiple"):
            coalesce_step(make_step([0], [8]), sector_bytes=32, line_bytes=100)
        for sector, line in ((0, 128), (-32, 128), (32, 0)):
            with pytest.raises(ModelError, match="positive"):
                coalesce_step(make_step([0], [8]), sector_bytes=sector, line_bytes=line)


class TestCoalesceResult:
    def test_totals(self):
        result = coalesce_step(make_step([0, 1024], [128, 64]))
        assert result.transactions == 2
        assert result.total_bytes == 192
        assert result.avg_transfer_bytes == pytest.approx(96)

    def test_unaligned_request_pads_to_sectors(self):
        # 64 B at offset 1000: sector span [992, 1088) crosses a line
        # boundary at 1024 -> one 32 B and one 64 B transaction.
        result = coalesce_step(make_step([1000], [64]))
        assert result.size_counts == {32: 1, 64: 1}

    def test_distribution_sums_to_one(self, bfs_trace):
        dist = coalesce_trace(bfs_trace).distribution()
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_empty_distribution(self):
        result = coalesce_step(make_step([0], [0]))
        assert result.distribution() == {}
        assert result.avg_transfer_bytes == 0.0


class TestAgainstPaper:
    @pytest.fixture(scope="class")
    def paper_like_trace(self):
        """BFS on a degree-32 graph: the paper's 256 B average sublists."""
        from repro.graph.generators import uniform_random_graph
        from repro.traversal.bfs import bfs

        graph = uniform_random_graph(11, 32.0, seed=3)
        return bfs(graph, 0).trace

    def test_trace_average_near_d_emogi(self, paper_like_trace):
        """The measured average transfer size should land near the paper's
        89.6 B (their conservative estimate) for a 256 B-sublist workload."""
        result = coalesce_trace(paper_like_trace)
        assert 70 <= result.avg_transfer_bytes <= 128

    def test_128B_dominates(self, paper_like_trace):
        """Matches the paper's observation that 128 B reads dominate."""
        dist = coalesce_trace(paper_like_trace).distribution()
        assert dist[128] == max(dist.values())

    def test_total_bytes_equal_sector_aligned_span(self, bfs_trace):
        from repro.memsim.raf import direct_access_amplification

        coalesced = coalesce_trace(bfs_trace).total_bytes
        direct = direct_access_amplification(bfs_trace, 32).fetched_bytes
        assert coalesced == direct


class TestTransferSizeDistribution:
    def test_paper_d_emogi(self):
        assert transfer_size_distribution(EMOGI_TRANSFER_DISTRIBUTION) == pytest.approx(89.6)

    def test_rejects_non_normalised(self):
        with pytest.raises(ModelError, match="sum to 1"):
            transfer_size_distribution({32: 0.5, 64: 0.2})

    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ModelError, match="positive"):
            transfer_size_distribution({0: 0.5, 64: 0.5})
