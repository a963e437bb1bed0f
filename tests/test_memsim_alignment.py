"""Alignment arithmetic: spans, block expansion, transfer splitting."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.memsim.alignment import (
    align_down,
    align_up,
    aligned_span,
    blocks_per_request,
    expand_to_blocks,
    split_by_max_transfer,
)


class TestScalarAlignment:
    def test_align_down(self):
        assert align_down(100, 32) == 96
        assert align_down(96, 32) == 96
        assert align_down(0, 32) == 0

    def test_align_up(self):
        assert align_up(100, 32) == 128
        assert align_up(96, 32) == 96
        assert align_up(1, 32) == 32

    def test_array_forms(self):
        offsets = np.array([0, 31, 32, 33])
        assert align_down(offsets, 32).tolist() == [0, 0, 32, 32]
        assert align_up(offsets, 32).tolist() == [0, 32, 32, 64]

    def test_invalid_alignment(self):
        with pytest.raises(ModelError, match="alignment"):
            align_down(10, 0)
        with pytest.raises(ModelError, match="alignment"):
            align_up(10, -4)


class TestAlignedSpan:
    def test_figure2_example(self):
        """A sublist spanning 3 alignment units fetches exactly 3a bytes."""
        starts, lengths = aligned_span(np.array([90]), np.array([150]), 100)
        assert starts.tolist() == [0]
        assert lengths.tolist() == [300]

    def test_already_aligned_request(self):
        starts, lengths = aligned_span(np.array([64]), np.array([64]), 32)
        assert starts.tolist() == [64]
        assert lengths.tolist() == [64]

    def test_zero_length_stays_zero(self):
        _, lengths = aligned_span(np.array([10, 20]), np.array([0, 5]), 32)
        assert lengths.tolist() == [0, 32]

    def test_span_covers_request(self):
        rng = np.random.default_rng(0)
        starts = rng.integers(0, 10_000, 500)
        lengths = rng.integers(1, 600, 500)
        for a in (16, 32, 512, 4096):
            a_starts, a_lengths = aligned_span(starts, lengths, a)
            assert np.all(a_starts <= starts)
            assert np.all(a_starts + a_lengths >= starts + lengths)
            assert np.all(a_starts % a == 0)
            assert np.all(a_lengths % a == 0)
            # Never over-fetches by more than 2(a-1).
            assert np.all(a_lengths - lengths < 2 * a)

    def test_negative_length_rejected(self):
        with pytest.raises(ModelError, match="non-negative"):
            aligned_span(np.array([0]), np.array([-5]), 32)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError, match="same shape"):
            aligned_span(np.array([0, 1]), np.array([5]), 32)


class TestBlocksAndExpansion:
    def test_blocks_per_request(self):
        counts = blocks_per_request(np.array([0, 90, 100]), np.array([50, 20, 0]), 100)
        assert counts.tolist() == [1, 2, 0]

    @staticmethod
    def segments(starts, lengths, a):
        """Each request's slice of the block stream, from its block count."""
        counts = blocks_per_request(starts, lengths, a)
        ends = np.cumsum(counts)
        return [slice(int(e - c), int(e)) for c, e in zip(counts, ends)]

    def test_expand_to_blocks_ids(self):
        starts, lengths = np.array([0, 250]), np.array([150, 100])
        block_ids = expand_to_blocks(starts, lengths, 100)
        assert block_ids.tolist() == [0, 1, 2, 3]
        segs = self.segments(starts, lengths, 100)
        assert [block_ids[seg].tolist() for seg in segs] == [[0, 1], [2, 3]]

    def test_expand_skips_zero_length(self):
        starts, lengths = np.array([0, 500]), np.array([0, 50])
        block_ids = expand_to_blocks(starts, lengths, 100)
        assert block_ids.tolist() == [5]
        segs = self.segments(starts, lengths, 100)
        assert [block_ids[seg].tolist() for seg in segs] == [[], [5]]

    def test_expand_empty(self):
        empty = np.array([], dtype=np.int64)
        block_ids = expand_to_blocks(empty, empty, 100)
        assert block_ids.size == blocks_per_request(empty, empty, 100).size == 0

    def test_expansion_consistent_with_span(self):
        rng = np.random.default_rng(3)
        starts = rng.integers(0, 5_000, 300)
        lengths = rng.integers(0, 700, 300)
        for a in (64, 512):
            block_ids = expand_to_blocks(starts, lengths, a)
            _, a_lengths = aligned_span(starts, lengths, a)
            assert block_ids.size * a == a_lengths.sum()


class TestSplitByMaxTransfer:
    def test_small_requests_pass_through(self):
        starts, lengths = split_by_max_transfer(np.array([10]), np.array([100]), 2048)
        assert starts.tolist() == [10]
        assert lengths.tolist() == [100]

    def test_large_request_splits(self):
        starts, lengths = split_by_max_transfer(np.array([0]), np.array([5000]), 2048)
        assert starts.tolist() == [0, 2048, 4096]
        assert lengths.tolist() == [2048, 2048, 904]

    def test_exact_multiple_splits_cleanly(self):
        _, lengths = split_by_max_transfer(np.array([0]), np.array([4096]), 2048)
        assert lengths.tolist() == [2048, 2048]

    def test_zero_length_dropped(self):
        starts, lengths = split_by_max_transfer(
            np.array([0, 100]), np.array([0, 10]), 64
        )
        assert lengths.tolist() == [10]

    def test_bytes_conserved(self):
        rng = np.random.default_rng(1)
        starts = rng.integers(0, 10_000, 200)
        lengths = rng.integers(0, 9_000, 200)
        _, out_lengths = split_by_max_transfer(starts, lengths, 2048)
        assert out_lengths.sum() == lengths.sum()
        assert out_lengths.max() <= 2048
