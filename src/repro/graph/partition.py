"""Striped placement of the edge list across multiple devices.

The paper's rigs aggregate many devices (16 XLFDDs, 4 NVMe SSDs, 5 CXL
memory boards) into one logical external memory.  We model the standard
block-interleaved ("RAID-0") layout: the edge-list byte space is divided
into fixed-size stripe units assigned to devices round-robin.  The layout
answers two questions the simulators need: *which device serves a byte
range* and *how a request splits at stripe boundaries*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DeviceError
from .csr import ragged_index

__all__ = ["StripedLayout", "stripe_layout"]


@dataclass(frozen=True)
class StripedLayout:
    """Block-interleaved mapping of a byte space onto ``num_devices``.

    Parameters
    ----------
    num_devices:
        Devices in the stripe set (>= 1).
    stripe_bytes:
        Stripe unit size; requests crossing a unit boundary split.
    """

    num_devices: int
    stripe_bytes: int

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise DeviceError(f"need >= 1 device, got {self.num_devices}")
        if self.stripe_bytes < 1:
            raise DeviceError(f"stripe_bytes must be >= 1, got {self.stripe_bytes}")

    def device_of(self, offsets: np.ndarray) -> np.ndarray:
        """Device index serving each byte offset (vectorized)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size and offsets.min() < 0:
            raise DeviceError("byte offsets must be non-negative")
        return (offsets // self.stripe_bytes) % self.num_devices

    def split_requests(
        self, starts: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split byte-range requests at stripe-unit boundaries.

        Returns ``(device, starts, lengths)`` of the resulting sub-requests.
        Zero-length input requests are dropped.  The result preserves input
        order (sub-requests of request *i* appear before those of *i+1*).
        """
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if starts.shape != lengths.shape:
            raise DeviceError("starts and lengths must have the same shape")
        keep = lengths > 0
        starts, lengths = starts[keep], lengths[keep]
        if starts.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        ends = starts + lengths
        first_unit = starts // self.stripe_bytes
        last_unit = (ends - 1) // self.stripe_bytes
        pieces = (last_unit - first_unit + 1).astype(np.int64)

        # Sub-request k of request i covers stripe unit first_unit[i] + k,
        # clipped to the request's [start, end) range.
        req_idx = np.repeat(np.arange(starts.size, dtype=np.int64), pieces)
        unit = ragged_index(first_unit, pieces)
        unit_start = unit * self.stripe_bytes
        sub_start = np.maximum(unit_start, starts[req_idx])
        sub_end = np.minimum(unit_start + self.stripe_bytes, ends[req_idx])
        device = unit % self.num_devices
        return device, sub_start, (sub_end - sub_start)

    def per_device_load(
        self, starts: np.ndarray, lengths: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate request count and byte load per device.

        Returns ``(request_counts, byte_counts)`` arrays of length
        ``num_devices`` — the imbalance check used when sizing device pools.
        """
        device, _, sub_len = self.split_requests(starts, lengths)
        counts = np.bincount(device, minlength=self.num_devices)
        load = np.bincount(device, weights=sub_len.astype(np.float64),
                           minlength=self.num_devices)
        return counts.astype(np.int64), load.astype(np.int64)


def stripe_layout(num_devices: int, stripe_bytes: int) -> StripedLayout:
    """Convenience constructor for :class:`StripedLayout`."""
    return StripedLayout(num_devices=num_devices, stripe_bytes=stripe_bytes)
