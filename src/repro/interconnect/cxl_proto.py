"""CXL.mem protocol accounting: flit splitting and tag budgets.

Section 3.5.3 and 4.2.2: the CXL data transfer size is 64 B, so a 96 B or
128 B GPU read is split into two 64 B CXL reads, consuming two of the
device's outstanding-request tags.  This is why the Agilex prototype's
128 measured tags translate to only 64 GPU-visible outstanding requests.
"""

from __future__ import annotations

import numpy as np

from ..config import CXL_FLIT_BYTES, CXL_SPEC_MAX_TAGS
from ..errors import ModelError
from ..memsim.alignment import direct_requests

__all__ = [
    "flits_per_request",
    "split_into_flits",
    "device_side_bytes",
    "gpu_visible_outstanding",
    "check_tag_budget",
]


def flits_per_request(
    request_bytes: np.ndarray | int, flit_bytes: int = CXL_FLIT_BYTES
) -> np.ndarray | int:
    """Number of 64 B CXL reads a GPU request of each size becomes."""
    if flit_bytes < 1:
        raise ModelError(f"flit size must be >= 1, got {flit_bytes}")
    if np.isscalar(request_bytes):
        if request_bytes < 0:
            raise ModelError(f"request size must be non-negative, got {request_bytes}")
        return -(-int(request_bytes) // flit_bytes)
    sizes = np.asarray(request_bytes, dtype=np.int64)
    if sizes.size and sizes.min() < 0:
        raise ModelError("request sizes must be non-negative")
    return -(-sizes // flit_bytes)


def split_into_flits(
    starts: np.ndarray, lengths: np.ndarray, flit_bytes: int = CXL_FLIT_BYTES
) -> tuple[np.ndarray, np.ndarray]:
    """Split byte-range requests into flit-aligned CXL reads.

    Returns ``(flit_starts, flit_lengths)`` — every output read is one
    whole flit (CXL moves full 64 B lines even for partial requests).
    """
    return direct_requests(starts, lengths, flit_bytes, flit_bytes)


def device_side_bytes(
    request_bytes: np.ndarray | int, flit_bytes: int = CXL_FLIT_BYTES
) -> np.ndarray | int:
    """Bytes that actually move on the CXL side for each GPU request.

    A 32 B GPU read still transfers one full 64 B flit at the CXL level, so
    device-side traffic can exceed link-side traffic; this is the quantity
    the device's internal channel bandwidth applies to.
    """
    return flits_per_request(request_bytes, flit_bytes) * flit_bytes


def gpu_visible_outstanding(
    device_tags: int,
    max_request_bytes: int,
    flit_bytes: int = CXL_FLIT_BYTES,
) -> int:
    """GPU-visible outstanding-request budget of a CXL device.

    Section 4.2.2's computation: 128 device tags / 2 flits per (up to
    128 B) GPU read = 64 outstanding GPU requests.
    """
    if device_tags < 1:
        raise ModelError(f"device_tags must be >= 1, got {device_tags}")
    worst_case_flits = int(flits_per_request(max_request_bytes, flit_bytes))
    if worst_case_flits < 1:
        raise ModelError("max_request_bytes must be positive")
    return max(1, device_tags // worst_case_flits)


def check_tag_budget(device_tags: int) -> None:
    """Reject tag budgets exceeding what 16 tag bits can express.

    The CXL spec permits 65,536 outstanding requests (Section 3.5.3);
    device models claiming more are misconfigured.
    """
    if not 1 <= device_tags <= CXL_SPEC_MAX_TAGS:
        raise ModelError(
            f"device_tags must be in [1, {CXL_SPEC_MAX_TAGS}], got {device_tags}"
        )
