"""Build CSR graphs from raw edge arrays.

Generators and file loaders produce flat ``(src, dst[, weight])`` arrays;
this module turns them into validated :class:`~repro.graph.csr.CSRGraph`
instances, with the clean-up steps the GAP benchmark suite applies to its
inputs (self-loop removal, duplicate removal, optional symmetrization).
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph

__all__ = ["build_csr", "symmetrize_edges", "dedupe_edges", "remove_self_loops"]

#: Largest vertex count ``n`` whose packed keys ``src * n + dst`` (at most
#: ``n * n - 1``) fit in int64: ``floor(sqrt(2**63))``.
_MAX_PACKED_VERTICES = 3_037_000_499


def _as_edge_arrays(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    src = np.ascontiguousarray(src, dtype=np.int64)
    dst = np.ascontiguousarray(dst, dtype=np.int64)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphFormatError(
            f"src/dst must be equal-length 1-D arrays, got {src.shape} and {dst.shape}"
        )
    if weights is not None:
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if weights.shape != src.shape:
            raise GraphFormatError(
                f"weights shape {weights.shape} does not match edges {src.shape}"
            )
    return src, dst, weights


def remove_self_loops(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Drop edges with ``src == dst``."""
    src, dst, weights = _as_edge_arrays(src, dst, weights)
    keep = src != dst
    return src[keep], dst[keep], (weights[keep] if weights is not None else None)


def dedupe_edges(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Remove duplicate ``(src, dst)`` pairs, keeping the first weight.

    Input order is otherwise not preserved: edges come back sorted by
    ``(src, dst)``, which is the order CSR construction wants anyway.
    Each edge is packed into one int64 key ``src * n + dst`` (``n`` one
    past the largest endpoint) and sorted once; a stable sort keeps the
    first weight of each duplicate run.  Raises
    :class:`~repro.errors.GraphFormatError` for negative endpoints and
    for endpoints too large to pack (``n * n`` overflowing int64).
    """
    src, dst, weights = _as_edge_arrays(src, dst, weights)
    if src.size == 0:
        return src, dst, weights
    if min(src.min(), dst.min()) < 0:
        raise GraphFormatError("edge endpoints must be non-negative")
    n = int(max(src.max(), dst.max())) + 1
    if n > _MAX_PACKED_VERTICES:
        raise GraphFormatError(
            f"edge endpoints up to {n - 1} cannot be packed into int64 keys "
            f"(at most {_MAX_PACKED_VERTICES - 1})"
        )
    keys = src * n
    keys += dst
    if weights is None:
        keys.sort()
    else:
        order = np.argsort(keys, kind="stable")
        keys, weights = keys[order], weights[order]
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]
    dst = keys % n
    keys //= n  # in place: the key buffer becomes the source column
    return keys, dst, (weights[keep] if weights is not None else None)


def symmetrize_edges(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Add the reverse of every edge (making the graph undirected).

    Duplicates introduced by symmetrization are *not* removed here; chain
    with :func:`dedupe_edges` when a simple graph is required.
    """
    src, dst, weights = _as_edge_arrays(src, dst, weights)
    new_src = np.concatenate([src, dst])
    new_dst = np.concatenate([dst, src])
    new_w = np.concatenate([weights, weights]) if weights is not None else None
    return new_src, new_dst, new_w


def build_csr(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int | None = None,
    weights: np.ndarray | None = None,
    *,
    symmetrize: bool = False,
    dedupe: bool = False,
    drop_self_loops: bool = False,
    name: str = "graph",
) -> CSRGraph:
    """Construct a :class:`CSRGraph` from edge arrays.

    Parameters
    ----------
    src, dst:
        Edge endpoint arrays (directed ``src -> dst``).
    num_vertices:
        Vertex-set size; inferred as ``max(endpoint) + 1`` when omitted.
    weights:
        Optional per-edge weights, carried through all clean-up steps.
    symmetrize, dedupe, drop_self_loops:
        Clean-up steps, applied in the order: self-loop removal,
        symmetrization, deduplication.  With all three and no weights
        (every dataset generator's path) the cleaned edge columns are
        never materialised: one packed key buffer holds the build.
    """
    src, dst, weights = _as_edge_arrays(src, dst, weights)
    if symmetrize and dedupe and drop_self_loops and weights is None:
        graph = _symmetric_csr(src, dst, num_vertices, name)
        if graph is not None:
            return graph
    if drop_self_loops:
        src, dst, weights = remove_self_loops(src, dst, weights)
    if symmetrize:
        src, dst, weights = symmetrize_edges(src, dst, weights)
    if dedupe:
        src, dst, weights = dedupe_edges(src, dst, weights)

    if num_vertices is None:
        num_vertices = int(max(src.max(), dst.max())) + 1 if src.size else 0
    n = int(num_vertices)
    if src.size and (src.min() < 0 or dst.min() < 0):
        raise GraphFormatError("edge endpoints must be non-negative")
    if src.size and (src.max() >= n or dst.max() >= n):
        raise GraphFormatError(
            f"edge endpoints exceed num_vertices={n}: "
            f"max src {src.max()}, max dst {dst.max()}"
        )

    if not dedupe:  # dedupe_edges already returns edges sorted by source
        order = np.argsort(src, kind="stable")
        dst = dst[order]
        weights = weights[order] if weights is not None else None
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return CSRGraph(indptr, dst, weights, name=name)


#: Keys per pass of :func:`_symmetric_csr`'s in-place compaction.
_COMPACT_CHUNK = 1 << 18


def _symmetric_csr(
    src: np.ndarray, dst: np.ndarray, num_vertices: int | None, name: str
) -> CSRGraph | None:
    """The simple undirected CSR of ``(src, dst)``, built from packed keys.

    Equals :func:`build_csr` with ``symmetrize``, ``dedupe`` and
    ``drop_self_loops`` (and no weights) byte for byte, but holds one
    ``2 * len(src)`` key buffer instead of the filtered, symmetrized and
    deduplicated edge columns: both directions of every edge are packed
    as ``u * k + v`` (``k`` one past the largest endpoint), sorted once,
    and compacted in place chunk by chunk, dropping repeats and
    self-loops (``u * (k + 1)``, the keys divisible by ``k + 1``).
    ``indptr`` comes from a binary search per vertex and ``indices`` is
    the buffer itself, reduced modulo ``k`` and shrunk to its kept
    length.  Returns ``None`` for an empty input and for negative or
    unpackable endpoints, which the general path handles or rejects.
    """
    if src.size == 0 or min(src.min(), dst.min()) < 0:
        return None
    k = int(max(src.max(), dst.max())) + 1
    if k > _MAX_PACKED_VERTICES:
        return None
    m = src.size
    keys = np.empty(2 * m, dtype=np.int64)
    np.multiply(src, k, out=keys[:m])
    keys[:m] += dst
    np.multiply(dst, k, out=keys[m:])
    keys[m:] += src
    keys.sort()
    kept = _compact_simple_keys(keys, k)
    top = int(keys[kept - 1]) // k if kept else -1  # largest endpoint left
    n = top + 1 if num_vertices is None else int(num_vertices)
    if top >= n:
        raise GraphFormatError(
            f"edge endpoints exceed num_vertices={n}: "
            f"max src {top}, max dst {top}"
        )
    bounds = np.minimum(np.arange(n + 1, dtype=np.int64), k)
    bounds *= k
    indptr = np.searchsorted(keys[:kept], bounds)
    keys.resize(kept, refcheck=False)  # shrinks in place; no view is alive
    keys %= k
    return CSRGraph(indptr, keys, None, name=name)


def _compact_simple_keys(keys: np.ndarray, k: int) -> int:
    """Move the distinct non-self-loop keys of sorted ``keys`` to its front.

    Works through :data:`_COMPACT_CHUNK` keys at a time, so the only
    temporaries are one chunk's mask and survivors.  Returns how many
    keys were kept.
    """
    kept = 0
    previous = -1  # no key is negative
    for lo in range(0, keys.size, _COMPACT_CHUNK):
        chunk = keys[lo : lo + _COMPACT_CHUNK]
        keep = chunk % (k + 1) != 0
        keep[0] &= chunk[0] != previous
        np.logical_and(keep[1:], chunk[1:] != chunk[:-1], out=keep[1:])
        previous = int(chunk[-1])
        survivors = chunk[keep]  # a copy: safe to write at or below ``lo``
        keys[kept : kept + survivors.size] = survivors
        kept += survivors.size
    return kept
