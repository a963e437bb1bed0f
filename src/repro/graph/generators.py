"""Synthetic graph generators.

The paper evaluates on two GAP-suite synthetic graphs — a uniform random
graph (``urand27``) and a Kronecker graph (``kron27``) — plus the
real-world Friendster graph (Table 1).  At reproduction scale we generate:

* :func:`uniform_random_graph` — the GAP ``urand`` construction (each edge
  endpoint drawn uniformly), matching urand27's flat degree distribution;
* :func:`kronecker_graph` — the Graph500/R-MAT recursive construction used
  for kron27, giving the heavy-tailed degree distribution;
* :func:`chung_lu_graph` — a power-law Chung–Lu graph standing in for
  Friendster (community-structured social network; what matters for the
  paper's access patterns is its skewed degree distribution with ~55
  average degree).

Deterministic toy graphs (path, star, grid, complete) are provided for
tests and documentation examples.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphGenerationError
from .builder import build_csr
from .csr import CSRGraph

__all__ = [
    "uniform_random_graph",
    "kronecker_graph",
    "chung_lu_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
]

#: Graph500 R-MAT initiator probabilities (a, b, c; d is the remainder).
RMAT_A, RMAT_B, RMAT_C = 0.57, 0.19, 0.19
#: Edges per chunk of Kronecker quadrant draws (bounds the per-chunk
#: ``(chunk, scale)`` draw array to 16 MB at scale 30).
_KRONECKER_CHUNK_EDGES = 1 << 16


def _check_scale(scale: int) -> int:
    if not isinstance(scale, (int, np.integer)) or scale < 1 or scale > 30:
        raise GraphGenerationError(f"scale must be an int in [1, 30], got {scale!r}")
    return int(scale)


def _check_degree(degree: float) -> float:
    if not degree > 0:
        raise GraphGenerationError(f"average degree must be positive, got {degree!r}")
    return float(degree)


def uniform_random_graph(
    scale: int,
    avg_degree: float = 32.0,
    *,
    seed: int = 0,
    symmetrize: bool = True,
    name: str | None = None,
) -> CSRGraph:
    """GAP-style uniform random graph with ``2**scale`` vertices.

    Both endpoints of each of the ``n * avg_degree / (2 if symmetrize else 1)``
    generated edges are drawn uniformly at random; with ``symmetrize=True``
    the result is undirected (stored as a symmetric directed graph), as in
    the GAP benchmark's ``urand`` inputs.
    """
    scale = _check_scale(scale)
    avg_degree = _check_degree(avg_degree)
    n = 1 << scale
    num_edges = int(round(n * avg_degree / (2 if symmetrize else 1)))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, n, size=num_edges, dtype=np.int64)
    return build_csr(
        src,
        dst,
        num_vertices=n,
        symmetrize=symmetrize,
        dedupe=True,
        drop_self_loops=True,
        name=name or f"urand{scale}",
    )


def kronecker_graph(
    scale: int,
    edge_factor: float = 16.0,
    *,
    a: float = RMAT_A,
    b: float = RMAT_B,
    c: float = RMAT_C,
    seed: int = 0,
    symmetrize: bool = True,
    name: str | None = None,
) -> CSRGraph:
    """Graph500 Kronecker (R-MAT) graph with ``2**scale`` vertices.

    Each edge's endpoints are built bit by bit: at every one of the
    ``scale`` levels, the edge recurses into one of four quadrants of the
    adjacency matrix with probabilities ``(a, b, c, 1-a-b-c)``.  Quadrant
    draws are made in chunks of :data:`_KRONECKER_CHUNK_EDGES` edges and
    folded into per-chunk row/column accumulators, so memory stays
    O(num_edges) whatever the scale.  The draws consume the generator
    exactly as ``rng.choice(4, size=(num_edges, scale), p=...)`` would,
    so every edge is that of the one-batch formulation.
    """
    scale = _check_scale(scale)
    edge_factor = _check_degree(edge_factor)
    d = 1.0 - (a + b + c)
    if not all(0 <= p <= 1 for p in (a, b, c, d)):
        raise GraphGenerationError(
            f"R-MAT probabilities must form a distribution, got {(a, b, c, d)}"
        )
    n = 1 << scale
    num_edges = int(round(n * edge_factor))
    rng = np.random.default_rng(seed)
    # Drawing in a helper frees the last chunk's draw and bit arrays
    # before build_csr runs.
    return build_csr(
        *_rmat_edges(rng, scale, num_edges, (a, b, c, d)),
        num_vertices=n,
        symmetrize=symmetrize,
        dedupe=True,
        drop_self_loops=True,
        name=name or f"kron{scale}",
    )


def _rmat_edges(
    rng: np.random.Generator,
    scale: int,
    num_edges: int,
    probs: tuple[float, float, float, float],
) -> tuple[np.ndarray, np.ndarray]:
    """Permuted R-MAT endpoints ``(src, dst)`` of :func:`kronecker_graph`."""
    # Generator.choice(p=...) maps a uniform draw u to quadrant
    # searchsorted(cdf, u, side="right"), i.e. the count of cdf entries
    # <= u: 0 -> (0,0), 1 -> (0,1), 2 -> (1,0), 3 -> (1,1).  The row bit
    # is (quadrant >= 2); the column bit is the count's parity.
    cdf = np.cumsum(np.array(probs, dtype=np.float64))
    cdf /= cdf[-1]
    src = np.zeros(num_edges, dtype=np.int64)
    dst = np.zeros(num_edges, dtype=np.int64)
    for lo in range(0, num_edges, _KRONECKER_CHUNK_EDGES):
        hi = min(lo + _KRONECKER_CHUNK_EDGES, num_edges)
        u = rng.random((hi - lo, scale))
        row_bits = u >= cdf[1]
        col_bits = (u >= cdf[0]) ^ row_bits ^ (u >= cdf[2])
        rows, cols = src[lo:hi], dst[lo:hi]
        for level in range(scale):
            rows <<= 1
            rows |= row_bits[:, level]
            cols <<= 1
            cols |= col_bits[:, level]
    # Graph500 permutes vertex labels so that high-degree vertices are not
    # clustered at low IDs; this also randomises edge-list placement, which
    # matters for the alignment study.
    perm = rng.permutation(1 << scale).astype(np.int64)
    return perm[src], perm[dst]


def chung_lu_graph(
    scale: int,
    avg_degree: float = 55.0,
    *,
    exponent: float = 2.5,
    seed: int = 0,
    name: str | None = None,
) -> CSRGraph:
    """Chung–Lu power-law graph standing in for Friendster.

    Vertices get target weights following a truncated power law with the
    given ``exponent``; edge endpoints are then sampled proportionally to
    weight, which yields an expected degree sequence proportional to the
    weights.  The weight scale is chosen so the expected average degree
    matches ``avg_degree``.  Endpoints are drawn exactly as
    ``rng.choice(n, size, p=probs)`` would draw them, one uniform per
    endpoint, but located in the cdf through a bucket guide table
    (:func:`_guided_searchsorted`) instead of a binary search per draw.
    """
    scale = _check_scale(scale)
    avg_degree = _check_degree(avg_degree)
    if exponent <= 1.0:
        raise GraphGenerationError(f"power-law exponent must be > 1, got {exponent}")
    n = 1 << scale
    rng = np.random.default_rng(seed)
    # Inverse-CDF sampling of a Pareto-like weight in [1, n**0.5] keeps the
    # maximum expected degree below sqrt(n) (Chung-Lu validity condition).
    u = rng.uniform(0.0, 1.0, size=n)
    w_max = float(np.sqrt(n))
    alpha = exponent - 1.0
    weights = (1.0 - u * (1.0 - w_max ** -alpha)) ** (-1.0 / alpha)
    probs = weights / weights.sum()
    # Generator.choice(n, p=probs)'s cdf, normalised the same way.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    num_edges = int(round(n * avg_degree / 2))
    src = _guided_searchsorted(cdf, rng.random(num_edges))
    dst = _guided_searchsorted(cdf, rng.random(num_edges))
    return build_csr(
        src,
        dst,
        num_vertices=n,
        symmetrize=True,
        dedupe=True,
        drop_self_loops=True,
        name=name or f"friendster-like{scale}",
    )


def _guided_searchsorted(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` for ``u`` in ``[0, 1)``, as int64.

    ``Generator.choice(p=...)`` binary-searches every unsorted uniform,
    a cache miss per level.  Here ``k`` (a power of two, at least twice
    ``cdf.size``) equal-width buckets each start at the answer for their
    left edge ``j / k``; scaling ``u`` by ``k`` is exact, so a draw's
    bucket start never overshoots it, and a short linear scan (a few
    vector passes, each over the draws still short of it) finishes the
    count.  ``cdf`` must be non-decreasing with ``cdf[-1] == 1.0``.
    """
    k = 1 << ((cdf.size - 1).bit_length() + 1)
    start = cdf.searchsorted(np.arange(k) / k, side="right")
    idx = np.empty(u.size, dtype=np.int64)
    np.multiply(u, k, out=idx, casting="unsafe")  # floor(u * k), u >= 0
    idx = start[idx]
    pos = np.flatnonzero(cdf[idx] <= u)
    while pos.size:
        idx[pos] += 1
        pos = pos[cdf[idx[pos]] <= u[pos]]
    return idx


# --------------------------------------------------------------------------
# Deterministic toy graphs (tests and examples)
# --------------------------------------------------------------------------


def path_graph(n: int, *, directed: bool = False) -> CSRGraph:
    """Path ``0 - 1 - ... - (n-1)``; the worst case for traversal parallelism."""
    if n < 1:
        raise GraphGenerationError(f"path needs >= 1 vertex, got {n}")
    src = np.arange(n - 1, dtype=np.int64)
    dst = src + 1
    return build_csr(
        src, dst, num_vertices=n, symmetrize=not directed, name=f"path{n}"
    )


def star_graph(n: int) -> CSRGraph:
    """Star with hub 0 and ``n - 1`` leaves (one giant edge sublist)."""
    if n < 1:
        raise GraphGenerationError(f"star needs >= 1 vertex, got {n}")
    src = np.zeros(n - 1, dtype=np.int64)
    dst = np.arange(1, n, dtype=np.int64)
    return build_csr(src, dst, num_vertices=n, symmetrize=True, name=f"star{n}")


def complete_graph(n: int) -> CSRGraph:
    """Complete directed graph on ``n`` vertices (no self loops)."""
    if n < 1:
        raise GraphGenerationError(f"complete graph needs >= 1 vertex, got {n}")
    src = np.repeat(np.arange(n, dtype=np.int64), n)
    dst = np.tile(np.arange(n, dtype=np.int64), n)
    keep = src != dst
    return build_csr(src[keep], dst[keep], num_vertices=n, name=f"K{n}")


def grid_graph(rows: int, cols: int) -> CSRGraph:
    """4-connected 2-D grid; BFS on it has a long, narrow frontier profile."""
    if rows < 1 or cols < 1:
        raise GraphGenerationError(f"grid needs positive dims, got {rows}x{cols}")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right_src, right_dst = ids[:, :-1].ravel(), ids[:, 1:].ravel()
    down_src, down_dst = ids[:-1, :].ravel(), ids[1:, :].ravel()
    src = np.concatenate([right_src, down_src])
    dst = np.concatenate([right_dst, down_dst])
    return build_csr(
        src, dst, num_vertices=rows * cols, symmetrize=True, name=f"grid{rows}x{cols}"
    )
