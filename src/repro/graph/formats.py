"""Tailored edge-list formats: aligned-padded CSR.

The second half of Section 5's preprocessing suggestion: beyond
reordering (see :mod:`repro.graph.reorder`), the *layout* of the edge
list itself can be changed.  Padded CSR starts every vertex's sublist at
an alignment boundary, trading storage capacity for access efficiency:

* each direct (cache-less) read fetches ``ceil(len / a) * a`` bytes
  instead of an aligned span that may straddle one extra block — saving
  up to ``a`` bytes per request;
* no two sublists share a block, so there is no false sharing to lose
  when nothing is cached — but also no beneficial sharing for cache-line
  disciplines, which is why this format suits the XLFDD-style direct
  path and *hurts* BaM-style cached access.

The storage overhead is the flip side: padding a 256 B-average edge list
to 4 kB boundaries inflates it ~16x, while 64 B padding costs ~12 %.
:func:`padding_tradeoff` quantifies both sides for a workload so the
alignment can be chosen deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import VERTEX_ID_BYTES
from ..errors import GraphFormatError
from ..memsim.alignment import align_up
from .csr import CSRGraph

__all__ = ["PaddedLayout", "padded_layout", "padded_trace", "padding_tradeoff"]


@dataclass(frozen=True)
class PaddedLayout:
    """Byte placement of every sublist in an alignment-padded edge list."""

    alignment_bytes: int
    starts: np.ndarray  # per-vertex byte offset of the sublist
    total_bytes: int
    raw_bytes: int

    @property
    def storage_overhead(self) -> float:
        """Padded size over raw size (>= 1)."""
        return self.total_bytes / self.raw_bytes if self.raw_bytes else 1.0


def padded_layout(graph: CSRGraph, alignment_bytes: int) -> PaddedLayout:
    """Place every sublist at the next ``alignment_bytes`` boundary."""
    if alignment_bytes < 1:
        raise GraphFormatError("alignment must be >= 1")
    lengths = graph.degrees * VERTEX_ID_BYTES
    padded = align_up(lengths, alignment_bytes)
    starts = np.concatenate([[0], np.cumsum(padded)[:-1]]).astype(np.int64)
    return PaddedLayout(
        alignment_bytes=alignment_bytes,
        starts=starts,
        total_bytes=int(padded.sum()),
        raw_bytes=graph.edge_list_bytes,
    )


def padded_trace(trace, graph: CSRGraph, layout: PaddedLayout):
    """Rewrite a logical trace's offsets into the padded layout.

    Lengths (the useful bytes) are unchanged; only where each sublist
    lives moves.  The result can be fed to any amplification or runtime
    model exactly like the original trace.
    """
    from ..traversal.trace import AccessTrace, TraceStep

    if layout.starts.size != graph.num_vertices:
        raise GraphFormatError("layout does not match the graph")
    out = AccessTrace(
        algorithm=f"{trace.algorithm}/padded{layout.alignment_bytes}",
        graph_name=trace.graph_name,
        edge_list_bytes=layout.total_bytes,
    )
    for step in trace:
        out.append(
            TraceStep(
                step.vertices,
                layout.starts[step.vertices],
                step.lengths,
            )
        )
    return out


def padding_tradeoff(
    trace,
    graph: CSRGraph,
    alignments: tuple[int, ...] = (16, 64, 256, 4096),
    *,
    max_transfer_bytes: int | None = 2_048,
) -> list[dict[str, float]]:
    """RAF savings vs storage overhead of padding, per alignment.

    Compares direct (cache-less) access amplification on the natural
    layout against the padded one, alongside the capacity cost — the
    two axes of the format decision.
    """
    from ..memsim.raf import direct_access_amplification

    rows = []
    for alignment in alignments:
        natural = direct_access_amplification(
            trace, alignment, max_transfer=max_transfer_bytes
        )
        layout = padded_layout(graph, alignment)
        padded = direct_access_amplification(
            padded_trace(trace, graph, layout),
            alignment,
            max_transfer=max_transfer_bytes,
        )
        rows.append(
            {
                "alignment_B": alignment,
                "raf_natural": natural.raf,
                "raf_padded": padded.raf,
                "raf_saving": natural.raf / padded.raf if padded.raf else 1.0,
                "storage_overhead": layout.storage_overhead,
            }
        )
    return rows
