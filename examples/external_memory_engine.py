#!/usr/bin/env python3
"""Run graph algorithms on *functional* simulated external memory.

Unlike the other examples (which price precomputed traces), this one
executes BFS with the edge list actually stored behind a byte-granular
device backend: every neighbor fetch goes through an access method's
alignment/caching rules and is counted.  The measured traffic reproduces
the paper's read-amplification story live, and the results are verified
against the in-memory implementation on the spot.

Run: ``python examples/external_memory_engine.py [scale]``
"""

import sys

import numpy as np

from repro import load_dataset, workloads
from repro.core.report import format_table
from repro.engine import ExternalGraphEngine, ExternalMemoryBackend
from repro.gpu import BaMMethod, XLFDDMethod, ZeroCopyMethod
from repro.traversal.bfs import bfs
from repro.units import bytes_human


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 13
    graph = load_dataset("urand", scale=scale, seed=0)
    print(
        f"graph {graph.name}: edge list {bytes_human(graph.edge_list_bytes)} "
        "stored on simulated external memory\n"
    )
    reference = bfs(graph, 0).depths

    methods = [
        ("emogi zero-copy (32 B sectors)", ZeroCopyMethod()),
        ("xlfdd direct (16 B, <=2 kB)", XLFDDMethod(alignment_bytes=16)),
        ("bam cached (4 kB lines)", BaMMethod(cacheline_bytes=4096)),
        ("bam cached (512 B lines)", BaMMethod(cacheline_bytes=512)),
    ]
    rows = []
    for label, method in methods:
        engine = ExternalGraphEngine(
            graph, lambda d, m=method: ExternalMemoryBackend(d, m)
        )
        run = workloads.get("bfs").run(engine, source=0)
        assert np.array_equal(run.values, reference), f"{label}: wrong BFS!"
        rows.append(
            {
                "backend": label,
                "requests": run.stats.requests,
                "fetched": bytes_human(run.stats.fetched_bytes),
                "RAF": run.stats.read_amplification,
                "avg d (B)": run.stats.avg_transfer_bytes,
            }
        )
    print(format_table(rows, title="measured external-memory traffic (BFS)"))
    print(
        "\nEvery backend produced identical BFS depths; only the traffic"
        "\ndiffers — Observation 1, measured rather than modelled."
    )


if __name__ == "__main__":
    main()
