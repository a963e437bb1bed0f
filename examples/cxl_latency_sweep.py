#!/usr/bin/env python3
"""How much latency can CXL memory add before GPU graph traversal slows?

Reproduces the paper's core experiment (Figure 11) across all three
datasets and both traversal algorithms on a PCIe Gen 3.0 link, then
recomputes the analytic allowance L <= N_max * d / W and shows the two
agree on where the knee falls.

Run: ``python examples/cxl_latency_sweep.py [scale]``
"""

import sys

from repro import load_dataset, run_algorithm
from repro.core.report import format_table
from repro.core.requirements import paper_gen3_requirements
from repro.core.sweep import cxl_latency_grid, sweep_trace
from repro.interconnect.pcie import PCIeLink
from repro.units import USEC, to_usec


def main() -> None:
    scale = int(sys.argv[1]) if len(sys.argv) > 1 else 13
    allowance = paper_gen3_requirements()
    print("analytic allowance:", allowance.describe())
    print()

    added = [0.0, 0.5 * USEC, 1 * USEC, 1.5 * USEC, 2 * USEC, 3 * USEC]
    gen3 = PCIeLink.from_name("gen3")
    rows = []
    for dataset in ("urand", "kron", "friendster"):
        graph = load_dataset(dataset, scale=scale, seed=0)
        for algorithm in ("bfs", "sssp"):
            trace = run_algorithm(graph, algorithm)
            for point in sweep_trace(trace, cxl_latency_grid(added), gen3):
                rows.append(
                    {
                        "dataset": dataset,
                        "algorithm": algorithm,
                        "added (us)": point.x / USEC,
                        "normalized runtime": point.normalized_runtime,
                        "binding resource": point.bound,
                    }
                )
    print(
        format_table(
            rows,
            title="CXL runtime / host-DRAM runtime, PCIe Gen 3.0 x16 (Figure 11)",
        )
    )
    flat = [r for r in rows if r["added (us)"] == 0.0]
    worst_flat = max(r["normalized runtime"] for r in flat)
    print(
        f"\nAt +0 us every workload is within {100 * (worst_flat - 1):.1f}% of "
        f"host DRAM; degradation starts once the GPU-observed latency "
        f"passes ~{to_usec(allowance.max_latency):.2f} us — Observation 2."
    )


if __name__ == "__main__":
    main()
