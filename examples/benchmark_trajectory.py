#!/usr/bin/env python3
"""Walk the benchmark trajectory: run, compare, and gate a bench suite.

Runs the ``traversal`` benchmark family twice (quick mode) through the
same APIs ``repro bench`` uses, writes both as canonical
``BENCH_traversal.json`` payloads, prints the per-benchmark delta table,
and applies the CI regression gate — first for real (two runs of the
same code pass trivially), then against a synthetically slowed baseline
to show what a gate failure looks like.  The format, the normalization
story, and the measured speedup trajectory live in docs/PERFORMANCE.md.

Run: ``python examples/benchmark_trajectory.py [out_dir]``
"""

import copy
import json
import sys
from pathlib import Path

from repro.bench import (
    canonical_json,
    check_regression,
    compare_results,
    machine_info,
    render_comparison,
    run_family,
)


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("bench_results")
    out.mkdir(parents=True, exist_ok=True)

    # One calibration shared by both runs puts them on the same
    # normalized scale — exactly what run_benchmarks does per invocation.
    machine = machine_info()
    print(f"machine calibration: {machine['calibration_s'] * 1e3:.1f} ms")

    print("\nrun 1 (this is the 'baseline')...")
    base = run_family("traversal", quick=True, repeats=3, machine=machine)
    print("run 2 (this is the 'candidate')...")
    cand = run_family("traversal", quick=True, repeats=3, machine=machine)

    for tag, payload in (("base", base), ("cand", cand)):
        path = out / f"BENCH_traversal.{tag}.json"
        path.write_text(canonical_json(payload), encoding="utf-8")
        print(f"wrote {path}")

    # Scenario configs and verify blocks are deterministic; only times move.
    for b, c in zip(base["benchmarks"], cand["benchmarks"]):
        assert b["params"] == c["params"] and b["verify"] == c["verify"]
    print("\nverify blocks identical across runs (outputs pinned)")

    rows = compare_results(base, cand)
    print(render_comparison(rows, title="traversal: run 1 vs run 2"))

    ok, rows = check_regression(base, cand)
    print(f"\nregression gate (same code, 15% threshold): {'PASS' if ok else 'FAIL'}")

    # Now fake a 30% slowdown in the candidate to show a gate failure —
    # this is what CI prints when an optimization regresses.
    slowed = copy.deepcopy(cand)
    for bench in slowed["benchmarks"]:
        bench["normalized_best"] *= 1.30
    ok, rows = check_regression(base, slowed)
    print(render_comparison(rows, title="traversal: vs +30% synthetic slowdown"))
    print(f"regression gate on the slowed candidate: {'PASS' if ok else 'FAIL (expected)'}")

    summary = {
        "benchmarks": len(base["benchmarks"]),
        "gate_threshold": "15% (override: --threshold)",
    }
    print(f"\n{json.dumps(summary, indent=2)}")


if __name__ == "__main__":
    main()
