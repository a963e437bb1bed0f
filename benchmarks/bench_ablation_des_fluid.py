"""Ablation: discrete-event simulation vs the fluid model.

The figures are priced with the closed-form fluid model; this bench
replays the largest BFS steps through the first-principles DES on the
paper's two link configurations and reports the agreement, validating
the modelling shortcut.
"""

import numpy as np

from repro.core.experiment import cxl_system, emogi_system, run_algorithm
from repro.core.report import format_table
from repro.sim.des import DESConfig, simulate_step
from repro.sim.fluid import StepInput, step_time
from repro.graph.datasets import load_dataset

from conftest import BENCH_SEED, run_once

#: DES is per-request; cap the replayed step size to keep the bench quick.
_MAX_REQUESTS = 20_000


def des_fluid_agreement(scale: int, seed: int):
    graph = load_dataset("urand", scale=scale, seed=seed)
    trace = run_algorithm(graph, "bfs")
    rows = []
    for system, num_devices in ((emogi_system(), 1), (cxl_system(1e-6), 5)):
        physical = system.method.physical_trace(trace)
        params = system.fluid_params()
        # Replay the biggest step: the one that dominates the runtime.
        biggest = max(physical.steps, key=lambda s: s.link_bytes)
        requests = min(biggest.requests, _MAX_REQUESTS)
        avg = biggest.link_bytes // max(1, biggest.requests)
        sizes = np.full(requests, avg, dtype=np.int64)
        des = simulate_step(sizes, DESConfig.from_fluid(params, num_devices))
        fluid = step_time(
            StepInput(
                requests=requests,
                link_bytes=int(sizes.sum()),
                device_ops=requests,
                device_bytes=int(sizes.sum()),
            ),
            params,
        )
        rows.append(
            {
                "system": system.name,
                "requests": requests,
                "des_us": des.time * 1e6,
                "fluid_us": (fluid.time - params.step_overhead) * 1e6,
                "ratio": des.time / (fluid.time - params.step_overhead),
            }
        )
    return rows


def test_ablation_des_vs_fluid(benchmark, capsys):
    rows = run_once(benchmark, des_fluid_agreement, scale=13, seed=BENCH_SEED)
    with capsys.disabled():
        print()
        print(format_table(rows, title="ablation: DES vs fluid step time"))
    for row in rows:
        assert 0.8 <= row["ratio"] <= 1.25, row
