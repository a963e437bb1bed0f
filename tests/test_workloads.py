"""The workload registry: algorithms, memory modes, the bench gate.

Pins the registry surface: ``repro.workloads`` as the single dispatch
point (typed errors, one step loop per algorithm run over both the
engine and the in-memory recorder, engine bytes equal to model bytes),
the semi-/fully-external engine memory modes, the ``workload:`` spec
section, and the bench gate's missing-baseline behaviour.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import systems, workloads
from repro.engine.backend import ExternalMemoryBackend
from repro.engine.engine import (
    FULLY_EXTERNAL,
    SEMI_EXTERNAL,
    ExternalGraphEngine,
)
from repro.errors import ConfigError, ModelError, WorkloadError
from repro.gpu import AccessMethod, BaMMethod, UVMMethod, XLFDDMethod, ZeroCopyMethod
from repro.memsim.cache import IdealCache, LRUCache
from repro.sim.fluid import StepInput
from repro.traversal import bfs, connected_components, pagerank
from repro.traversal.kcore import kcore
from repro.traversal.labelprop import label_propagation
from repro.traversal.triangles import triangle_count, triangle_count_reference
from repro.traversal.walks import random_walks
from repro.workloads import Workload
from repro.workloads.signature import AccessSignature

ALL_WORKLOADS = (
    "bfs",
    "cc",
    "kcore",
    "label_propagation",
    "pagerank",
    "random_walk",
    "sssp",
    "triangle_count",
)


def make_engine(graph, memory_mode=SEMI_EXTERNAL):
    return ExternalGraphEngine(
        graph,
        lambda d: ExternalMemoryBackend(d, ZeroCopyMethod()),
        memory_mode=memory_mode,
    )


class TestRegistry:
    def test_available_lists_all_eight(self):
        assert workloads.available() == sorted(ALL_WORKLOADS)

    def test_get_unknown_raises_typed_error_listing_names(self):
        with pytest.raises(WorkloadError, match="unknown workload 'nope'"):
            workloads.get("nope")
        with pytest.raises(WorkloadError, match="label_propagation"):
            workloads.get("nope")

    def test_workload_error_is_model_error(self):
        # Pre-registry call sites catch ModelError; the subclass keeps
        # them working unchanged.
        assert issubclass(WorkloadError, ModelError)

    def test_describe_mentions_every_workload(self):
        text = workloads.describe()
        for name in ALL_WORKLOADS:
            assert name in text

    def test_register_duplicate_rejected_unless_replace(self):
        wl = workloads.get("bfs")
        with pytest.raises(WorkloadError, match="already registered"):
            workloads.register(Workload(
                name="bfs",
                description=wl.description,
                signature=wl.signature,
                algorithm=wl.algorithm,
            ))
        workloads.register(wl, replace=True)  # idempotent re-register

    def test_spec_name_lists_match_registry(self):
        # exec.spec keeps its own copies so the spec layer stays
        # import-light; they must not drift from the registry.
        from repro.exec import spec

        assert set(spec.KNOWN_ALGORITHMS) == set(workloads.available())

    def test_signature_validation(self):
        with pytest.raises(WorkloadError, match="frontier profile"):
            AccessSignature(
                sequential_read_fraction=0.5,
                write_fraction=0.0,
                frontier_profile="zigzag",
            )
        with pytest.raises(WorkloadError):
            AccessSignature(
                sequential_read_fraction=1.5,
                write_fraction=0.0,
                frontier_profile="dense",
            )

class TestKernelGolden:
    """Engine runs must equal the in-memory runs of the same step loop."""

    def test_bfs(self, urand_small):
        run = workloads.get("bfs").run(make_engine(urand_small), source=0)
        np.testing.assert_array_equal(run.values, bfs(urand_small, 0).depths)

    def test_cc(self, urand_small):
        run = workloads.get("cc").run(make_engine(urand_small))
        np.testing.assert_array_equal(
            run.values, connected_components(urand_small).labels
        )

    def test_pagerank(self, urand_small):
        run = workloads.get("pagerank").run(make_engine(urand_small))
        np.testing.assert_allclose(
            run.values, pagerank(urand_small).ranks, rtol=1e-10
        )

    def test_kcore(self, urand_small):
        run = workloads.get("kcore").run(make_engine(urand_small), k=2)
        np.testing.assert_array_equal(
            run.values, kcore(urand_small, k=2).in_core
        )

    def test_triangle_count_vs_reference_and_naive_oracle(self, urand_small):
        run = workloads.get("triangle_count").run(make_engine(urand_small))
        batched = triangle_count(urand_small)
        np.testing.assert_array_equal(run.values, batched.per_vertex)
        # Cross-check the batched implementation against the naive
        # O(V * d^2) oracle on a small graph.
        assert batched.total == triangle_count_reference(urand_small)

    def test_label_propagation(self, urand_small):
        run = workloads.get("label_propagation").run(make_engine(urand_small))
        np.testing.assert_array_equal(
            run.values, label_propagation(urand_small).labels
        )

    def test_random_walk(self, urand_small):
        run = workloads.get("random_walk").run(
            make_engine(urand_small), source=0, num_walkers=16,
            walk_length=4, seed=5,
        )
        expected = random_walks(
            urand_small, 0, num_walkers=16, walk_length=4, seed=5
        )
        np.testing.assert_array_equal(run.values, expected.visits)

    def test_sssp_prepare_adds_weights(self, urand_small):
        wl = workloads.get("sssp")
        assert wl.requires_weights
        g = wl.prepare(urand_small)
        assert g.is_weighted
        run = wl.run(make_engine(g), source=0)
        assert np.isfinite(run.values[0])


#: One access method per discipline; the engine reads through it and the
#: model prices the trace with it.
DISCIPLINES = {
    "xlfdd": lambda: XLFDDMethod(alignment_bytes=16, max_transfer_bytes=2048),
    "bam": lambda: BaMMethod(cacheline_bytes=4096),
    "emogi": ZeroCopyMethod,
}


class TestEngineBytesEqualModelBytes:
    """Every workload's measured engine traffic equals the model's."""

    @pytest.mark.parametrize("discipline", sorted(DISCIPLINES))
    @pytest.mark.parametrize("name", workloads.available())
    def test_engine_matches_physical_trace(self, urand_small, name, discipline):
        method = DISCIPLINES[discipline]
        wl = workloads.get(name)
        graph = wl.prepare(urand_small)
        engine = ExternalGraphEngine(
            graph, lambda d: ExternalMemoryBackend(d, method())
        )
        run = wl.run(engine)
        trace = wl.trace(graph)
        assert run.steps == trace.num_steps
        # The trace prices 8 B vertex IDs; weighted engine records are
        # 16 B (ID + weight).
        record_bytes = 16 if graph.is_weighted else 8
        assert run.stats.useful_bytes == trace.useful_bytes * record_bytes // 8
        if not graph.is_weighted:
            pt = method().physical_trace(trace)
            assert (run.stats.fetched_bytes, run.stats.requests) == (
                pt.fetched_bytes,
                pt.total_requests,
            )


#: Access methods beyond the registry defaults: non-default caches,
#: geometries and transfer ceilings, each on an otherwise stock system.
EXTRA_METHODS = {
    "bam-lru16": ("bam", lambda: BaMMethod(cache=LRUCache(16))),
    "bam-512-ideal": ("bam", lambda: BaMMethod(512, cache=IdealCache())),
    "uvm-pool16": ("uvm", lambda: UVMMethod(pool_bytes=16 * 4096)),
    "xlfdd-64-128": ("xlfdd", lambda: XLFDDMethod(64, 128)),
    "xlfdd-4096": ("xlfdd", lambda: XLFDDMethod(4096)),
    "emogi-64-256": (
        "emogi",
        lambda: ZeroCopyMethod(sector_bytes=64, line_bytes=256),
    ),
}
SYSTEM_CASES = systems.available() + sorted(EXTRA_METHODS)


def case_system(name):
    """A registered system, or a stock one running an extra method."""
    if name not in EXTRA_METHODS:
        return systems.get(name)
    base, method = EXTRA_METHODS[name]
    return replace(systems.get(base), method=method())


class TestEverySystemEngineEqualsModel:
    """``build_engine`` reads through each system's own access method."""

    @pytest.mark.parametrize("name", SYSTEM_CASES)
    def test_engine_matches_physical_trace(self, urand_small, name):
        system = case_system(name)
        wl = workloads.get("bfs")
        run = wl.run(workloads.build_engine(urand_small, system))
        pt = system.method.physical_trace(wl.trace(urand_small))
        assert (run.stats.fetched_bytes, run.stats.requests) == (
            pt.fetched_bytes,
            pt.total_requests,
        )

    @pytest.mark.parametrize("name", SYSTEM_CASES)
    def test_engine_and_model_share_no_cache_state(self, urand_small, name):
        system = case_system(name)
        wl = workloads.get("bfs")
        engine = workloads.build_engine(urand_small, system)
        first = wl.run(engine, source=0).stats
        counts = (first.fetched_bytes, first.requests)
        # Price a different traversal between two engine runs.
        system.method.physical_trace(wl.trace(urand_small, source=5))
        cache = system.method.cache
        before = None if cache is None else replace(cache.stats)
        second = wl.run(engine, source=0).stats
        assert (second.fetched_bytes, second.requests) == counts
        # Every cache access counts a hit or a miss, and the engine's
        # traversal differs from the priced one: unchanged stats mean the
        # engine never touched the system's cache.
        if cache is not None:
            assert cache.stats == before

    def test_backend_prices_with_the_method_geometry(self):
        starts, lengths = np.array([0]), np.array([300])
        for method, sizes in (
            (ZeroCopyMethod(), [128, 128, 64]),
            (ZeroCopyMethod(sector_bytes=64, line_bytes=256), [256, 64]),
        ):
            backend = ExternalMemoryBackend(b"\x00" * 512, method)
            backend.read(starts, lengths)
            step = method.step_input(starts, lengths)
            assert (step.requests, step.link_bytes) == (len(sizes), sum(sizes))
            assert (backend.stats.requests, backend.stats.fetched_bytes) == (
                len(sizes),
                sum(sizes),
            )

    def test_any_access_method_runs_on_the_engine(self, urand_small):
        class Exact(AccessMethod):
            """Fetches exactly the requested bytes, one request per read."""

            name = "exact"

            def step_input(self, starts, lengths):
                n, size = int(np.count_nonzero(lengths)), int(lengths.sum())
                return StepInput(n, size, n, size)

        system = replace(systems.get("emogi"), method=Exact())
        wl = workloads.get("bfs")
        run = wl.run(workloads.build_engine(urand_small, system))
        pt = system.method.physical_trace(wl.trace(urand_small))
        assert run.stats.fetched_bytes == run.stats.useful_bytes == pt.fetched_bytes
        assert run.stats.requests == pt.total_requests


class TestMemoryModes:
    def test_unknown_mode_rejected(self, urand_small):
        with pytest.raises(ConfigError, match="unknown memory mode"):
            make_engine(urand_small, memory_mode="hybrid")

    def test_values_identical_across_modes(self, urand_small):
        semi = workloads.get("bfs").run(
            make_engine(urand_small, SEMI_EXTERNAL), source=0
        )
        fully = workloads.get("bfs").run(
            make_engine(urand_small, FULLY_EXTERNAL), source=0
        )
        np.testing.assert_array_equal(semi.values, fully.values)

    def test_fully_external_fetches_strictly_more(self, urand_small):
        # The semi-external mode keeps vertex state in simulated DRAM,
        # so only edge reads hit the backend; fully-external adds the
        # per-step vertex-state traffic.  This gap is the PR's pinned
        # headline.
        semi = workloads.get("bfs").run(
            make_engine(urand_small, SEMI_EXTERNAL), source=0
        )
        fully = workloads.get("bfs").run(
            make_engine(urand_small, FULLY_EXTERNAL), source=0
        )
        assert fully.stats.fetched_bytes > semi.stats.fetched_bytes

    def test_build_engine_dispatches_mode(self, urand_small):
        from repro import systems

        engine = workloads.build_engine(
            urand_small, systems.get("emogi"), memory_mode=FULLY_EXTERNAL
        )
        assert engine.memory_mode == FULLY_EXTERNAL


class TestStreaming:
    """Source-free runs start at the registry's one default-source policy."""

    def test_default_source_is_the_registry_policy(self):
        from repro.core import experiment
        from repro.graph.generators import uniform_random_graph
        from repro.workloads.registry import default_source

        assert experiment.default_source is default_source
        base = uniform_random_graph(9, 10.0, seed=11)
        expected = bfs(base, default_source(base)).depths
        run = workloads.get("bfs").run(make_engine(base))
        np.testing.assert_array_equal(run.values, expected)


class TestBenchWorkloads:
    def test_baseline_missing_rows_all_new(self):
        from repro.bench import baseline_missing_rows

        cand = {
            "benchmarks": [
                {"name": "x", "normalized_best": 1.0, "best_s": 0.1},
                {"name": "y", "normalized_best": 2.0, "best_s": 0.2},
            ]
        }
        rows = baseline_missing_rows(cand)
        assert [r["status"] for r in rows] == ["new", "new"]
        assert all(r["base"] is None and r["ratio"] is None for r in rows)

    def test_workloads_family_registered(self):
        from repro.bench import KNOWN_FAMILIES

        assert "workloads" in KNOWN_FAMILIES


class TestCli:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_run_workload_semi_external(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "run", "--dataset", "urand", "--scale", "8",
            "--workload", "label_propagation",
            "--memory-mode", "semi-external",
        )
        assert code == 0
        assert "label_propagation" in out

    def test_run_fully_external_prints_comparison(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "run", "--dataset", "urand", "--scale", "8",
            "--workload", "bfs", "--memory-mode", "fully-external",
        )
        assert code == 0
        assert "memory mode fully-external" in out
        assert "semi-external" in out

    def test_profile_workload(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "profile", "--dataset", "urand", "--scale", "8",
            "--workload", "triangle_count",
        )
        assert code == 0
        assert "engine.triangle_count" in out

    def test_bench_check_missing_baseline(self, capsys, tmp_path):
        from repro.bench import canonical_json, run_family

        payload = run_family("workloads", quick=True, warmup=0, repeats=1)
        cand = tmp_path / "BENCH_workloads.json"
        cand.write_text(canonical_json(payload), encoding="utf-8")
        missing = tmp_path / "no_such_baseline.json"

        code, out, _ = self.run_cli(
            capsys, "bench", "--compare", str(missing), str(cand)
        )
        assert code == 0
        assert "new" in out

        code, out, _ = self.run_cli(
            capsys, "bench", "--check", str(missing), str(cand)
        )
        assert code == 1
        assert "allow-new" in out

        code, out, _ = self.run_cli(
            capsys, "bench", "--check", str(missing), str(cand), "--allow-new"
        )
        assert code == 0
