"""Telemetry layer: tracer semantics, metrics, exporters, instrumentation."""

import json

import numpy as np
import pytest

from repro import workloads
from repro.engine.backend import ExternalMemoryBackend, MemoryStats
from repro.engine.engine import ExternalGraphEngine
from repro.errors import TelemetryError
from repro.gpu import XLFDDMethod
from repro.sim.des import DESConfig, simulate_step
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS_US,
    FrozenClock,
    MetricRegistry,
    NULL_TRACER,
    NullTracer,
    SimClock,
    Tracer,
    WallClock,
    get_tracer,
    render_flamegraph,
    render_jsonl,
    render_profile,
    set_tracer,
    span_profiles,
    to_chrome_trace,
    use_tracer,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.units import MB_PER_S, USEC


def frozen_tracer():
    clock = FrozenClock()
    return Tracer(clock=clock), clock


class TestTracer:
    def test_span_records_duration_and_attrs(self):
        tracer, clock = frozen_tracer()
        with tracer.span("work", label="x") as span:
            clock.advance(0.25)
            span.set(extra=7)
        [record] = tracer.spans("work")
        assert record.start == 0.0
        assert record.duration == 0.25
        assert record.end == 0.25
        assert record.attrs == {"label": "x", "extra": 7}

    def test_nesting_stack_and_self_time(self):
        tracer, clock = frozen_tracer()
        with tracer.span("outer"):
            clock.advance(0.1)
            with tracer.span("inner"):
                clock.advance(0.3)
            clock.advance(0.1)
        inner = tracer.spans("inner")[0]
        outer = tracer.spans("outer")[0]
        assert inner.stack == ("outer", "inner")
        assert outer.stack == ("outer",)
        assert outer.duration == pytest.approx(0.5)
        assert outer.self_duration == pytest.approx(0.2)
        assert inner.self_duration == pytest.approx(0.3)

    def test_events_and_counters_carry_enclosing_stack(self):
        tracer, clock = frozen_tracer()
        with tracer.span("step"):
            clock.advance(0.01)
            tracer.event("retry", attempt=2)
            tracer.counter_sample("queue", 5)
        [event] = tracer.events("retry")
        [counter] = tracer.counters("queue")
        assert event.stack == ("step",)
        assert event.attrs == {"attempt": 2}
        assert counter.value == 5.0
        assert counter.start == pytest.approx(0.01)

    def test_span_records_on_exception(self):
        tracer, clock = frozen_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        [record] = tracer.spans("doomed")
        assert record.duration == 1.0

    def test_wall_clock_monotone_span_times(self):
        tracer = Tracer()  # fresh WallClock
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        b, a = tracer.spans("b")[0], tracer.spans("a")[0]
        assert 0.0 <= a.start <= b.start
        assert b.duration >= 0.0
        assert a.duration >= b.duration

    def test_with_clock_view_shares_records_with_sim_timeline(self):
        tracer, _ = frozen_tracer()

        class FakeSim:
            now = 2.5

        view = tracer.with_clock(SimClock(FakeSim()))
        view.event("des.tick")
        [record] = tracer.events("des.tick")
        assert record.start == 2.5
        assert record.timeline == "sim"
        assert tracer.records is view.records

    def test_sim_clock_rejects_sources_without_now(self):
        with pytest.raises(TelemetryError):
            SimClock(object())

    def test_frozen_clock_rejects_backwards(self):
        clock = FrozenClock()
        with pytest.raises(TelemetryError):
            clock.advance(-1.0)

    def test_wall_clock_starts_near_zero(self):
        assert 0.0 <= WallClock().now() < 1.0


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("a", k=1) as span:
            span.set(more=2)
            tracer.event("e")
            tracer.counter_sample("c", 1.0)
        assert tracer.records == []
        assert not tracer.enabled

    def test_with_clock_returns_self(self):
        tracer = NullTracer()
        assert tracer.with_clock(FrozenClock()) is tracer

    def test_default_tracer_is_null(self):
        assert isinstance(get_tracer(), NullTracer)

    def test_use_tracer_installs_and_restores(self):
        tracer, _ = frozen_tracer()
        before = get_tracer()
        with use_tracer(tracer) as active:
            assert get_tracer() is tracer is active
        assert get_tracer() is before

    def test_set_tracer_returns_previous(self):
        tracer, _ = frozen_tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)

    def test_untraced_engine_run_emits_zero_records(self, urand_small):
        """The overhead guard: tracing off must leave no trace at all."""
        baseline = len(NULL_TRACER.records)
        engine = ExternalGraphEngine(
            urand_small, lambda data: ExternalMemoryBackend(data, XLFDDMethod(16))
        )
        workloads.get("bfs").run(engine, source=0)
        assert len(NULL_TRACER.records) == baseline == 0


class TestMetrics:
    def test_counter_inc_and_negative_rejected(self):
        registry = MetricRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_same_name_returns_same_instrument(self):
        registry = MetricRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.gauge("g") is registry.gauge("g")

    def test_type_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.gauge("x")
        with pytest.raises(TelemetryError):
            registry.histogram("x")

    def test_histogram_buckets_must_increase(self):
        registry = MetricRegistry()
        with pytest.raises(TelemetryError):
            registry.histogram("h", buckets=[1.0, 1.0])
        with pytest.raises(TelemetryError):
            registry.histogram("empty", buckets=[])

    def test_histogram_observe_cumulative_quantile(self):
        registry = MetricRegistry()
        hist = registry.histogram("lat", buckets=[1.0, 10.0, 100.0])
        for value in (0.5, 5.0, 5.0, 50.0, 1e6):
            hist.observe(value)
        assert hist.total == 5
        assert hist.counts == [1, 2, 1, 1]  # last slot: +inf overflow
        assert hist.cumulative() == [1, 3, 4, 5]
        assert hist.mean == pytest.approx((0.5 + 5.0 + 5.0 + 50.0 + 1e6) / 5)
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(1.0) == 100.0  # overflow reports last bound
        with pytest.raises(TelemetryError):
            hist.quantile(1.5)

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricRegistry()
        registry.histogram("h", buckets=[1.0, 2.0])
        with pytest.raises(TelemetryError):
            registry.histogram("h", buckets=[1.0, 3.0])
        # No buckets argument re-fetches whatever exists.
        assert registry.histogram("h").buckets == (1.0, 2.0)

    def test_default_latency_buckets_cover_paper_regime(self):
        registry = MetricRegistry()
        hist = registry.histogram("lat_us")
        assert hist.buckets == DEFAULT_LATENCY_BUCKETS_US
        assert any(b <= 10.0 for b in hist.buckets)  # microsecond regime

    def test_snapshot_and_names(self):
        registry = MetricRegistry()
        registry.counter("a").inc(2)
        registry.gauge("b").set(7.0)
        registry.histogram("h", buckets=[1.0]).observe(0.5)
        assert registry.names() == ["a", "b", "h"]
        assert "a" in registry and "zzz" not in registry
        snap = registry.snapshot()
        assert snap["a"] == 2.0
        assert snap["b"] == 7.0
        assert snap["h"]["total"] == 1


class TestMemoryStatsRegistry:
    def test_counters_backed_by_registry(self):
        stats = MemoryStats()
        stats.requests += 3
        stats.fetched_bytes += 128
        stats.retry_wait_time += 0.5
        assert stats.registry.counter("memory.requests").value == 3.0
        assert stats.registry.counter("memory.fetched_bytes").value == 128.0
        assert stats.requests == 3 and isinstance(stats.requests, int)
        assert stats.retry_wait_time == pytest.approx(0.5)

    def test_constructor_kwargs_still_work(self):
        stats = MemoryStats(requests=5, fetched_bytes=100, useful_bytes=80)
        assert stats.requests == 5
        assert stats.read_amplification == pytest.approx(1.25)
        assert stats.avg_transfer_bytes == pytest.approx(20.0)

    def test_record_latency_feeds_histogram(self):
        stats = MemoryStats()
        stats.record_latency([5 * USEC, 50 * USEC])
        hist = stats.registry.histogram("memory.latency_us")
        assert hist.total == 2
        assert stats.latency_p50 > 0.0

    def test_shared_registry_injection(self):
        registry = MetricRegistry()
        stats = MemoryStats(registry=registry)
        stats.requests += 1
        assert registry.counter("memory.requests").value == 1.0

    def test_backend_accounting_visible_in_registry(self, tiny_graph):
        engine = ExternalGraphEngine(
            tiny_graph, lambda data: ExternalMemoryBackend(data, XLFDDMethod(16))
        )
        run = workloads.get("bfs").run(engine, source=0)
        registry = run.stats.registry
        assert registry.counter("memory.requests").value == run.stats.requests
        assert (
            registry.counter("memory.fetched_bytes").value
            == run.stats.fetched_bytes
        )


def _golden_tracer():
    """A deterministic record set used by both exporter golden tests."""
    clock = FrozenClock()
    tracer = Tracer(clock=clock)
    with tracer.span("run", dataset="tiny") as span:
        clock.advance(0.001)
        with tracer.span("step"):
            clock.advance(0.002)
        tracer.event("retry", attempt=1)
        tracer.counter_sample("queue", 3)
        span.set(steps=1)
        clock.advance(0.001)

    class FakeSim:
        now = 0.0005

    tracer.with_clock(SimClock(FakeSim())).counter_sample("des.depth", 2)
    return tracer


class TestExporters:
    def test_jsonl_golden(self):
        lines = render_jsonl(_golden_tracer().records).splitlines()
        assert [json.loads(line) for line in lines] == [
            {
                "kind": "span",
                "name": "step",
                "ts": 0.001,
                "timeline": "wall",
                "dur": 0.002,
                "self_dur": 0.002,
                "stack": ["run", "step"],
            },
            {
                "kind": "event",
                "name": "retry",
                "ts": 0.003,
                "timeline": "wall",
                "stack": ["run"],
                "attrs": {"attempt": 1},
            },
            {
                "kind": "counter",
                "name": "queue",
                "ts": 0.003,
                "timeline": "wall",
                "value": 3.0,
                "stack": ["run"],
            },
            {
                "kind": "span",
                "name": "run",
                "ts": 0.0,
                "timeline": "wall",
                "dur": 0.004,
                "self_dur": 0.002,
                "stack": ["run"],
                "attrs": {"dataset": "tiny", "steps": 1},
            },
            {
                "kind": "counter",
                "name": "des.depth",
                "ts": 0.0005,
                "timeline": "sim",
                "value": 2.0,
            },
        ]

    def test_write_jsonl_roundtrip(self, tmp_path):
        path = write_jsonl(_golden_tracer().records, tmp_path / "t.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["name"] for line in lines)

    def test_chrome_trace_golden(self):
        trace = to_chrome_trace(_golden_tracer().records)
        validate_chrome_trace(trace)
        events = trace["traceEvents"]
        # Two metadata rows name the wall and sim lanes.
        meta = [e for e in events if e["ph"] == "M"]
        assert [m["args"]["name"] for m in meta] == ["wall clock", "sim clock"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {s["name"] for s in spans} == {"run", "step"}
        step = next(s for s in spans if s["name"] == "step")
        assert step["ts"] == pytest.approx(1000.0)  # microseconds
        assert step["dur"] == pytest.approx(2000.0)
        sim_counter = next(
            e for e in events if e["ph"] == "C" and e["name"] == "des.depth"
        )
        wall_tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert sim_counter["tid"] not in wall_tids  # separate sim lane

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = write_chrome_trace(
            _golden_tracer().records, tmp_path / "t.trace.json"
        )
        validate_chrome_trace(json.loads(path.read_text()))

    @pytest.mark.parametrize(
        "broken",
        [
            [],
            {"traceEvents": {}},
            {"traceEvents": [{"ph": "Z", "name": "x", "pid": 0, "tid": 0}]},
            {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "tid": 0, "ts": -1.0, "dur": 0.0}]},
            {"traceEvents": [{"ph": "X", "name": 3, "pid": 0, "tid": 0, "ts": 0.0, "dur": 0.0}]},
            {"traceEvents": [{"ph": "i", "name": "x", "pid": 0, "tid": 0, "ts": 0.0, "s": "q"}]},
        ],
    )
    def test_validate_rejects_malformed(self, broken):
        with pytest.raises(TelemetryError):
            validate_chrome_trace(broken)

    def test_span_profiles_aggregate(self):
        profiles = span_profiles(_golden_tracer().records)
        assert [p.name for p in profiles] == ["run", "step"]
        run = profiles[0]
        assert run.count == 1
        assert run.total == pytest.approx(0.004)
        assert run.self_total == pytest.approx(0.002)
        assert run.mean == pytest.approx(0.004)

    def test_render_profile_table(self):
        table = render_profile(_golden_tracer().records, top=1)
        assert "span" in table and "inclusive" in table
        assert "run" in table
        assert "and 1 more span names" in table
        with pytest.raises(TelemetryError):
            render_profile([], top=0)
        assert render_profile([]) == "no spans recorded"

    def test_render_flamegraph_collapsed_stacks(self):
        lines = render_flamegraph(_golden_tracer().records).splitlines()
        # Stacks are rooted at their timeline; 2 ms self time in usec.
        assert "wall;run 2000" in lines
        assert "wall;run;step 2000" in lines

    def test_profiles_never_mix_timelines(self):
        """Regression: span_profiles/render_flamegraph once keyed by name
        alone, summing wall and sim durations of same-named spans into
        one meaningless total (FLOW001's bug class at aggregation time).
        """
        clock = FrozenClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work"):
            clock.advance(0.001)

        class FakeSim:
            now = 0.0

        sim = FakeSim()
        sim_view = tracer.with_clock(SimClock(sim))
        with sim_view.span("work"):
            sim.now += 2.0  # two simulated seconds, one wall millisecond
        profiles = {(p.timeline, p.name): p for p in span_profiles(tracer.records)}
        assert profiles[("wall", "work")].total == pytest.approx(0.001)
        assert profiles[("sim", "work")].total == pytest.approx(2.0)
        flame = dict(
            line.rsplit(" ", 1) for line in
            render_flamegraph(tracer.records).splitlines()
        )
        assert int(flame["wall;work"]) == 1000
        assert int(flame["sim;work"]) == 2_000_000


class TestInstrumentation:
    def test_traced_bfs_spans_account_all_bytes(self, urand_small):
        """Tier-1 cross-check: span attrs sum to the stats' byte count."""
        tracer = Tracer()
        engine = ExternalGraphEngine(
            urand_small, lambda data: ExternalMemoryBackend(data, XLFDDMethod(16))
        )
        with use_tracer(tracer):
            run = workloads.get("bfs").run(engine, source=0)
        steps = tracer.spans("engine.step")
        assert len(steps) == run.steps
        assert sum(s.attrs["bytes_read"] for s in steps) == run.stats.fetched_bytes
        assert all(s.stack[0] == "engine.bfs" for s in steps)
        [root] = tracer.spans("engine.bfs")
        assert root.attrs["vertices"] == urand_small.num_vertices
        # Frontier sizes start from the single source.
        assert steps[0].attrs["frontier_size"] == 1

    def test_traced_sssp_and_cc_emit_named_roots(self, weighted_small):
        tracer = Tracer()
        engine = ExternalGraphEngine(
            weighted_small, lambda data: ExternalMemoryBackend(data, XLFDDMethod(16))
        )
        with use_tracer(tracer):
            workloads.get("sssp").run(engine, source=0)
            workloads.get("cc").run(engine)
        assert tracer.spans("engine.sssp")
        assert tracer.spans("engine.cc")

    def test_des_emits_queue_depth_samples_on_sim_time(self):
        config = DESConfig(
            link_bandwidth=24_000 * MB_PER_S,
            latency=5 * USEC,
            device_iops=1e6,
            device_internal_bandwidth=6_000 * MB_PER_S,
            num_devices=2,
            device_outstanding=4,
        )
        sizes = np.full(64, 512, dtype=np.int64)
        tracer = Tracer()
        with use_tracer(tracer):
            result = simulate_step(sizes, config)
        assert result.requests == 64
        [span] = tracer.spans("des.step")
        assert span.attrs == {"requests": 64, "devices": 2}
        samples = tracer.counters("des.dev0.queue_depth")
        assert samples  # acquire + finish samples
        assert all(s.timeline == "sim" for s in samples)
        times = [s.start for s in samples]
        assert times == sorted(times)  # sim time is monotone
        depths = [s.value for s in samples]
        # Depth counts in-service plus waiting requests, so it can exceed
        # the tag limit but never the device's share of the batch.
        assert 0 <= min(depths) and max(depths) <= 64 // config.num_devices
        assert max(depths) > config.device_outstanding  # queueing visible

    def test_faulty_des_emits_fault_events_on_sim_time(self):
        from repro.faults import FaultPlan, RetryPolicy

        config = DESConfig(
            link_bandwidth=24_000 * MB_PER_S,
            latency=5 * USEC,
            device_iops=1e6,
            device_internal_bandwidth=6_000 * MB_PER_S,
            num_devices=2,
        )
        plan = FaultPlan(
            seed=13, read_error_rate=0.05, spike_rate=0.2, spike_scale=20 * USEC
        )
        policy = RetryPolicy(max_attempts=10, timeout=15 * USEC)
        tracer = Tracer()
        with use_tracer(tracer):
            result = simulate_step(
                np.full(64, 512, dtype=np.int64), config, plan=plan, policy=policy
            )
        [span] = tracer.spans("des.step")
        assert span.attrs == {"requests": 64, "devices": 2, "faulty": True}
        retries = tracer.events("fault.retry")
        timeouts = tracer.events("fault.timeout")
        assert len(retries) == result.retries > 0
        assert len(timeouts) == result.timeouts > 0
        assert all(e.timeline == "sim" for e in retries + timeouts)

    def test_des_untraced_emits_nothing(self):
        config = DESConfig(
            link_bandwidth=24_000 * MB_PER_S,
            latency=5 * USEC,
            device_iops=1e6,
            device_internal_bandwidth=6_000 * MB_PER_S,
        )
        simulate_step(np.full(8, 512, dtype=np.int64), config)
        assert len(NULL_TRACER.records) == 0

    def test_faulty_backend_emits_retry_events(self, urand_small):
        from repro.faults import FaultPlan, RetryPolicy, faulty_factory

        plan = FaultPlan(seed=3, read_error_rate=0.2)
        tracer = Tracer()
        engine = ExternalGraphEngine(
            urand_small,
            faulty_factory(
                lambda data: ExternalMemoryBackend(data, XLFDDMethod(16)),
                plan,
                RetryPolicy(max_attempts=8),
                num_devices=4,
            ),
        )
        with use_tracer(tracer):
            run = workloads.get("bfs").run(engine, source=0)
        retries = tracer.events("fault.retry")
        assert retries
        assert sum(e.attrs["requests"] for e in retries) == run.stats.retries
        # Events fire inside the engine's step span.
        assert all("engine.step" in e.stack for e in retries)

    def test_experiment_and_sweep_spans(self, urand_small, bfs_trace):
        from repro.core.experiment import run_experiment
        from repro.core.sweep import alignment_grid, cxl_latency_grid, sweep_trace
        from repro.interconnect.pcie import PCIeLink
        from repro import systems

        tracer = Tracer()
        with use_tracer(tracer):
            run_experiment(urand_small, "bfs", systems.get("emogi"), trace=bfs_trace)
            sweep_trace(bfs_trace, alignment_grid((16, 512)))
            sweep_trace(
                bfs_trace, cxl_latency_grid((0.0, 1e-6)), PCIeLink.from_name("gen3")
            )
        [experiment] = tracer.spans("experiment.run")
        assert experiment.attrs["algorithm"] == "bfs"
        assert len(tracer.spans("sweep.alignment.point")) == 2
        assert len(tracer.spans("sweep.cxl_latency.point")) == 2
