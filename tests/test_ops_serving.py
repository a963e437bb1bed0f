"""The serving loop: traffic, storms, controller, and SLO attainment.

Tier-1 pins the PR's acceptance claims: the seeded scenario is
byte-identically reproducible, and under the full fault storm the
self-healing controller achieves *strictly* higher p99 SLO attainment
and *strictly* lower shed fraction than the reactive-only baseline —
with every remediation visible in telemetry.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, DeviceError, PoolExhaustedError
from repro.ops import (
    BurstEpisode,
    ControllerPolicy,
    FaultStorm,
    ServingConfig,
    SloReport,
    StormEvent,
    TokenBucket,
    TrafficModel,
    available_storms,
    compare_reports,
    named_storm,
    run_serving_scenario,
)
from repro.ops.scenario import jain_fairness
from repro.telemetry import Tracer, use_tracer
from repro.units import MSEC, USEC


@pytest.fixture(scope="module")
def storm_reports():
    """Controller on vs off under the full named storm (the demo pair)."""
    storm = named_storm("storm")
    on = run_serving_scenario("xlfdd", storm=storm, controller=True)
    off = run_serving_scenario("xlfdd", storm=storm, controller=False)
    return on, off


class TestTrafficModel:
    def test_arrivals_are_seed_deterministic(self):
        model = TrafficModel(seed=3)
        a = model.arrivals(1.0)
        b = model.arrivals(1.0)
        assert a == b
        assert a != TrafficModel(seed=4).arrivals(1.0)

    def test_arrivals_are_ordered_open_loop(self):
        queries = TrafficModel(seed=0, base_rate=500.0).arrivals(2.0)
        times = [q.arrival for q in queries]
        assert times == sorted(times)
        assert all(0.0 <= t < 2.0 for t in times)
        assert [q.id for q in queries] == list(range(len(queries)))
        # Rate 500 over 2 s: the count lands near 1000.
        assert 700 < len(queries) < 1300

    def test_mix_controls_query_kinds(self):
        queries = TrafficModel(seed=0, mix={"bfs": 1.0}).arrivals(0.5)
        assert {q.kind for q in queries} == {"bfs"}

    def test_bursts_raise_the_rate(self):
        burst = BurstEpisode(start=0.5, duration=0.5, multiplier=3.0)
        model = TrafficModel(seed=0, diurnal_amplitude=0.0, bursts=(burst,))
        assert model.rate_at(0.75) == pytest.approx(3 * model.base_rate)
        assert model.rate_at(0.25) == pytest.approx(model.base_rate)
        assert model.peak_rate == pytest.approx(3 * model.base_rate)
        in_burst = sum(1 for q in model.arrivals(1.0) if burst.active(q.arrival))
        out_burst = len(model.arrivals(1.0)) - in_burst
        assert in_burst > out_burst  # same window length, 3x the rate

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrafficModel(base_rate=0.0)
        with pytest.raises(ConfigError):
            TrafficModel(diurnal_amplitude=1.5)
        with pytest.raises(ConfigError):
            TrafficModel(mix={})
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigError):
                TrafficModel(mix={"bfs": bad})
            with pytest.raises(ConfigError):
                TrafficModel(mix={"bfs": 1.0, "cc": bad})
        with pytest.raises(ConfigError):
            BurstEpisode(start=0.0, duration=0.0, multiplier=2.0)


class TestFaultStorm:
    def test_presets_cover_the_cli_choices(self):
        assert available_storms() == ["dropout", "none", "storm", "stuck"]
        for name in available_storms():
            storm = named_storm(name, seed=7)
            assert storm.seed == 7
            assert storm.describe().startswith("fault storm:")
        assert named_storm("none").is_quiet
        assert not named_storm("storm").is_quiet
        with pytest.raises(ConfigError):
            named_storm("hurricane")

    def test_event_validation(self):
        with pytest.raises(ConfigError):
            StormEvent(at=0.0, kind="meteor")
        with pytest.raises(ConfigError):
            StormEvent(at=-1.0, kind="drop")
        with pytest.raises(ConfigError):
            StormEvent(at=0.0, kind="stuck", factor=0.5)
        with pytest.raises(ConfigError):
            StormEvent(at=0.0, kind="error_burst", error_rate=1.0)
        event = StormEvent(at=1.0, kind="stuck", duration=2.0)
        assert event.end == pytest.approx(3.0)
        assert StormEvent(at=1.0, kind="drop").end is None

    def test_storm_plan_is_seed_deterministic(self):
        storm = FaultStorm(seed=3, spike_rate=0.05)
        assert storm.plan.spike_latency(11, 1) == storm.plan.spike_latency(11, 1)


class TestTokenBucket:
    def test_deterministic_refill_on_the_des_clock(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst exhausted
        assert bucket.try_take(0.1)  # one token refilled
        assert not bucket.try_take(0.1)
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0, burst=1.0)

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            ControllerPolicy(tick=0.0)
        with pytest.raises(ConfigError):
            ControllerPolicy(shed_low=0.9, shed_high=0.5)
        with pytest.raises(ConfigError):
            ControllerPolicy(probe_backoff=0.5)


class TestSloReport:
    def test_json_roundtrip_is_canonical(self, storm_reports):
        on, _ = storm_reports
        text = on.to_json()
        assert text.endswith("\n")
        assert json.loads(text)["controller"] is True
        rebuilt = SloReport.from_json(text)
        assert rebuilt == on
        assert rebuilt.to_json() == text

    def test_derived_metrics(self):
        report = SloReport(
            duration=1.0, slo_p99=4 * MSEC, controller=False, traffic_seed=0,
            storm="s", arrived=100, completed=80, attained=70,
            deadline_misses=10, shed_admission=12, shed_overflow=8,
            latency_p50_us=1.0, latency_p99_us=2.0, latency_p999_us=3.0,
            latency_mean_us=1.5,
        )
        assert report.shed == 20
        assert report.shed_fraction == pytest.approx(0.2)
        assert report.attainment == pytest.approx(0.7)
        assert "attainment 70.0%" in report.describe()

    def test_jain_index(self):
        assert jain_fairness([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0]) == pytest.approx(0.5)

    def test_compare_rejects_mismatched_scenarios(self, storm_reports):
        on, off = storm_reports
        other = run_serving_scenario(
            "xlfdd",
            config=ServingConfig(duration=1.0),
            storm=named_storm("none"),
            controller=False,
        )
        with pytest.raises(ConfigError):
            compare_reports(on, other)


class TestServingScenario:
    def test_reports_are_byte_identical_across_runs(self, storm_reports):
        on, _ = storm_reports
        again = run_serving_scenario(
            "xlfdd", storm=named_storm("storm"), controller=True
        )
        assert again.to_json() == on.to_json()

    def test_controller_beats_baseline_under_the_storm(self, storm_reports):
        """THE acceptance claim: strictly better attainment AND shed."""
        on, off = storm_reports
        assert on.arrived == off.arrived  # same open arrivals either way
        assert on.attainment > off.attainment
        assert on.shed_fraction < off.shed_fraction
        deltas = compare_reports(on, off)
        assert deltas["attainment_gain"] > 0
        assert deltas["shed_delta"] < 0
        # The loop actually closed: detection, probation, scaling all fired.
        assert on.controller_actions.get("suspend", 0) >= 1
        assert on.controller_actions.get("scale_up", 0) >= 1
        assert any("suspended [stuck-slow]" in e for e in on.health_events)
        # The reactive dropout eviction fires in BOTH modes (fair baseline).
        assert any("evicted [dropout]" in e for e in off.health_events)
        assert any("evicted [dropout]" in e for e in on.health_events)

    def test_controller_recovers_faster(self, storm_reports):
        on, off = storm_reports
        assert on.incidents and off.incidents
        assert on.mean_recovery_time < off.mean_recovery_time

    def test_readmission_closes_the_circuit(self):
        """A transient stuck member comes back via half-open probes."""
        report = run_serving_scenario(
            "xlfdd",
            config=ServingConfig(duration=4.0),
            storm=named_storm("stuck"),
            controller=True,
        )
        assert report.controller_actions.get("readmit", 0) >= 1
        assert report.controller_actions.get("scale_down", 0) >= 1
        kinds = [e.split()[2] for e in report.health_events]
        assert "suspended" in kinds and "readmitted" in kinds

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_controller_never_hurts_a_fault_free_run(self, seed):
        """Property: with no storm, closing the loop costs nothing."""
        config = ServingConfig(duration=1.0)
        traffic = TrafficModel(seed=seed)
        storm = named_storm("none", seed=seed)
        on = run_serving_scenario(
            "xlfdd", config=config, traffic=traffic, storm=storm, controller=True
        )
        off = run_serving_scenario(
            "xlfdd", config=config, traffic=traffic, storm=storm, controller=False
        )
        assert on.attainment >= off.attainment
        assert on.controller_actions == {}  # nothing to remediate

    def test_memory_latency_histogram_is_in_microseconds(self, monkeypatch):
        """A healthy member's access observation is ``base_latency / USEC``."""
        from repro import systems
        from repro.ops.scenario import ServingScenario
        from repro.telemetry.metrics import Histogram

        observed: list[float] = []
        observe = Histogram.observe

        def record(hist, value):
            if hist.name == "memory.latency_us":
                observed.append(value)
            observe(hist, value)

        monkeypatch.setattr(Histogram, "observe", record)
        system = systems.get("xlfdd")
        scenario = ServingScenario(
            system.pool,
            ServingConfig(duration=0.2),
            TrafficModel(),
            named_storm("none"),
            base_latency=system.total_latency,
        )
        scenario.run()
        assert observed
        assert set(observed) == {system.total_latency / USEC}
        hist = scenario.registry.histogram("memory.latency_us")
        assert hist.total == len(observed)

    def test_every_remediation_is_visible_in_telemetry(self):
        tracer = Tracer()
        with use_tracer(tracer):
            report = run_serving_scenario(
                "xlfdd", storm=named_storm("storm"), controller=True
            )
        assert tracer.spans("ops.serve")
        ticks = tracer.spans("ops.controller.tick")
        assert ticks and all(t.timeline == "sim" for t in ticks)
        for action, count in report.controller_actions.items():
            events = tracer.events(f"ops.controller.{action}")
            assert len(events) == count, action
        suspend = tracer.events("ops.controller.suspend")[0]
        assert suspend.attrs["latency_ratio"] >= 3.0  # the evidence rode along
        assert tracer.events("ops.incident.start")
        assert tracer.events("ops.storm.apply")

    def test_shed_events_report_p99_in_microseconds(self):
        """Regression: shed_on/shed_off once emitted the windowed p99 in
        *seconds* under a suffix-less ``p99`` attribute, off by 1e6 from
        every other ``*_us`` telemetry field."""
        tracer = Tracer()
        with use_tracer(tracer):
            run_serving_scenario(
                "xlfdd", storm=named_storm("storm"), controller=True
            )
        shed_events = tracer.events("ops.controller.shed_on") + tracer.events(
            "ops.controller.shed_off"
        )
        assert shed_events, "the storm scenario must trip admission control"
        for event in shed_events:
            assert "p99" not in event.attrs, "suffix-less seconds attr is back"
            p99_us = event.attrs["p99_us"]
            # Shedding toggles around the 4000 us SLO: a microsecond
            # magnitude, not a seconds one (which would be < 1).
            assert p99_us > 100.0

    def test_incident_events_report_p99_in_microseconds(self):
        """ops.incident.start/end carry the windowed p99 in microseconds:
        above the SLO when an incident opens, at or below the clearing
        fraction of it when it closes."""
        config = ServingConfig()
        slo_us = config.slo_p99 / USEC
        tracer = Tracer()
        with use_tracer(tracer):
            run_serving_scenario(
                "xlfdd", storm=named_storm("storm"), controller=True
            )
        starts = tracer.events("ops.incident.start")
        ends = tracer.events("ops.incident.end")
        assert starts and ends, "the storm scenario must open and close an incident"
        for event in starts:
            assert event.attrs["p99_us"] > slo_us
        for event in ends:
            p99_us = event.attrs["p99_us"]
            # A seconds value would be < 1; the clearing p99 is a
            # microsecond magnitude below the clearing threshold.
            assert 100.0 < p99_us <= config.incident_clear_fraction * slo_us

    def test_traced_and_untraced_runs_agree(self, storm_reports):
        on, _ = storm_reports
        tracer = Tracer()
        with use_tracer(tracer):
            traced = run_serving_scenario(
                "xlfdd", storm=named_storm("storm"), controller=True
            )
        assert traced.to_json() == on.to_json()

    def test_mix_must_be_priced(self):
        with pytest.raises(ConfigError):
            run_serving_scenario(
                "xlfdd",
                config=ServingConfig(work_bytes={"bfs": 1024.0}),
                traffic=TrafficModel(mix={"bfs": 0.5, "pagerank": 0.5}),
            )

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServingConfig(duration=0.0)
        with pytest.raises(ConfigError):
            ServingConfig(slo_p99=-1.0)
        with pytest.raises(ConfigError):
            ServingConfig(concurrency=0)
        with pytest.raises(ConfigError):
            ServingConfig(ewma_alpha=0.0)


class TestServeCLI:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_serve_both_with_check_and_reports(self, capsys, tmp_path):
        report = tmp_path / "slo.json"
        code, out, _ = self.run_cli(
            capsys,
            "serve", "--duration", "2.0", "--fault-storm", "stuck",
            "--controller", "both", "--check", "--report", str(report),
        )
        assert code == 0
        assert "check passed" in out
        on = SloReport.from_json((tmp_path / "slo.on.json").read_text())
        off = SloReport.from_json((tmp_path / "slo.off.json").read_text())
        assert on.controller and not off.controller
        assert on.attainment > off.attainment

    def test_serve_single_mode_writes_one_report(self, capsys, tmp_path):
        report = tmp_path / "slo.json"
        code, out, _ = self.run_cli(
            capsys,
            "serve", "--duration", "1.0", "--fault-storm", "none",
            "--controller", "off", "--report", str(report),
        )
        assert code == 0
        assert "controller off" in out
        assert not SloReport.from_json(report.read_text()).controller

    def test_serve_traced(self, capsys, tmp_path):
        trace = tmp_path / "serve.trace.jsonl"
        code, out, _ = self.run_cli(
            capsys,
            "serve", "--duration", "1.0", "--fault-storm", "dropout",
            "--controller", "on", "--trace", str(trace),
            "--trace-format", "jsonl",
        )
        assert code == 0
        assert trace.exists()
        names = {json.loads(line)["name"] for line in trace.read_text().splitlines()}
        assert "ops.serve" in names


class TestPoolExhaustionGuard:
    def test_scenario_surface_propagates_typed_error(self):
        """The controller can never empty the pool through the scenario."""
        from repro import systems
        from repro.ops.scenario import ServingScenario

        system = systems.get("xlfdd")
        scenario = ServingScenario(
            system.pool,
            ServingConfig(standby_devices=0),
            TrafficModel(),
            named_storm("none"),
            base_latency=system.total_latency,
        )
        for dev in range(system.pool.count - 1):
            scenario.tracker.evict(dev)
        with pytest.raises(PoolExhaustedError):
            scenario.suspend_device(system.pool.count - 1, reason="stuck-slow")
        with pytest.raises(DeviceError):
            scenario.readmit_device(0)
