"""Operations: traffic-driven serving scenarios with a self-healing loop.

``repro.ops`` closes the loop the fault layer opened: an open-arrival
traffic generator (:mod:`~repro.ops.traffic`) submits traversal queries
against a striped pool on the DES clock while a seeded fault storm
(:mod:`~repro.ops.storm`) degrades members; a controller
(:mod:`~repro.ops.controller`) watches the published ``health.*`` and
``memory.latency_us`` signals and remediates — early eviction of
stuck-slow members, half-open probation probes, width scaling against a
standby set, token-bucket admission control.  The scenario harness
(:mod:`~repro.ops.scenario`) runs it all and folds the outcome into an
:class:`~repro.ops.slo.SloReport` whose canonical JSON is byte-identical
for identical seeds — ``repro serve`` is the CLI face.
"""

from .. import _attach

__all__ = [
    "BurstEpisode",
    "ControllerPolicy",
    "FaultStorm",
    "Incident",
    "Query",
    "ServingConfig",
    "ServingController",
    "ServingScenario",
    "SloReport",
    "StormEvent",
    "TokenBucket",
    "TrafficModel",
    "available_storms",
    "compare_reports",
    "named_storm",
    "run_serving_scenario",
]

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".controller": (
            "ControllerPolicy", "ServingController", "TokenBucket",
        ),
        ".scenario": (
            "ServingConfig", "ServingScenario", "run_serving_scenario",
        ),
        ".slo": ("Incident", "SloReport", "compare_reports"),
        ".storm": (
            "FaultStorm", "StormEvent", "available_storms", "named_storm",
        ),
        ".traffic": ("BurstEpisode", "Query", "TrafficModel"),
    },
)
