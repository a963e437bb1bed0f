"""OBS001 — instrumented code observes time/counts via ``repro.telemetry``.

The telemetry layer exists so every duration and count flows through one
pluggable pipeline: spans read their timestamps from a tracer clock
(wall *or* simulated), counts travel as span attributes or counter
samples, and the exporters/profilers see everything.  An instrumented
module that reads the monotonic host clock directly
(``time.perf_counter`` et al.) or keeps ad-hoc tallies in a
``collections.Counter`` is invisible to every trace and profile, and on
the DES it reports wall time where simulated time is the truth.

``repro/telemetry/clock.py`` is the single sanctioned host-clock site
(``WallClock`` wraps ``perf_counter`` there); everything else in the
instrumented packages goes through a clock or a tracer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, Rule, canonical_chain, register

__all__ = ["TelemetryObservabilityRule"]

#: Monotonic host-clock reads for *measurement*: fine for a clock
#: implementation but not for scattered ad-hoc timing.
_HOST_CLOCKS = {
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "process_time"),
    ("time", "process_time_ns"),
    ("time", "thread_time"),
    ("time", "thread_time_ns"),
}


@register
class TelemetryObservabilityRule(Rule):
    """Flag ad-hoc clocks/counters that bypass repro.telemetry."""

    id = "OBS001"
    title = "ad-hoc clock or counter outside repro.telemetry"
    rationale = (
        "Durations and counts in instrumented modules must flow through "
        "the telemetry clocks and tracer so traces and profiles stay "
        "complete — and so DES code reports simulated time, not wall "
        "time."
    )
    default_paths = ("engine", "sim", "core", "telemetry", "cli.py")
    default_excludes = ("clock.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = canonical_chain(node.func, ctx.aliases)
            if not chain:
                continue
            if chain in _HOST_CLOCKS:
                yield ctx.finding(
                    self,
                    node,
                    f"direct host-clock read '{'.'.join(chain)}'; time "
                    "instrumented code with repro.telemetry (Tracer spans "
                    "or a WallClock/SimClock)",
                )
            elif chain[:2] == ("collections", "Counter"):
                yield ctx.finding(
                    self,
                    node,
                    "ad-hoc collections.Counter tally; report counts as "
                    "tracer span attributes or Tracer.counter_sample so "
                    "they appear in traces",
                )
