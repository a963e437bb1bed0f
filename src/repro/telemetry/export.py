"""Trace exporters: JSON-lines, Chrome trace-event format, profiles.

Three ways out of a :class:`~repro.telemetry.tracer.Tracer`:

* :func:`render_jsonl` / :func:`write_jsonl` — one JSON object per
  record, stable key order, loadable with any line-oriented tooling;
* :func:`to_chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event JSON object format, loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``;
  :func:`validate_chrome_trace` checks the schema subset we emit;
* :func:`render_profile` / :func:`render_flamegraph` — plain-text
  summaries: a top-N-spans-by-inclusive-time table, and collapsed
  flamegraph stacks (Brendan Gregg's ``a;b;c value`` format).

Timestamps convert to microseconds for Chrome (its native unit — apt for
a paper about microsecond-latency memory); JSONL keeps raw seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from ..errors import TelemetryError
from ..units import time_human, to_usec
from .tracer import TraceRecord

__all__ = [
    "render_jsonl",
    "write_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "SpanProfile",
    "span_profiles",
    "render_profile",
    "render_flamegraph",
]

#: Chrome trace-event phases we emit: complete spans, counters, and
#: metadata (thread names).
_CHROME_PHASES = {"X", "C", "M"}

#: Stable lane ids per timeline; unknown timelines get lanes above these.
_TIMELINE_TIDS = {"wall": 0, "sim": 1}


def _record_to_jsonl_obj(record: TraceRecord) -> dict[str, object]:
    obj: dict[str, object] = {
        "kind": record.kind,
        "name": record.name,
        "ts": record.start,
        "timeline": record.timeline,
    }
    if record.kind == "span":
        obj["dur"] = record.duration
        obj["self_dur"] = record.self_duration
    if record.kind == "counter":
        obj["value"] = record.value
    if record.stack:
        obj["stack"] = list(record.stack)
    if record.attrs:
        obj["attrs"] = {k: record.attrs[k] for k in sorted(record.attrs)}
    return obj


def render_jsonl(records: Iterable[TraceRecord]) -> str:
    """The records as JSON-lines text (one object per record)."""
    return "\n".join(
        json.dumps(_record_to_jsonl_obj(record), default=str)
        for record in records
    )


def write_jsonl(records: Iterable[TraceRecord], path: str | Path) -> Path:
    """Write :func:`render_jsonl` output to ``path``; returns the path."""
    target = Path(path)
    target.write_text(render_jsonl(records) + "\n", encoding="utf-8")
    return target


def to_chrome_trace(records: Sequence[TraceRecord]) -> dict[str, object]:
    """The records as a Chrome trace-event JSON object.

    Spans become complete (``"ph": "X"``) events, counter samples counter
    events (``"C"``).
    Wall-clock and simulated-time records land on separate named lanes so
    the two time bases never overlap in the viewer.
    """
    events: list[dict[str, object]] = []
    used_timelines: dict[str, int] = {}
    for record in records:
        tid = used_timelines.get(record.timeline)
        if tid is None:
            tid = _TIMELINE_TIDS.get(
                record.timeline,
                max((*used_timelines.values(), *_TIMELINE_TIDS.values())) + 1,
            )
            used_timelines[record.timeline] = tid
        base: dict[str, object] = {
            "name": record.name,
            "cat": "repro",
            "ts": to_usec(record.start),
            "pid": 0,
            "tid": tid,
        }
        if record.kind == "span":
            base["ph"] = "X"
            base["dur"] = to_usec(record.duration)
            base["args"] = dict(record.attrs)
        elif record.kind == "counter":
            base["ph"] = "C"
            base["args"] = {"value": record.value}
        else:
            raise TelemetryError(f"unknown record kind {record.kind!r}")
        events.append(base)
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": f"{timeline} clock"},
        }
        for timeline, tid in sorted(used_timelines.items(), key=lambda kv: kv[1])
    ]
    return {
        "traceEvents": meta + events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry"},
    }


def write_chrome_trace(
    records: Sequence[TraceRecord], path: str | Path
) -> Path:
    """Write :func:`to_chrome_trace` output as JSON to ``path``."""
    target = Path(path)
    target.write_text(
        json.dumps(to_chrome_trace(records), indent=1, default=str) + "\n",
        encoding="utf-8",
    )
    return target


def validate_chrome_trace(data: object) -> None:
    """Check ``data`` against the Chrome trace-event schema subset we emit.

    Raises :class:`~repro.errors.TelemetryError` naming the first
    violation; returns None when the object is well-formed.  Used by the
    golden tests and by callers that load third-party traces.
    """
    if not isinstance(data, dict):
        raise TelemetryError("trace must be a JSON object")
    events = data.get("traceEvents")
    if not isinstance(events, list):
        raise TelemetryError("trace must have a 'traceEvents' list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise TelemetryError(f"{where}: not an object")
        phase = event.get("ph")
        if phase not in _CHROME_PHASES:
            raise TelemetryError(f"{where}: unknown phase {phase!r}")
        if not isinstance(event.get("name"), str):
            raise TelemetryError(f"{where}: 'name' must be a string")
        if phase != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                raise TelemetryError(f"{where}: 'ts' must be a number >= 0")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise TelemetryError(f"{where}: {key!r} must be an integer")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise TelemetryError(f"{where}: 'dur' must be a number >= 0")
        if phase == "C" and not isinstance(event.get("args"), dict):
            raise TelemetryError(f"{where}: counter needs an 'args' object")


@dataclass(frozen=True)
class SpanProfile:
    """Aggregate statistics of all spans sharing one name and timeline.

    Aggregation is *per timeline*: a wall-clock second and a simulated
    second measure different things, so summing them into one total
    would corrupt every number in the profile.
    """

    name: str
    count: int
    total: float
    self_total: float
    max_single: float
    timeline: str = "wall"

    @property
    def mean(self) -> float:
        """Mean inclusive duration per span."""
        return self.total / self.count if self.count else 0.0


def span_profiles(records: Iterable[TraceRecord]) -> list[SpanProfile]:
    """Per-(timeline, name) span aggregates, by inclusive time (desc)."""
    totals: dict[tuple[str, str], list[float]] = {}
    for record in records:
        if record.kind != "span":
            continue
        entry = totals.setdefault(
            (record.timeline, record.name), [0.0, 0.0, 0.0, 0.0]
        )
        entry[0] += 1
        entry[1] += record.duration
        entry[2] += record.self_duration
        entry[3] = max(entry[3], record.duration)
    profiles = [
        SpanProfile(
            name=name,
            count=int(entry[0]),
            total=entry[1],
            self_total=entry[2],
            max_single=entry[3],
            timeline=timeline,
        )
        for (timeline, name), entry in totals.items()
    ]
    profiles.sort(key=lambda p: (-p.total, p.name, p.timeline))
    return profiles


def render_profile(
    records: Iterable[TraceRecord], top: int = 10
) -> str:
    """Top-``top`` spans by inclusive time as a plain-text table."""
    if top < 1:
        raise TelemetryError(f"top must be >= 1, got {top}")
    profiles = span_profiles(records)
    if not profiles:
        return "no spans recorded"
    header = (
        f"{'span':<28} {'clock':>5} {'count':>7} {'inclusive':>12} "
        f"{'self':>12} {'mean':>12} {'max':>12}"
    )
    lines = [header, "-" * len(header)]
    for profile in profiles[:top]:
        lines.append(
            f"{profile.name:<28} {profile.timeline:>5} {profile.count:>7} "
            f"{_fmt_time(profile.total):>12} "
            f"{_fmt_time(profile.self_total):>12} "
            f"{_fmt_time(profile.mean):>12} "
            f"{_fmt_time(profile.max_single):>12}"
        )
    if len(profiles) > top:
        lines.append(f"... and {len(profiles) - top} more span names")
    return "\n".join(lines)


def render_flamegraph(records: Iterable[TraceRecord]) -> str:
    """Collapsed flamegraph stacks: ``clock;parent;child <self-usec>``.

    One line per unique (timeline, span stack) with its accumulated
    *self* time in integer microseconds — the input format of
    ``flamegraph.pl`` and https://www.speedscope.app's "collapsed"
    importer.  Each stack is rooted at a synthetic timeline frame
    (``wall``/``sim``) so wall-clock and simulated durations never sum
    into the same frame.
    """
    stacks: dict[tuple[str, tuple[str, ...]], float] = {}
    for record in records:
        if record.kind != "span" or not record.stack:
            continue
        key = (record.timeline, record.stack)
        stacks[key] = stacks.get(key, 0.0) + record.self_duration
    return "\n".join(
        f"{timeline};{';'.join(stack)} {round(to_usec(value))}"
        for (timeline, stack), value in sorted(stacks.items())
    )


def _fmt_time(seconds: float) -> str:
    return time_human(seconds)
