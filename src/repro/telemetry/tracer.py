"""The tracer: nestable spans and counter samples.

A :class:`Tracer` collects :class:`TraceRecord` objects on a single
timeline read from its clock (wall by default; :meth:`Tracer.with_clock`
rebinds a view onto simulated time for DES runs).  Two record kinds:

* **span** — a named interval with attributes, opened with
  ``with tracer.span("engine.step", frontier_size=n) as sp:`` and closed
  on exit; spans nest, and each records both inclusive duration and self
  time (inclusive minus child spans);
* **counter** — a sampled series value
  (``tracer.counter_sample("des.dev0.queue_depth", depth)``).

The default tracer is the no-op :data:`NULL_TRACER` (see
:func:`get_tracer`), so untouched callers pay only a cached-singleton
context-manager enter/exit on instrumented paths — no records, no
timestamps, no allocation beyond the call's keyword dict.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..errors import TelemetryError
from .clock import Clock, WallClock

__all__ = [
    "TraceRecord",
    "SpanHandle",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]


@dataclass(frozen=True)
class TraceRecord:
    """One telemetry record on the tracer's timeline.

    ``kind`` is ``"span"`` or ``"counter"``; times are seconds on the
    emitting tracer's clock.  ``duration`` and ``self_duration`` are 0.0
    for counters; ``value`` is None for spans.  ``stack`` is the enclosing span-name chain including
    the record's own name for spans (the flamegraph path).
    """

    kind: str
    name: str
    start: float
    duration: float = 0.0
    self_duration: float = 0.0
    value: float | None = None
    stack: tuple[str, ...] = ()
    attrs: dict[str, Any] = field(default_factory=dict)
    timeline: str = "wall"

    @property
    def end(self) -> float:
        """The record's end time (== start for counters)."""
        return self.start + self.duration


class SpanHandle:
    """The live span yielded by :meth:`Tracer.span`.

    Use :meth:`set` to attach attributes discovered while the span is
    open (bytes moved, frontier sizes measured mid-step).
    """

    __slots__ = ("name", "attrs", "start", "child_time")

    def __init__(self, name: str, attrs: dict[str, Any], start: float) -> None:
        self.name = name
        self.attrs = attrs
        self.start = start
        self.child_time = 0.0

    def set(self, **attrs: Any) -> "SpanHandle":
        """Attach or overwrite span attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self


class Tracer:
    """Collects spans and counter samples on one timeline.

    Parameters
    ----------
    clock:
        Timestamp source (default: a fresh :class:`WallClock`).

    Tracers created by :meth:`with_clock` share this tracer's record list
    and span stack, so a DES running inside a traced experiment nests its
    simulated-time records under the caller's spans structurally (the
    timelines differ; exporters keep them apart via the ``clock`` attr).
    """

    #: Whether this tracer records anything; instrumentation uses this to
    #: skip attribute computation that only matters when tracing.
    enabled: bool = True

    def __init__(self, clock: Clock | None = None) -> None:
        self.clock: Clock = clock if clock is not None else WallClock()
        self.timeline: str = "wall"
        self.records: list[TraceRecord] = []
        self._stack: list[SpanHandle] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanHandle]:
        """Open a nested span; records on exit (exceptions included)."""
        handle = SpanHandle(name, attrs, self.clock.now())
        self._stack.append(handle)
        try:
            yield handle
        finally:
            end = self.clock.now()
            popped = self._stack.pop()
            if popped is not handle:  # pragma: no cover - programming error
                raise TelemetryError(f"span stack corrupted at {name!r}")
            duration = max(0.0, end - handle.start)
            if self._stack:
                self._stack[-1].child_time += duration
            self.records.append(
                TraceRecord(
                    kind="span",
                    name=name,
                    start=handle.start,
                    duration=duration,
                    self_duration=max(0.0, duration - handle.child_time),
                    stack=self._stack_names() + (name,),
                    attrs=dict(handle.attrs),
                    timeline=self.timeline,
                )
            )

    def counter_sample(self, name: str, value: float, **attrs: Any) -> None:
        """Record one sample of a counter series at the current time."""
        self.records.append(
            TraceRecord(
                kind="counter",
                name=name,
                start=self.clock.now(),
                value=float(value),
                stack=self._stack_names(),
                attrs=attrs,
                timeline=self.timeline,
            )
        )

    def _stack_names(self) -> tuple[str, ...]:
        return tuple(handle.name for handle in self._stack)

    # -- views ---------------------------------------------------------------

    def with_clock(self, clock: Clock, timeline: str = "sim") -> "Tracer":
        """A view of this tracer reading timestamps from ``clock``.

        The view shares records and the span stack, so records emitted
        through it interleave with the parent's — used to put DES records
        on simulated time inside a wall-clock trace.  ``timeline`` tags
        the view's records so exporters keep the two time bases on
        separate lanes.
        """
        view = Tracer.__new__(Tracer)
        view.clock = clock
        view.timeline = timeline
        view.records = self.records
        view._stack = self._stack
        return view

    # -- queries -------------------------------------------------------------

    def spans(self, name: str | None = None) -> list[TraceRecord]:
        """All span records (optionally only those called ``name``)."""
        return [
            r
            for r in self.records
            if r.kind == "span" and (name is None or r.name == name)
        ]

    def counters(self, name: str | None = None) -> list[TraceRecord]:
        """All counter samples (optionally only the series ``name``)."""
        return [
            r
            for r in self.records
            if r.kind == "counter" and (name is None or r.name == name)
        ]


class _NullSpan:
    """Reusable no-op span handle/context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **attrs: Any) -> "_NullSpan":
        """Discard attributes; returns self for chaining."""
        return self


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """A tracer that records nothing — the zero-overhead default.

    ``span`` returns one cached no-op context manager; ``counter_sample``
    discards its inputs.  ``records`` stays empty, so
    the overhead-guard tests can assert "tracing off emits zero records"
    directly.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=_ZERO_CLOCK)

    def span(self, name: str, **attrs: Any) -> _NullSpan:  # type: ignore[override]
        """Return the shared no-op span; nothing is recorded."""
        return _NULL_SPAN

    def counter_sample(self, name: str, value: float, **attrs: Any) -> None:
        """Discard the sample."""

    def with_clock(self, clock: Clock, timeline: str = "sim") -> "NullTracer":
        """Clock is irrelevant when nothing records; returns self."""
        return self


class _ZeroClock:
    """Constant clock backing the null tracer (never read in practice)."""

    __slots__ = ()

    def now(self) -> float:
        """Always 0.0."""
        return 0.0


_ZERO_CLOCK = _ZeroClock()

#: The shared no-op tracer; the process-wide default.
NULL_TRACER = NullTracer()

_current: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The process-wide current tracer (:data:`NULL_TRACER` by default)."""
    return _current


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide current; returns the old one."""
    global _current
    previous = _current
    _current = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer`` for the duration of a ``with`` block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
