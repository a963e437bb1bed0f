"""Zero-dependency tracing for the repro package.

A :class:`Tracer` (:mod:`~repro.telemetry.tracer`) records nestable
spans and counter samples on a timeline read from a pluggable clock —
monotonic wall time by default, the DES's virtual clock inside
simulations.  The process-wide default is the no-op
:data:`NULL_TRACER`, so instrumentation costs ~nothing unless a caller
installs a real tracer (:func:`use_tracer`).  Counts travel as span
attributes and counter samples.

Exporters (:mod:`~repro.telemetry.export`) turn collected records into
JSON-lines, Chrome trace-event files (open in https://ui.perfetto.dev),
or plain-text profile/flamegraph summaries.  See docs/TELEMETRY.md for
the span taxonomy.
"""

from .. import _attach

__all__ = [
    # clocks
    "Clock",
    "WallClock",
    "SimClock",
    "FrozenClock",
    # tracer
    "TraceRecord",
    "SpanHandle",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    # export
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

__getattr__, __dir__ = _attach(
    __name__,
    {
        ".clock": ("Clock", "FrozenClock", "SimClock", "WallClock"),
        ".export": (
            "SpanProfile", "render_flamegraph", "render_jsonl",
            "render_profile", "span_profiles", "to_chrome_trace",
            "validate_chrome_trace", "write_chrome_trace", "write_jsonl",
        ),
        ".tracer": (
            "NULL_TRACER", "NullTracer", "SpanHandle", "TraceRecord",
            "Tracer", "get_tracer", "set_tracer", "use_tracer",
        ),
    },
)
