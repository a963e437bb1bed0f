"""Metric primitives: counters, gauges, fixed-bucket histograms.

A :class:`MetricRegistry` is a namespace of named metrics that any
subsystem can publish into — the pool health tracker publishes
evictions, the serving scenario its query latencies and per-device
health ratios.
A process-wide default registry (:func:`get_registry`) aggregates
whatever is not tied to a single object's lifetime.

Everything is plain Python with no locks: the package is single-threaded
by design (the DES *simulates* concurrency), so the registry stays a
zero-dependency dict of small objects.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..errors import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "get_registry",
    "set_registry",
    "DEFAULT_LATENCY_BUCKETS_US",
]

#: Default histogram buckets for microsecond-scale latencies (upper
#: bounds in microseconds; an implicit +inf bucket catches the tail).
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1_000.0,
)


class Counter:
    """A cumulative, monotonic tally; :meth:`inc` is the only write path."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current tally."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the tally."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r}: negative increment {amount}"
            )
        self._value += amount


class Gauge:
    """A point-in-time value (queue depth, surviving fraction, ...)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Most recently set value."""
        return self._value

    def set(self, value: float) -> None:
        """Record the current value."""
        self._value = float(value)


class Histogram:
    """Fixed-bucket histogram (cumulative-style, like Prometheus).

    ``buckets`` are strictly increasing upper bounds; an implicit +inf
    bucket catches everything above the last bound.  ``counts[i]`` is the
    number of observations ``<= buckets[i]`` landing in that bucket
    (non-cumulative storage; :meth:`cumulative` derives the classic
    less-than-or-equal view).
    """

    __slots__ = ("name", "buckets", "counts", "total", "sum")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError(f"histogram {name!r}: needs >= 1 bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r}: buckets must be strictly increasing"
            )
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot: +inf overflow
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += 1
        self.sum += float(value)

    def cumulative(self) -> list[int]:
        """Counts of observations ``<=`` each bound (plus the +inf slot)."""
        out: list[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from the bucket bounds.

        Returns the upper bound of the bucket containing the ``q``-th
        observation (the last finite bound for the overflow bucket); 0.0
        when the histogram is empty.  Bucket-resolution only — use raw
        samples when exactness matters.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        target = q * self.total
        running = 0
        for i, count in enumerate(self.counts):
            running += count
            if running >= target:
                return self.buckets[min(i, len(self.buckets) - 1)]
        return self.buckets[-1]


class MetricRegistry:
    """A namespace of metrics, created on first use.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when the name is already registered — asking for the same name with a
    different type (or different histogram buckets) is a configuration
    error and raises :class:`~repro.errors.TelemetryError`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type) -> Counter | Gauge | Histogram | None:
        existing = self._metrics.get(name)
        if existing is None:
            return None
        if not isinstance(existing, kind):
            raise TelemetryError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}, not {kind.__name__}"
            )
        return existing

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created if absent."""
        existing = self._get(name, Counter)
        if existing is None:
            existing = self._metrics.setdefault(name, Counter(name))
        return existing  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created if absent."""
        existing = self._get(name, Gauge)
        if existing is None:
            existing = self._metrics.setdefault(name, Gauge(name))
        return existing  # type: ignore[return-value]

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None
    ) -> Histogram:
        """The histogram called ``name``, created with ``buckets`` if absent.

        ``buckets`` defaults to :data:`DEFAULT_LATENCY_BUCKETS_US`.  Asking
        for an existing histogram with different buckets raises.
        """
        existing = self._get(name, Histogram)
        if existing is not None:
            assert isinstance(existing, Histogram)
            if buckets is not None and tuple(float(b) for b in buckets) != (
                existing.buckets
            ):
                raise TelemetryError(
                    f"histogram {name!r} already registered with different "
                    "buckets"
                )
            return existing
        hist = Histogram(
            name, buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS_US
        )
        self._metrics[name] = hist
        return hist

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterable[str]:
        return iter(self.names())

    def snapshot(self) -> dict[str, float | dict[str, object]]:
        """Flat name -> value view for reports and tests.

        Counters and gauges map to their value; histograms to a dict with
        ``buckets``, ``counts``, ``total``, ``sum``.
        """
        out: dict[str, float | dict[str, object]] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[name] = {
                    "buckets": list(metric.buckets),
                    "counts": list(metric.counts),
                    "total": metric.total,
                    "sum": metric.sum,
                }
            else:
                out[name] = metric.value
        return out


#: The process-wide default registry.
_REGISTRY = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The process-wide metric registry."""
    return _REGISTRY


def set_registry(registry: MetricRegistry) -> MetricRegistry:
    """Swap the process-wide registry; returns the previous one.

    Tests use this to run against a fresh registry without leaking state
    into other tests.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
