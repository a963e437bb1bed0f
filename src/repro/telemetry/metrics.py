"""Metric primitives: counters and gauges.

A :class:`MetricRegistry` is a namespace of named metrics that any
subsystem can publish into — the pool health tracker publishes
evictions and the surviving fraction of its pool.
A process-wide default registry (:func:`get_registry`) aggregates
whatever is not tied to a single object's lifetime.

Everything is plain Python with no locks: the package is single-threaded
by design (the DES *simulates* concurrency), so the registry stays a
zero-dependency dict of small objects.
"""

from __future__ import annotations

from typing import Iterable

from ..errors import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "MetricRegistry",
    "get_registry",
]


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


class MetricRegistry:
    """A namespace of metrics, created on first use.

    ``counter``/``gauge`` return the existing instrument when the name is
    already registered — asking for the same name with a different type
    is a configuration error and raises
    :class:`~repro.errors.TelemetryError`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge] = {}

    def _get(self, name: str, kind: type) -> Counter | Gauge | None:
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

    def names(self) -> list[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterable[str]:
        return iter(self.names())

    def snapshot(self) -> dict[str, float]:
        """Flat name -> value view for reports and tests."""
        return {name: self._metrics[name].value for name in self.names()}


#: The process-wide default registry.
_REGISTRY = MetricRegistry()


def get_registry() -> MetricRegistry:
    """The process-wide metric registry."""
    return _REGISTRY
