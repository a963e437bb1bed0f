"""The sweep executor: run a task function over payloads, in order.

:meth:`Executor.map` is the one place a batch of sweep tasks runs, so
it is where the ``exec.map`` telemetry span sits.
:class:`SerialExecutor` runs every task in the calling process, in
payload order; tasks are pure functions of their payload, so the
results are a function of the payloads alone.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..telemetry.tracer import get_tracer

__all__ = ["Executor", "SerialExecutor"]


class Executor:
    """Base class: telemetry around :meth:`_run`."""

    #: Short name recorded in telemetry spans.
    name = "base"

    def map(self, fn: Callable[[Any], Any], payloads: Sequence[Any]) -> list[Any]:
        """Run ``fn`` over ``payloads``; results in payload order."""
        payloads = list(payloads)
        with get_tracer().span("exec.map", executor=self.name, tasks=len(payloads)):
            return self._run(fn, payloads)

    def _run(self, fn: Callable[[Any], Any], payloads: list[Any]) -> list[Any]:
        raise NotImplementedError


class SerialExecutor(Executor):
    """Run every task in the calling process, in order."""

    name = "serial"

    def _run(self, fn: Callable[[Any], Any], payloads: list[Any]) -> list[Any]:
        return [fn(payload) for payload in payloads]
