"""Simulation resources: semaphores, FIFO servers, rate servers.

These are the contended things a request passes through in the DES:
counted permits (PCIe tags, device queue slots, warp slots), a serialized
server with per-job service times (the shared link: ``bytes / W``), and a
rate-limited server (a device's IOPS: one op per ``1/S``).

Callbacks accept positional arguments (``acquire(cb, *args)``); combined
with :meth:`FifoServer.book` — which advances the server's bookkeeping
and returns the completion time *without* scheduling an event — the DES
hot path can fuse consecutive FIFO stages into one scheduled event per
request (see :func:`repro.sim.des.simulate_step`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ..errors import SimulationError
from .events import Simulator

__all__ = ["Semaphore", "FifoServer", "RateServer"]


class Semaphore:
    """Counted permits with FIFO waiters (PCIe tags, queue depths, warps)."""

    def __init__(self, sim: Simulator, capacity: int | None, name: str = "sem") -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"{name}: capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: deque[tuple[Callable[..., None], tuple]] = deque()
        self.max_in_use = 0

    def acquire(self, callback: Callable[..., None], *args: Any) -> None:
        """Invoke ``callback(*args)`` when a permit is granted (maybe immediately)."""
        if self.capacity is None or self._in_use < self.capacity:
            self._in_use += 1
            if self._in_use > self.max_in_use:
                self.max_in_use = self._in_use
            callback(*args)
        else:
            self._waiters.append((callback, args))

    def release(self) -> None:
        """Return a permit; hands it straight to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiters:
            # Permit changes hands without dropping _in_use.
            callback, args = self._waiters.popleft()
            self.sim.schedule(0.0, callback, *args)
        else:
            self._in_use -= 1

    @property
    def in_use(self) -> int:
        """Permits currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Waiters blocked on a permit."""
        return len(self._waiters)

    @property
    def depth(self) -> int:
        """Total demand on the resource: held permits plus waiters.

        This is the "queue depth" a device sees — telemetry samples it
        per device tag during DES runs.
        """
        return self._in_use + len(self._waiters)


class FifoServer:
    """A single serialized server: jobs queue and run back to back.

    Models the shared PCIe data path: a job of ``service_time`` seconds
    (``bytes / W``) occupies the server exclusively.  ``busy_time`` tracks
    utilisation for post-run analysis.
    """

    def __init__(self, sim: Simulator, name: str = "server") -> None:
        self.sim = sim
        self.name = name
        self._free_at = 0.0
        self.busy_time = 0.0
        self.jobs = 0

    def submit(
        self, service_time: float, callback: Callable[..., None], *args: Any
    ) -> None:
        """Enqueue a job; ``callback(*args)`` fires at its completion time."""
        done = self.book(self.sim.now, service_time)
        self.sim.schedule_at(done, callback, *args)

    def book(self, ready_time: float, service_time: float) -> float:
        """Account for a job ready at ``ready_time``; return its finish time.

        Pure bookkeeping — no event is scheduled.  Because the server is
        FIFO and completion times are computable at submission, a caller
        that already knows a job's ready time can chain several servers
        analytically and schedule a single event at the final time
        (event fusion; the DES fast path in :func:`repro.sim.des.simulate_step`).
        Jobs must be booked in ready-time order, as a FIFO queue would
        admit them.
        """
        if service_time < 0:
            raise SimulationError(f"{self.name}: negative service time")
        start = ready_time if ready_time > self._free_at else self._free_at
        done = start + service_time
        self._free_at = done
        self.busy_time += service_time
        self.jobs += 1
        return done

    @property
    def free_at(self) -> float:
        """Virtual time at which the server next idles."""
        return self._free_at


class RateServer(FifoServer):
    """A FIFO server with a fixed per-job service time ``1 / rate``.

    Models a device's sustained IOPS: ops are admitted at most ``rate``
    per second regardless of their size (Section 3.2's size-independence
    assumption for flash devices).
    """

    def __init__(self, sim: Simulator, rate: float, name: str = "rate-server") -> None:
        if rate <= 0:
            raise SimulationError(f"{name}: rate must be positive")
        super().__init__(sim, name=name)
        self.rate = rate

    def book_op(self, ready_time: float) -> float:
        """Account for one op ready at ``ready_time``; return its finish time."""
        return self.book(ready_time, 1.0 / self.rate)
