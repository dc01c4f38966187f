"""The pre-wheel single-binary-heap simulation kernel, kept verbatim.

:class:`LegacyHeapEnvironment` reproduces the kernel exactly as it was
before the calendar-queue refactor of :mod:`repro.sim.core`: one global
``heapq`` of ``(time, priority, eid, event)`` entries, no Timeout pooling.
It exists for two reasons:

* **order-parity oracle** — the wheel must pop events in exactly the same
  ``(time, priority, eid)`` order as the heap; the parity tests and the
  order-digest section of :mod:`repro.experiments.kernel_ablation` run
  identical scenarios on both kernels and compare the pop sequences,
* **benchmark baseline** — ``BENCH_kernel.json`` records the wheel's
  events/sec speedup over this kernel, and the regression gate keeps the
  committed ratio honest.

Do not grow features here: this module is a frozen reference, not a
second kernel.
"""

from __future__ import annotations

import heapq

from repro.errors import SimulationError
from repro.sim.core import _INF, Environment, Timeout

_heappush = heapq.heappush
_heappop = heapq.heappop

__all__ = ["LegacyHeapEnvironment"]


class LegacyHeapEnvironment(Environment):
    """Single-heap event queue with scan-and-skip cancellation (pre-wheel)."""

    def __init__(self, initial_time: float = 0.0):
        # The base constructor allocates the (unused) wheel structures;
        # they stay empty because every queue primitive is overridden.
        super().__init__(initial_time)
        self._queue: list = []  # heap of (time, priority, eid, event)

    def _pending_count(self) -> int:
        return len(self._queue)

    def _schedule(self, event, priority: int, delay: float) -> None:
        self._eid += 1
        _heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INF

    def timeout(self, delay: float, value=None) -> Timeout:
        # No pooling: the legacy kernel allocates every Timeout, like the
        # original did.  (The inherited pool stays empty regardless — the
        # legacy step() never recycles — but constructing directly keeps
        # the per-call cost identical to the pre-refactor kernel.)
        return Timeout(self, delay, value)

    def timeout_batch(self, delays, value=None) -> list:
        # The base-class bulk path writes straight into the wheel buckets,
        # which this kernel's step() never drains — route through the
        # heap-backed timeout() instead.
        return [Timeout(self, d, value) for d in delays]

    def step(self) -> None:
        """Process the next event; raises :class:`SimulationError` if empty."""
        queue = self._queue
        if not queue:
            raise SimulationError("no scheduled events")
        when, priority, eid, event = _heappop(queue)
        if event._cancelled:
            # Cancelled before processing: drop silently, do not advance time.
            event.callbacks = None
            return
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        self.events_processed += 1
        trace = self._pop_trace
        if trace is not None:
            trace.append((when, priority, eid))
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # Unhandled failure: abort the run loudly.
            raise event._value

    def _run_core(self, deadline: float) -> None:
        queue = self._queue
        step = self.step
        while queue and queue[0][0] <= deadline:
            step()
