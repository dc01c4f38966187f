"""Core of the discrete-event simulation kernel.

The design follows the classic event-loop-plus-coroutines architecture
(SimPy's model): simulation activities are Python generators that ``yield``
:class:`Event` objects; the :class:`Environment` owns a priority queue of
scheduled events and resumes each waiting generator when the event it
yielded fires.

Only simulated time exists here — nothing sleeps on the wall clock, so a
simulated multi-minute serverless trace executes in milliseconds, and runs
are fully deterministic given seeded RNG streams (:mod:`repro.sim.rng`).

Event storage is a calendar queue (bucketed event wheel) rather than a
single binary heap:

* near-future events land in one of ``wheel_buckets`` fixed-width time
  buckets (plain list append, O(1)); a bucket is sorted once, when the
  cursor reaches it,
* events beyond the wheel's horizon go to a small overflow heap and are
  migrated into buckets as the horizon advances,
* events scheduled at (or before) the bucket currently being drained are
  merge-inserted into the remaining, already-sorted run (``bisect.insort``
  with a low bound at the drain position).

The pop order is *exactly* ascending ``(time, priority, eid)`` — identical
to the single-heap kernel this replaced — so determinism goldens are
preserved bit for bit.  Cancellation is tombstone-based: :meth:`Event.cancel`
marks the scheduled entry dead and :meth:`Environment.step` drops it on pop
without advancing time (removal from the middle of the structure would be
O(n)).  Processed :class:`Timeout` objects that nobody else references are
recycled through a free list, and :meth:`Environment.timeout_batch` creates
many timeouts in one call for arrival processes.

The pre-wheel single-heap kernel survives as
:class:`repro.sim.legacy.LegacyHeapEnvironment` — the order-parity oracle
and the baseline of :mod:`repro.experiments.kernel_ablation`.
"""

from __future__ import annotations

import heapq
from bisect import insort
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

# Bound at module level: the scheduler calls these once per event, so the
# repeated ``heapq.`` attribute lookup is measurable on large scenarios.
_heappush = heapq.heappush
_heappop = heapq.heappop

_INF = float("inf")

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Condition",
    "AllOf",
    "AnyOf",
    "StopSimulation",
]

# Scheduling priorities: urgent events (process resumption bookkeeping) run
# before normal events that share a timestamp.
URGENT = 0
NORMAL = 1


class StopSimulation(Exception):
    """Raised internally to terminate :meth:`Environment.run` early."""


class Interrupt(Exception):
    """Thrown into a process generator by :meth:`Process.interrupt`.

    ``cause`` carries the value given to ``interrupt()`` — e.g. a migration
    request or a cancellation reason.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


_PENDING = object()  # sentinel: event value not yet decided


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event moves through three states: *pending* (created), *triggered*
    (scheduled into the event queue with a value or an exception) and
    *processed* (its callbacks have run).  Processes wait on events by
    yielding them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_cancelled")

    def __init__(self, env: "Environment"):
        self.env = env
        #: callables invoked with this event once it is processed; set to
        #: ``None`` afterwards, which is how we detect the processed state.
        self.callbacks: Optional[list] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._cancelled = False

    # -- state inspection ---------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value/exception."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid when triggered."""
        if self._ok is None:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so it will not crash the run."""
        self._defused = True

    def cancel(self) -> None:
        """Discard a *scheduled* event before its callbacks run.

        The queue entry stays (removal would be O(n)); it becomes a
        tombstone that :meth:`Environment.step` drops without advancing
        time or invoking callbacks.  Only use this on events nobody else
        subscribes to (e.g. a private deadline :class:`Timeout`) —
        subscribers would never be resumed.

        Cancelling an event that has not been triggered yet is a no-op:
        such an event has no queue entry to tombstone, and poisoning it
        would make a later ``succeed()``/``fail()`` schedule an event that
        the kernel silently drops, hanging its subscribers forever.
        """
        if self._value is not _PENDING and self.callbacks is not None:
            self._cancelled = True

    # -- triggering ---------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A process yielding this event will have ``exception`` thrown into
        it.  If nobody handles the failure, the simulation run aborts —
        silent error swallowing would make debugging impossible.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the outcome of ``event`` onto this event (callback form)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    def __repr__(self) -> str:
        state = (
            "processed" if self.processed else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` units of simulated time in the future.

    Timeouts are the kernel's bulk commodity (arrival gaps, deadlines,
    cost-model delays), so processed instances that nobody else references
    are recycled through :attr:`Environment._timeout_pool` instead of being
    re-allocated — see :meth:`Environment.timeout`.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)


class Initialize(Event):
    """Immediate urgent event used to start a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        env._schedule(self, URGENT, 0.0)


class Process(Event):
    """A running simulation activity wrapping a generator.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the exception that
    escaped it.  Other processes can therefore ``yield proc`` to join it.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(self, env: "Environment", generator: Generator, name: str = ""):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: the event this process is currently waiting on
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        Interrupting a dead process is an error; interrupting a process
        that is waiting on an event detaches it from that event first.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self._target is self:
            raise SimulationError("a process cannot interrupt itself")
        # Deliver asynchronously via a failed urgent event so interrupts
        # interleave deterministically with the event queue.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event.callbacks.append(self._resume)
        self.env._schedule(event, URGENT, 0.0)
        # Detach from the event we were waiting on (it may still fire, but
        # must no longer resume us).
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._target = None

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The event failed: throw its exception into the process.
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                # Process finished successfully.
                self._ok = True
                self._value = exc.value
                self.env._schedule(self, NORMAL, 0.0)
                break
            except BaseException as exc:
                # Process died; propagate to joiners (or crash the run).
                self._ok = False
                self._value = exc
                self.env._schedule(self, NORMAL, 0.0)
                break

            # The process yielded a new event to wait on.
            if not isinstance(next_event, Event):
                event = Event(self.env)
                event._ok = False
                event._value = TypeError(
                    f"process {self.name!r} yielded non-event {next_event!r}"
                )
                event._defused = True
                continue
            if next_event.callbacks is not None:
                # Event not yet processed: subscribe and suspend.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Event already processed: loop immediately with its outcome.
            event = next_event

        self.env._active_process = None


class Condition(Event):
    """Waits for a combination of events (used by AllOf / AnyOf).

    Succeeds with a dict mapping each *triggered* constituent event to its
    value once ``evaluate`` says the condition holds.  If any constituent
    fails, the condition fails with that exception.
    """

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list, int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different environments")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> dict:
        # Only events whose callbacks have run count as "happened"; a
        # Timeout carries its value from construction but has not fired yet.
        return {e: e._value for e in self._events if e.processed and e._ok}

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event._defused = True
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


class AllOf(Condition):
    """Succeeds when *all* given events have succeeded."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda events, count: count == len(events), events)


class AnyOf(Condition):
    """Succeeds as soon as *any* of the given events succeeds."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, lambda events, count: count >= 1, events)


#: wheel geometry defaults: 1024 buckets of 50 simulated milliseconds cover
#: a ~51 s horizon — wider than one scheduling quantum of every workload in
#: the repo, so the overflow heap only sees long deadlines and far arrivals
_WHEEL_BUCKETS = 1024
_BUCKET_WIDTH = 0.05
#: recycled-Timeout free-list cap (beyond this, garbage is cheaper than RAM)
_POOL_CAP = 4096
#: drained-entry prefix length that triggers compaction of the current run
_COMPACT_AT = 1024


class Environment:
    """The simulation driver: clock plus calendar event queue.

    All simulated components hold a reference to one environment and
    create events/processes through it.

    ``bucket_width``/``wheel_buckets`` tune the calendar queue geometry;
    they affect performance only — the pop order is always exactly
    ascending ``(time, priority, eid)`` regardless of geometry.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        bucket_width: float = _BUCKET_WIDTH,
        wheel_buckets: int = _WHEEL_BUCKETS,
    ):
        if bucket_width <= 0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        if wheel_buckets <= 0:
            raise ValueError(f"wheel_buckets must be positive, got {wheel_buckets}")
        self._now = float(initial_time)
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: events processed so far ("no optimization without measuring" —
        #: the first thing to look at when a scenario runs slowly)
        self.events_processed = 0
        #: processes ever created
        self.processes_created = 0
        #: Timeout objects served from the free list instead of allocated
        self.timeouts_recycled = 0
        # -- calendar queue state -------------------------------------------
        self._width = float(bucket_width)
        #: multiply-by-inverse replaces division on the per-event path; the
        #: bucket-index formula only has to be monotone and used everywhere,
        #: so the last-ulp difference vs. true division is irrelevant
        self._scale = 1.0 / self._width
        self._nb = int(wheel_buckets)
        #: fixed-width future buckets; slot = absolute_index % wheel_buckets.
        #: Invariant: every stored entry has absolute index in
        #: [cursor, cursor + wheel_buckets), so a slot never mixes two
        #: wheel revolutions.
        self._buckets: list[list] = [[] for _ in range(self._nb)]
        #: heap of absolute indices of non-empty future buckets (each index
        #: appears at most once: pushed on the empty->non-empty transition,
        #: popped when the cursor reaches it)
        self._bucket_heap: list[int] = []
        self._wheel_count = 0  # entries currently held in _buckets
        #: absolute index of the bucket currently being drained
        self._cursor = int(self._now * self._scale)
        #: the current bucket's entries, sorted ascending; drained via
        #: _cur_pos instead of pop(0); popped slots are None-ed out
        self._cur: list = []
        self._cur_pos = 0
        #: heap of entries beyond the wheel horizon, migrated into buckets
        #: as the cursor advances
        self._overflow: list = []
        #: free list of processed Timeout objects (see Environment.timeout)
        self._timeout_pool: list = []
        #: when set to a list, step() appends (time, priority, eid) for every
        #: processed event — the order-digest hook used by the kernel bench and
        #: the wheel/heap parity tests
        self._pop_trace: Optional[list] = None

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention in this repo)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    def _pending_count(self) -> int:
        return (len(self._cur) - self._cur_pos) + self._wheel_count + len(self._overflow)

    def stats(self) -> dict:
        """Simulation-kernel counters for profiling scenario cost."""
        return {
            "now": self._now,
            "events_processed": self.events_processed,
            "processes_created": self.processes_created,
            "events_pending": self._pending_count(),
            "timeouts_recycled": self.timeouts_recycled,
        }

    # -- event construction ------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are the kernel's bulk commodity: recycle a processed
        # instance from the pool when one is available, and build the queue
        # entry inline instead of going through Timeout.__init__ ->
        # Event.__init__ -> _schedule — the per-call frame overhead is
        # measurable at 1M+ events (see repro.experiments.kernel_ablation).
        pool = self._timeout_pool
        if pool:
            t = pool.pop()
            self.timeouts_recycled += 1
        else:
            t = Timeout.__new__(Timeout)
            t.env = self
        t.callbacks = []
        t._value = value
        t._ok = True
        t._defused = False
        t._cancelled = False
        t.delay = delay
        self._eid += 1
        when = self._now + delay
        entry = (when, NORMAL, self._eid, t)
        idx = int(when * self._scale)
        cursor = self._cursor
        if idx <= cursor:
            insort(self._cur, entry, self._cur_pos)
        elif idx - cursor < self._nb:
            bucket = self._buckets[idx % self._nb]
            if not bucket:
                _heappush(self._bucket_heap, idx)
            bucket.append(entry)
            self._wheel_count += 1
        else:
            _heappush(self._overflow, entry)
        return t

    def timeout_batch(self, delays: Iterable[float], value: Any = None) -> list:
        """Create one :class:`Timeout` per delay in a single call.

        Arrival processes materialize whole invocation schedules up front
        (:func:`repro.faas.workload_gen.schedule_arrivals`).  This is the
        bulk-load path for those schedules: the whole batch runs in one
        Python frame with the wheel state held in locals, so per-timeout
        cost is a tuple build plus a bucket append.  Scheduling semantics
        are identical to calling :meth:`timeout` once per delay, in order —
        eids are assigned sequentially, so determinism is unaffected.
        """
        out: list = []
        append_out = out.append
        pool = self._timeout_pool
        new = Timeout.__new__
        eid = self._eid
        now = self._now
        scale = self._scale
        nb = self._nb
        buckets = self._buckets
        bheap = self._bucket_heap
        overflow = self._overflow
        # No callbacks run during the batch, so the cursor and the drain
        # position are fixed for its whole duration.
        cursor = self._cursor
        cur = self._cur
        cur_lo = self._cur_pos
        wheel_added = 0
        recycled = 0
        for delay in delays:
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            if pool:
                t = pool.pop()
                recycled += 1
            else:
                t = new(Timeout)
                t.env = self
            t.callbacks = []
            t._value = value
            t._ok = True
            t._defused = False
            t._cancelled = False
            t.delay = delay
            eid += 1
            when = now + delay
            entry = (when, NORMAL, eid, t)
            idx = int(when * scale)
            if idx <= cursor:
                insort(cur, entry, cur_lo)
            elif idx - cursor < nb:
                bucket = buckets[idx % nb]
                if not bucket:
                    _heappush(bheap, idx)
                bucket.append(entry)
                wheel_added += 1
            else:
                _heappush(overflow, entry)
            append_out(t)
        self._eid = eid
        self._wheel_count += wheel_added
        self.timeouts_recycled += recycled
        return out

    def process(self, generator: Generator, name: str = "") -> Process:
        self.processes_created += 1
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling / running ------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        self._eid += 1
        t = self._now + delay
        entry = (t, priority, self._eid, event)
        idx = int(t * self._scale)
        cursor = self._cursor
        if idx <= cursor:
            # Lands in (or before) the bucket being drained: merge-insert
            # into the remaining sorted run.  The low bound excludes only
            # already-popped entries, all of which order before this one
            # (their time is <= now <= t), so full (time, priority, eid)
            # order is preserved even for intra-bucket insertions.
            insort(self._cur, entry, self._cur_pos)
        elif idx - cursor < self._nb:
            bucket = self._buckets[idx % self._nb]
            if not bucket:
                _heappush(self._bucket_heap, idx)
            bucket.append(entry)
            self._wheel_count += 1
        else:
            _heappush(self._overflow, entry)

    def _advance(self) -> float:
        """Move the cursor to the next non-empty bucket.

        Called only when the current run is exhausted.  Returns the new
        head entry's time, or ``inf`` when nothing is scheduled.  Also
        migrates overflow entries that the advancing horizon now covers —
        the overflow heap therefore only ever holds entries strictly
        beyond every bucketed entry, which is what makes draining the
        wheel first always correct.
        """
        overflow = self._overflow
        bheap = self._bucket_heap
        buckets = self._buckets
        nb = self._nb
        scale = self._scale
        while True:
            horizon = self._cursor + nb
            while overflow and int(overflow[0][0] * scale) < horizon:
                entry = _heappop(overflow)
                idx = int(entry[0] * scale)
                bucket = buckets[idx % nb]
                if not bucket:
                    _heappush(bheap, idx)
                bucket.append(entry)
                self._wheel_count += 1
            if bheap:
                idx = _heappop(bheap)
                slot = idx % nb
                run = buckets[slot]
                buckets[slot] = []
                self._wheel_count -= len(run)
                run.sort()
                self._cur = run
                self._cur_pos = 0
                self._cursor = idx
                return run[0][0]
            if not overflow:
                self._cur = []
                self._cur_pos = 0
                return _INF
            # Wheel empty but far-future events exist: rebase the cursor to
            # the overflow head's bucket; the migration pass above will then
            # pull everything inside the new horizon into the wheel.
            self._cursor = int(overflow[0][0] * scale)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        cur = self._cur
        pos = self._cur_pos
        if pos < len(cur):
            return cur[pos][0]
        return self._advance()

    def step(self) -> None:
        """Process the next event; raises :class:`SimulationError` if empty."""
        cur = self._cur
        pos = self._cur_pos
        if pos >= len(cur):
            if self._advance() == _INF:
                raise SimulationError("no scheduled events")
            cur = self._cur
            pos = self._cur_pos
        when, priority, eid, event = cur[pos]
        # Drop the entry reference immediately: lingering (tuple -> event)
        # references would defeat the refcount-gated Timeout recycling below.
        cur[pos] = None
        pos += 1
        if pos >= _COMPACT_AT:
            del cur[:pos]
            pos = 0
        self._cur_pos = pos
        if event._cancelled:
            # Tombstone: drop silently, do not advance time.
            event.callbacks = None
            if type(event) is Timeout and getrefcount(event) == 2:
                pool = self._timeout_pool
                if len(pool) < _POOL_CAP:
                    event._value = None
                    pool.append(event)
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
            exc = event._value
            raise exc
        # Recycle the Timeout if nobody else holds a reference (waiters
        # drop theirs on resumption; conditions and user code that kept the
        # object keep it alive and the refcount gate skips it).
        if type(event) is Timeout and getrefcount(event) == 2:
            pool = self._timeout_pool
            if len(pool) < _POOL_CAP:
                event._value = None
                pool.append(event)

    def _run_core(self, deadline: float) -> None:
        """Hot loop: process events while the head is within ``deadline``.

        This is :meth:`step` inlined and specialized: the current sorted
        run is drained in a tight inner loop with everything in locals, and
        mutable kernel state (``_cur_pos``, ``events_processed``) is synced
        out only around user callbacks — the only code that can observe or
        mutate it mid-run.  Events with no subscribers (cancelled
        tombstones, fire-and-forget timeouts) never leave the inner loop.
        Semantics must stay identical to calling :meth:`step` in a loop —
        the wheel/heap parity tests exercise both paths.
        """
        if self._pop_trace is not None:
            self._run_core_traced(deadline)
            return
        advance = self._advance
        pool = self._timeout_pool
        processed = 0
        now = self._now
        # Pool headroom mirrored in a local: it only shrinks via appends in
        # this loop and only grows through user code, so it is recomputed at
        # the callback sync points and decremented on each append — no
        # len() call per event.
        room = _POOL_CAP - len(pool)
        try:
            while True:
                cur = self._cur
                pos = self._cur_pos
                n = len(cur)
                if pos >= n:
                    t = advance()
                    if t == _INF or t > deadline:  # inf > inf is False — check both
                        return
                    cur = self._cur
                    pos = 0
                    n = len(cur)
                while pos < n:
                    # Unpacking (rather than binding the entry tuple to a
                    # local) matters: together with the None-out below it
                    # leaves `event` as the only remaining reference, which
                    # is what the refcount-gated recycling tests for.
                    when, priority, eid, event = cur[pos]
                    if when > deadline:
                        self._cur_pos = pos
                        return
                    cur[pos] = None
                    pos += 1
                    if event._cancelled:
                        # Tombstone: drop silently, do not advance time.
                        event.callbacks = None
                        if (
                            room > 0
                            and type(event) is Timeout
                            and getrefcount(event) == 2
                        ):
                            event._value = None
                            pool.append(event)
                            room -= 1
                        continue
                    if when < now:
                        raise SimulationError("event scheduled in the past")
                    now = when
                    processed += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    if callbacks:
                        # Sync state out before user code runs: _schedule
                        # uses _cur_pos as the insort low bound, callbacks
                        # read env.now, and a callback may call
                        # peek()/stats()/step().
                        if pos >= _COMPACT_AT:
                            del cur[:pos]
                            pos = 0
                        self._cur_pos = pos
                        self._now = when
                        try:
                            for callback in callbacks:
                                callback(event)
                        finally:
                            # A callback may have advanced time via a nested
                            # step(); keep the local mirror honest even when
                            # the callback raises (the outer finally would
                            # otherwise roll _now back).
                            now = self._now
                        if not event._ok and not event._defused:
                            # Unhandled failure: abort the run loudly.
                            raise event._value
                        if (
                            type(event) is Timeout
                            and getrefcount(event) == 2
                            and len(pool) < _POOL_CAP
                        ):
                            event._value = None
                            pool.append(event)
                        # Callbacks may have inserted into the current run
                        # (shifting entries at >= _cur_pos), swapped _cur
                        # entirely via peek() on an exhausted run, or taken
                        # from / added to the pool via timeout().
                        cur = self._cur
                        pos = self._cur_pos
                        n = len(cur)
                        room = _POOL_CAP - len(pool)
                    else:
                        if not event._ok and not event._defused:
                            # Unhandled failure with no subscribers (e.g. a
                            # crashed process nobody joined): still aborts.
                            self._now = when
                            raise event._value
                        if (
                            room > 0
                            and type(event) is Timeout
                            and getrefcount(event) == 2
                        ):
                            # Fire-and-forget timeout with no subscribers:
                            # recycle without leaving the inner loop.
                            event._value = None
                            pool.append(event)
                            room -= 1
                self._cur_pos = pos
        finally:
            # `now` shadows self._now between callback sync points; flush it
            # on every exit (deadline return, drain, or exception).
            self._now = now
            self.events_processed += processed

    def _run_core_traced(self, deadline: float) -> None:
        """The :meth:`_run_core` loop with the ``_pop_trace`` hook live.

        One :meth:`step` per event — slower, but the order digest needs
        every ``(time, priority, eid)`` pop recorded, and benchmarks that
        trace ordering are measuring fidelity, not speed.
        """
        advance = self._advance
        step = self.step
        while True:
            cur = self._cur
            pos = self._cur_pos
            if pos < len(cur):
                if cur[pos][0] > deadline:
                    return
            else:
                t = advance()
                if t == _INF or t > deadline:  # inf > inf is False — check both
                    return
            step()

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or an event fires.

        * ``until`` is ``None``: run until no events remain.
        * ``until`` is a number: run until simulated time reaches it.
        * ``until`` is an :class:`Event`: run until it triggers and return
          its value (raising if it failed).
        """
        stop_event: Optional[Event] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:  # already processed
                if stop_event._ok:
                    return stop_event._value
                raise stop_event._value

            def _stop(event: Event) -> None:
                raise StopSimulation()

            stop_event.callbacks.append(_stop)
            deadline = _INF
        elif until is None:
            deadline = _INF
        else:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(f"until={deadline} is in the past (now={self._now})")

        try:
            self._run_core(deadline)
        except StopSimulation:
            assert stop_event is not None
            if stop_event._ok:
                return stop_event._value
            stop_event._defused = True
            raise stop_event._value from None

        if stop_event is not None and not stop_event.triggered:
            raise SimulationError(
                "run() ended before the awaited event triggered (deadlock?)"
            )
        if deadline != _INF:
            self._now = deadline
        return None
