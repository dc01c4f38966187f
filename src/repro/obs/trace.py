"""Span-based sim-time tracing with Chrome trace-event export.

Every invocation gets a *trace* (one ``trace_id``); layers along the way
open *spans* against it: the platform records the root ``invocation``
span and one child span per measured phase, the guest wraps each RPC
round trip (sync and async), the API server wraps execution of each
request, and the monitor records GPU-queue waits and migrations.
Point-in-time happenings (retries, crashes, batch flushes) are
*instants*.

The tracer is **bounded**: past ``max_spans`` records it stops storing
and counts what it dropped — it never drops silently (``dropped`` is
surfaced in :meth:`Tracer.summary` and in the exported JSON's
``otherData``).

Recording is pure bookkeeping over ``env.now`` — no events, no timeouts,
no RNG — so tracing never perturbs the simulated timeline.

Records are stored as flat rows, and :meth:`Tracer.emit` is the one
recording path: a record costs a span id, a sampler check when sampling
is on, and one tuple append.  Nothing reads records during a run, so the
:class:`SpanRecord` objects that queries return are built on first read
(:attr:`Tracer.records`), each replacing its row; counts, the Chrome
export, the digest and snapshots read rows and need no objects.

Export is the Chrome trace-event JSON object format (``traceEvents`` +
metadata), loadable in Perfetto or chrome://tracing.  Track names
(``pid``/``tid``) are strings internally and mapped to integers with
``process_name``/``thread_name`` metadata events on export; timestamps
are microseconds per the format spec.

**Distributed collection** (sharded runs, :mod:`repro.sim.shard`): a
tracer built with ``namespace=<shard_id>`` allocates span/trace ids from
its *own* counters offset into a per-namespace id block, so ids are
deterministic per shard (independent of what else traced in the
process) and collision-free across shards.  :meth:`Tracer.snapshot`
dumps the records as plain picklable tuples (mirroring
:meth:`repro.obs.metrics.MetricsRegistry.snapshot`) and
:meth:`Tracer.merge_snapshot` folds shard snapshots into one merged
tracer — optionally re-homing each shard's spans onto a prefixed
Perfetto process track.  :func:`trace_digest` is the canonical
content digest: records are stably sorted by timeline position and ids
renumbered by that order, so the digest is invariant to absolute
counter values — a 1-shard sharded run digests identically to a plain
single-process run of the same world.
"""

from __future__ import annotations

import itertools
import json
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.obs import sampling as _sampling

__all__ = [
    "NullSpan", "Span", "SpanRecord", "Tracer", "group_by_trace", "trace_digest",
]

_span_ids = itertools.count(1)
_trace_ids = itertools.count(1)

#: width of one namespace's id block: a namespaced tracer's ids live in
#: ``[namespace * 2**40, (namespace + 1) * 2**40)`` — far beyond any
#: realistic span count, so blocks never collide
_NAMESPACE_STRIDE = 1 << 40

#: snapshot wire-format version (bumped on layout changes)
_SNAPSHOT_VERSION = 1


#: one stored record, flat: ``(span_id, parent_id, trace_id, name, cat,
#: t_start, t_end, pid, tid, ph, arg_keys, arg_vals)``.  ``arg_keys`` is
#: usually a module-level constant tuple at the recording site, so a row
#: costs one tuple of values and one append.
_ARGS = 10  # index of arg_keys; arg_vals follows


@dataclass
class SpanRecord:
    """One completed span ("X") or instant ("i") event — the read-side
    view of a stored row (see :attr:`Tracer.records`)."""

    span_id: int
    parent_id: Optional[int]
    trace_id: Optional[int]
    name: str
    cat: str
    t_start: float
    t_end: float
    pid: str
    tid: str
    ph: str = "X"
    args: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start


def _row_record(row: tuple) -> SpanRecord:
    return SpanRecord(*row[:_ARGS], dict(zip(row[_ARGS], row[_ARGS + 1])))


def _record_row(r: SpanRecord) -> tuple:
    return (r.span_id, r.parent_id, r.trace_id, r.name, r.cat, r.t_start,
            r.t_end, r.pid, r.tid, r.ph, tuple(r.args), tuple(r.args.values()))


def _row_entry(row: tuple) -> tuple:
    """A row in snapshot wire form (args as a dict)."""
    return row[:_ARGS] + (dict(zip(row[_ARGS], row[_ARGS + 1])),)


class Span:
    """An open span; call :meth:`end` to record it."""

    __slots__ = (
        "tracer", "span_id", "parent_id", "trace_id",
        "name", "cat", "pid", "tid", "t_start", "arg_keys", "arg_vals",
        "_ended",
    )

    def __init__(self, tracer, name, cat, pid, tid, trace_id, parent_id,
                 t_start, arg_keys, arg_vals):
        self.tracer = tracer
        self.span_id = tracer._next_span_id()
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.cat = cat
        self.pid = pid
        self.tid = tid
        self.t_start = t_start
        self.arg_keys = arg_keys
        self.arg_vals = arg_vals
        self._ended = False

    def end(self, t_end: Optional[float] = None, **args) -> None:
        """Record the span, closing it at ``t_end`` (default: now)."""
        if self._ended:
            return
        self._ended = True
        tracer = self.tracer
        tracer._open.pop(self.span_id, None)
        keys, vals = self.arg_keys, self.arg_vals
        if args:
            merged = dict(zip(keys, vals))
            merged.update(args)
            keys, vals = tuple(merged), tuple(merged.values())
        tracer.emit(self.name, self.cat, self.t_start,
                    tracer.now if t_end is None else t_end, self.pid,
                    self.tid, self.trace_id, self.parent_id, "X", keys, vals,
                    self.span_id)

    def _row(self, t_end: float) -> tuple:
        """This still-open span as a synthetic row closing at ``t_end``,
        flagged ``"open": true``."""
        args = dict(zip(self.arg_keys, self.arg_vals))
        args["open"] = True
        return (self.span_id, self.parent_id, self.trace_id, self.name,
                self.cat, self.t_start, max(t_end, self.t_start), self.pid,
                self.tid, "X", tuple(args), tuple(args.values()))

    # -- children ---------------------------------------------------------------
    def child(self, name: str, cat: str = "span", **args) -> "Span":
        """Open a child span on the same track, starting now."""
        return self.tracer.begin(
            name, cat=cat, pid=self.pid, tid=self.tid,
            trace_id=self.trace_id, parent=self, **args,
        )

    def child_complete(self, name: str, t_start: float, t_end: float,
                       cat: str = "span", **args) -> None:
        """Record an already-finished child span (retroactive)."""
        self.tracer.complete(
            name, t_start, t_end, cat=cat, pid=self.pid, tid=self.tid,
            trace_id=self.trace_id, parent=self, **args,
        )

    def phase(self, name: str, seconds: float) -> None:
        """Record a phase that just finished (ending now) and took
        ``seconds`` — the shape ``Invocation.add_phase`` reports in."""
        now = self.tracer.now
        self.child_complete(name, now - seconds, now, cat="phase")

    def instant(self, name: str, **args) -> None:
        self.emit_instant(name, tuple(args), tuple(args.values()))

    def emit_instant(self, name: str, arg_keys: tuple, arg_vals: tuple) -> None:
        """:meth:`instant` with positional args, for per-token hot sites."""
        tracer = self.tracer
        now = tracer.now
        tracer.emit(name, "event", now, now, self.pid, self.tid,
                    self.trace_id, self.span_id, "i", arg_keys, arg_vals)


class NullSpan:
    """Span stand-in for a trace already *sampled out* (see
    :mod:`repro.obs.sampling`).

    Returned by :meth:`Tracer.begin` instead of a real :class:`Span` so
    child spans of an unsampled root are rejected at ``begin()`` — no
    Span allocation, no ``_open`` registration, no buffered record — yet
    call sites keep working unchanged.  Nothing is lost silently: every
    record the caller *would* have produced bumps the tracer's
    ``sampled_out`` counter (distinct from ``dropped``, which means the
    tracer ran out of span budget).
    """

    __slots__ = ("tracer", "trace_id", "span_id", "parent_id", "_ended")

    def __init__(self, tracer, trace_id):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = 0  # sentinel: never allocated, never a parent ref
        self.parent_id = None
        self._ended = False

    def end(self, t_end=None, **args) -> None:
        if self._ended:
            return
        self._ended = True
        self.tracer.sampled_out += 1

    def child(self, name, cat="span", **args) -> "NullSpan":
        return NullSpan(self.tracer, self.trace_id)

    def child_complete(self, name, t_start, t_end, cat="span", **args) -> None:
        self.tracer.sampled_out += 1

    def phase(self, name, seconds) -> None:
        self.tracer.sampled_out += 1

    def instant(self, name, **args) -> None:
        self.tracer.sampled_out += 1

    def emit_instant(self, name, arg_keys, arg_vals) -> None:
        self.tracer.sampled_out += 1


class Tracer:
    """Bounded collector of spans across the whole deployment.

    Recording appends one flat row per record (:meth:`emit`); the
    :class:`SpanRecord` objects that queries hand out are built from the
    rows on first read and kept in their place (:attr:`records`), while
    counts and exports read rows and build no objects.

    ``namespace`` (optional) switches id allocation from the process-wide
    counters to tracer-local counters offset by ``namespace * 2**40``:
    shard workers use their shard id, so every shard's ids are
    deterministic and globally unique in the merged trace.  ``env`` may
    be ``None`` for a merge-target tracer that only aggregates snapshots
    (its clock tracks the latest merged ``t_end``).
    """

    def __init__(self, env, max_spans: int = 250_000,
                 namespace: Optional[int] = None,
                 sampler: Optional["_sampling.TraceSampler"] = None):
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        if namespace is not None and namespace < 0:
            raise ValueError("namespace must be non-negative")
        self.env = env
        self.max_spans = max_spans
        self.namespace = namespace
        self._merged_now = 0.0
        if namespace is not None:
            base = namespace * _NAMESPACE_STRIDE
            span_counter = itertools.count(base + 1)
            self._trace_counter = itertools.count(base + 1)
        else:
            span_counter = _span_ids
            self._trace_counter = _trace_ids
        self._next_span_id = span_counter.__next__
        #: the store, in record order: records already read back as
        #: SpanRecords, then the rows recorded since (layout: ``_ARGS``).
        #: Each record lives in one form only.
        self._records: list[SpanRecord] = []
        self._rows: list[tuple] = []
        #: records discarded because the tracer was full — never silent:
        #: surfaced in summary() and the exported JSON
        self.dropped = 0
        #: records discarded because their trace was sampled out — a
        #: deliberate sampling decision, counted separately from the
        #: budget-exhaustion ``dropped`` (satellite contract: no silent
        #: loss, and the two causes are never conflated)
        self.sampled_out = 0
        #: span_id -> Span handles begun but not yet ended.  Export closes
        #: them synthetically at ``env.now`` with an ``"open": true`` flag
        #: instead of dropping them from the JSON.
        self._open: dict[int, Span] = {}
        #: optional head+tail sampling policy; None means keep everything
        #: (the pre-sampling behaviour, byte-for-byte)
        self._sampler = sampler
        #: trace_id -> buffered rows of a still-*pending* trace (head-
        #: rejected, tail fate unknown).  Buffered rows count against
        #: ``max_spans`` so sampling never grows memory past the budget.
        self._pending_buf: dict[int, list[tuple]] = {}
        self._pending_count = 0
        #: merge-target only: (trace_id, record-tuple) pairs shipped by
        #: shard snapshots for traces homed on *other* shards, resolved
        #: against the merged kept set by :meth:`resolve_foreign`
        self._foreign_stash: list[tuple] = []
        #: per-shard sampler summaries folded in via merge_snapshot — a
        #: merged tracer has no sampler of its own but still reports the
        #: fleet's aggregate sampling stats
        self._merged_sampling: list[dict] = []

    @property
    def now(self) -> float:
        if self.env is None:
            return self._merged_now
        return self.env.now

    def new_trace_id(self) -> int:
        return next(self._trace_counter)

    # -- recording --------------------------------------------------------------
    def begin(self, name: str, cat: str = "span", pid: str = "sim",
              tid: str = "main", trace_id: Optional[int] = None,
              parent: Optional[Span] = None, t_start: Optional[float] = None,
              **args) -> Span:
        """Open a span starting now (or at ``t_start``).

        For a trace already sampled *out*, returns a :class:`NullSpan`
        — the cheap rejection path: no allocation beyond the stub, no
        ``_open`` bookkeeping, and every downstream record counts as
        ``sampled_out``.
        """
        parent_id = None
        if parent is not None:
            parent_id = parent.span_id
            if trace_id is None:
                trace_id = parent.trace_id
        return self.start_span(name, cat, pid, tid, trace_id, parent_id,
                               self.now if t_start is None else t_start,
                               tuple(args), tuple(args.values()))

    def start_span(self, name: str, cat: str, pid: str, tid: str,
                   trace_id: Optional[int], parent_id: Optional[int],
                   t_start: float, arg_keys: tuple = (),
                   arg_vals: tuple = ()) -> Span:
        """:meth:`begin` with positional fields and args."""
        if (self._sampler is not None
                and self._sampler.state(trace_id) == _sampling.OUT):
            return NullSpan(self, trace_id)
        span = Span(self, name, cat, pid, tid, trace_id, parent_id, t_start,
                    arg_keys, arg_vals)
        self._open[span.span_id] = span
        return span

    def complete(self, name: str, t_start: float, t_end: float,
                 cat: str = "span", pid: str = "sim", tid: str = "main",
                 trace_id: Optional[int] = None,
                 parent: Optional[Span] = None,
                 parent_id: Optional[int] = None, **args) -> None:
        """Record an already-finished span in one shot.

        ``parent`` takes a :class:`Span` handle; layers that only carry the
        propagated ``(trace_id, span_id)`` wire context (e.g. the API
        server) pass the raw ``parent_id`` instead.
        """
        if parent is not None:
            parent_id = parent.span_id
            if trace_id is None:
                trace_id = parent.trace_id
        self.emit(name, cat, t_start, t_end, pid, tid, trace_id, parent_id,
                  "X", tuple(args), tuple(args.values()))

    def instant(self, name: str, cat: str = "event", pid: str = "sim",
                tid: str = "main", trace_id: Optional[int] = None,
                parent: Optional[Span] = None,
                parent_id: Optional[int] = None, **args) -> None:
        """Record a point-in-time event (retry, crash, flush, ...)."""
        if parent is not None:
            parent_id = parent.span_id
            if trace_id is None:
                trace_id = parent.trace_id
        now = self.now
        self.emit(name, cat, now, now, pid, tid, trace_id, parent_id, "i",
                  tuple(args), tuple(args.values()))

    def emit(self, name: str, cat: str, t_start: float, t_end: float,
             pid: str, tid: str, trace_id: Optional[int],
             parent_id: Optional[int], ph: str = "X", arg_keys: tuple = (),
             arg_vals: tuple = (), span_id: Optional[int] = None) -> None:
        """Record one span or instant: the single recording path.

        ``arg_keys``/``arg_vals`` are the record's args as parallel
        tuples.  ``span_id`` is passed only by a :class:`Span` closing
        (its id was taken at ``begin``); otherwise a fresh id is taken
        here — also for a record that is then dropped or sampled out, so
        the ids of kept records never depend on what was discarded.
        """
        if span_id is None:
            span_id = self._next_span_id()
        sampler = self._sampler
        if sampler is None:
            rows = self._rows
            if len(rows) + len(self._records) >= self.max_spans:
                self.dropped += 1
                return
            rows.append((span_id, parent_id, trace_id, name, cat, t_start,
                         t_end, pid, tid, ph, arg_keys, arg_vals))
            return
        state = None
        if trace_id is not None:
            if ph == "X" and cat == "invocation":
                # A closing root invocation span is the sampler's tail-rule
                # hook: non-completed status keeps the trace, and every
                # root end advances latency-champion + retention
                # bookkeeping (all in sim-time order, so decisions are
                # deterministic and layout-invariant).
                status = (arg_vals[arg_keys.index("status")]
                          if "status" in arg_keys else "completed")
                self._apply_resolutions(sampler.on_root_end(
                    trace_id, t_start, t_end, str(status)))
            state = sampler.state(trace_id)
            if state == _sampling.OUT:
                self.sampled_out += 1
                return
        if self.n_records + self._pending_count >= self.max_spans:
            self.dropped += 1
            return
        row = (span_id, parent_id, trace_id, name, cat, t_start, t_end,
               pid, tid, ph, arg_keys, arg_vals)
        if state in (_sampling.PENDING, _sampling.FOREIGN_PENDING):
            self._pending_buf.setdefault(trace_id, []).append(row)
            self._pending_count += 1
            if state == _sampling.PENDING:
                # eager tail-keep on interesting names (preemption, crash
                # requeue, RPC retry) — promotes the whole buffered trace
                self._apply_resolutions(sampler.note_record(trace_id, name))
            return
        self._rows.append(row)  # kept, or not subject to sampling

    def _apply_resolutions(self, resolutions) -> None:
        """Apply sampler verdicts: flush a kept trace's buffered rows into
        the store, or discard a sampled-out trace's buffer (counted, never
        silent)."""
        for trace_id, kept, _reason in resolutions:
            buf = self._pending_buf.pop(trace_id, None)
            if buf is None:
                continue
            self._pending_count -= len(buf)
            if kept:
                self._rows.extend(buf)
            else:
                self.sampled_out += len(buf)

    # -- sampling ---------------------------------------------------------------
    def sample_root(self, trace_id: Optional[int], key=None, scope: str = "",
                    workload: str = "", t_start: Optional[float] = None) -> bool:
        """Head-sample a new root trace; True when head-kept.

        Call once per root trace *before* opening its root span.  ``key``
        must be stable across reruns and shard layouts (scope + workload
        + per-platform arrival index); without a sampler every trace is
        kept and this is a no-op.
        """
        if self._sampler is None or trace_id is None:
            return True
        return self._sampler.register(
            trace_id, key=key, scope=scope, workload=workload,
            t_start=self.now if t_start is None else t_start,
        )

    def register_foreign(self, trace_id: Optional[int], sampled: bool) -> None:
        """Adopt a remote shard's head decision carried on the wire."""
        if self._sampler is not None and trace_id is not None:
            self._sampler.register_foreign(trace_id, sampled)

    def note_alert(self, t: float, scope: str = "",
                   exemplar_trace_ids=()) -> None:
        """An SLO alert fired: tail-keep the overlapping pending traces."""
        if self._sampler is not None:
            self._apply_resolutions(self._sampler.note_alert(
                t, scope=scope, exemplar_trace_ids=exemplar_trace_ids))

    def keep_trace(self, trace_id: int, reason: str = "forced") -> None:
        """Unconditionally keep one pending trace (debug / ad-hoc rules)."""
        if self._sampler is not None:
            self._apply_resolutions(self._sampler.force_keep(trace_id, reason))

    def finalize_sampling(self) -> None:
        """Resolve every still-pending local trace (champions kept, the
        rest sampled out).  Idempotent; called automatically by every
        export/query entry point, so callers only need it explicitly when
        inspecting ``records`` raw mid-run."""
        if self._sampler is not None:
            self._apply_resolutions(self._sampler.finalize())

    def _wire_sampled(self, trace_id: Optional[int]) -> Optional[bool]:
        """The sampled flag to propagate on an envelope for ``trace_id``:
        True = kept, False = pending/out (receiver buffers as foreign),
        None = no sampler, don't extend the wire tuple."""
        if self._sampler is None or trace_id is None:
            return None
        return self._sampler.state(trace_id) in (None, _sampling.KEPT)

    # -- queries ----------------------------------------------------------------
    @property
    def records(self) -> list[SpanRecord]:
        """Every stored record as a :class:`SpanRecord`, in record order.

        Built from the rows on read; each row is released as its record
        is built, and a later read only builds what was recorded since.
        The list is the tracer's store: read it, do not mutate it.
        """
        built, rows = self._records, self._rows
        if rows:
            rows.reverse()
            pop, add = rows.pop, built.append
            while rows:
                add(_row_record(pop()))
        return built

    @property
    def n_records(self) -> int:
        """Stored records, counted without building them."""
        return len(self._records) + len(self._rows)

    def _stored_rows(self):
        """Every stored record in row form, in record order (records
        already built are read back one at a time)."""
        return itertools.chain(map(_record_row, self._records), self._rows)

    def spans(self, cat: Optional[str] = None) -> list[SpanRecord]:
        self.finalize_sampling()
        if cat is None:
            return [r for r in self.records if r.ph == "X"]
        return [r for r in self.records if r.ph == "X" and r.cat == cat]

    def instants(self, name: Optional[str] = None) -> list[SpanRecord]:
        self.finalize_sampling()
        if name is None:
            return [r for r in self.records if r.ph == "i"]
        return [r for r in self.records if r.ph == "i" and r.name == name]

    def by_trace(self) -> dict[int, list[SpanRecord]]:
        self.finalize_sampling()
        return group_by_trace(self.records)

    @property
    def open_spans(self) -> int:
        """Spans begun but not yet ended (live invocations, in-flight RPC)."""
        return len(self._open)

    def _open_rows(self) -> list[tuple]:
        """Synthetic closed rows for still-open spans, ending now.

        Export-only views — nothing is stored, the spans stay open and
        their eventual real :meth:`Span.end` records normally.
        """
        now = self.now
        rows = []
        sampler = self._sampler
        for span in sorted(self._open.values(), key=lambda s: s.span_id):
            if sampler is not None and sampler.state(span.trace_id) in (
                    _sampling.OUT, _sampling.FOREIGN_PENDING):
                # out: decided against; foreign: shipped separately in the
                # snapshot for post-merge resolution (never exported here)
                continue
            rows.append(span._row(now))
        return rows

    def summary(self) -> dict:
        self.finalize_sampling()
        built, rows = self._records, self._rows
        phases = Counter(itertools.chain((r.ph for r in built),
                                         (row[9] for row in rows)))
        traces = {r.trace_id for r in built} | {row[2] for row in rows}
        out = {
            "spans": phases["X"],
            "instants": phases["i"],
            "traces": len(traces - {None}),
            "dropped": self.dropped,
            "sampled_out": self.sampled_out,
            "open_spans": self.open_spans,
            "max_spans": self.max_spans,
        }
        if self._sampler is not None:
            out["sampling"] = self._sampler.summary()
        elif self._merged_sampling:
            agg = {"rate": self._merged_sampling[0]["rate"], "head_kept": 0,
                   "tail_kept": {}, "out_traces": 0, "pending": 0,
                   "foreign_pending": 0, "late_keeps": 0}
            for s in self._merged_sampling:
                for key in ("head_kept", "out_traces", "pending",
                            "foreign_pending", "late_keeps"):
                    agg[key] += s.get(key, 0)
                for reason, n in s.get("tail_kept", {}).items():
                    agg["tail_kept"][reason] = agg["tail_kept"].get(reason, 0) + n
            agg["tail_kept"] = dict(sorted(agg["tail_kept"].items()))
            out["sampling"] = agg
        return out

    # -- export -----------------------------------------------------------------
    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (object format) for Perfetto.

        Spans still open at export time are emitted with a synthetic end
        at ``env.now`` and an ``"open": true`` flag — a mid-run export
        never silently omits in-flight work.
        """
        self.finalize_sampling()
        pids: dict[str, int] = {}
        tids: dict[tuple[str, str], int] = {}
        events: list[dict] = []
        for (span_id, parent_id, trace_id, name, cat, t_start, t_end, pid,
             tid, ph, keys, vals) in itertools.chain(self._stored_rows(),
                                                     self._open_rows()):
            if pid not in pids:
                pids[pid] = len(pids) + 1
                events.append({
                    "ph": "M", "name": "process_name", "pid": pids[pid],
                    "tid": 0, "args": {"name": pid},
                })
            track = (pid, tid)
            if track not in tids:
                tids[track] = len(tids) + 1
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pids[pid],
                    "tid": tids[track], "args": {"name": tid},
                })
            args = dict(zip(keys, vals))
            if trace_id is not None:
                args["trace_id"] = trace_id
            args["span_id"] = span_id
            if parent_id is not None:
                args["parent_id"] = parent_id
            event = {
                "name": name,
                "cat": cat,
                "ph": ph,
                "ts": t_start * 1e6,
                "pid": pids[pid],
                "tid": tids[track],
                "args": args,
            }
            if ph == "X":
                event["dur"] = (t_end - t_start) * 1e6
            else:
                event["s"] = "t"
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs",
                "clock": "sim-seconds",
                "dropped": self.dropped,
                "sampled_out": self.sampled_out,
                "open_spans": self.open_spans,
            },
        }

    def dump_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

    def digest(self) -> int:
        """Canonical content digest (see :func:`trace_digest`), including
        synthetic closes for still-open spans — exactly what a shard
        snapshot ships, so plain-run and merged digests are comparable."""
        self.finalize_sampling()
        return _digest_rows(itertools.chain(self._stored_rows(),
                                            self._open_rows()))

    # -- cross-process collection ------------------------------------------------
    def snapshot(self) -> dict:
        """A picklable dump of every record, for shipping a shard's spans
        back to the coordinator (see :mod:`repro.sim.shard`).

        Kept intentionally plain (nested tuples/lists of primitives) so it
        survives ``multiprocessing`` pipes without custom reducers.  Spans
        still open at snapshot time are included with a synthetic end at
        ``now`` and an ``"open": true`` arg — a shard harvest never
        silently omits in-flight work.
        """
        self.finalize_sampling()
        records = [_row_entry(row) for row in itertools.chain(
            self._stored_rows(), self._open_rows())]
        snap = {
            "version": _SNAPSHOT_VERSION,
            "namespace": self.namespace,
            "max_spans": self.max_spans,
            "dropped": self.dropped,
            "open_spans": self.open_spans,
            "records": records,
        }
        if self._sampler is not None:
            # Traces homed on another shard whose head decision said
            # "pending": their records ride home as (trace_id, record)
            # pairs for the coordinator to resolve against the merged
            # kept set.  Optional keys — absent for unsampled tracers, so
            # the snapshot wire format is unchanged at rate 1.0.
            foreign = [(tid, _row_entry(row))
                       for tid, buf in self._pending_buf.items()
                       for row in buf]
            now = self.now
            for span in sorted(self._open.values(), key=lambda s: s.span_id):
                if self._sampler.state(span.trace_id) == _sampling.FOREIGN_PENDING:
                    foreign.append((span.trace_id, _row_entry(span._row(now))))
            snap["sampled_out"] = self.sampled_out
            snap["foreign"] = foreign
            snap["sampling"] = self._sampler.summary()
        return snap

    def merge_snapshot(self, snapshot: dict,
                       track_prefix: Optional[str] = None) -> int:
        """Fold a :meth:`snapshot` into this tracer; returns records added.

        ``track_prefix`` (e.g. ``"shard2/"``) re-homes the snapshot's
        spans onto prefixed Perfetto process tracks, so a merged export
        shows one process group per shard.  Records are appended in
        snapshot order; merging shard snapshots in shard order keeps the
        merged record sequence — and therefore :func:`trace_digest` —
        deterministic.  Dropped counts accumulate; records past this
        tracer's ``max_spans`` are counted dropped, never lost silently.
        """
        if not isinstance(snapshot, dict) or "records" not in snapshot:
            raise ValueError(f"bad tracer snapshot: {type(snapshot).__name__}")
        version = snapshot.get("version")
        if version != _SNAPSHOT_VERSION:
            raise ValueError(
                f"tracer snapshot version {version!r} is not supported "
                f"(expected {_SNAPSHOT_VERSION})"
            )
        added = 0
        self.dropped += snapshot.get("dropped", 0)
        self.sampled_out += snapshot.get("sampled_out", 0)
        if snapshot.get("sampling") is not None:
            self._merged_sampling.append(snapshot["sampling"])
        for entry in snapshot["records"]:
            if track_prefix:
                entry = list(entry)
                entry[7] = f"{track_prefix}{entry[7]}"
            self._emit_entry(entry)
            added += 1
            t_end = entry[6]
            if t_end > self._merged_now:
                self._merged_now = t_end
        for foreign_trace, entry in snapshot.get("foreign", ()):
            if track_prefix:
                entry = list(entry)
                entry[7] = f"{track_prefix}{entry[7]}"
                entry = tuple(entry)
            self._foreign_stash.append((foreign_trace, entry))
        return added

    def resolve_foreign(self) -> int:
        """Resolve snapshot-shipped foreign records against the merged
        kept set; returns records adopted.

        A foreign record belongs to a trace homed on another shard; that
        home shard's tail rules decided its fate, and a kept trace always
        ships at least its root record — so after merging every shard,
        membership of the trace id in ``records`` *is* the decision.
        Rejected records count as ``sampled_out``, matching what the
        single-shard run of the same world counts when it discards the
        same buffers locally.
        """
        if not self._foreign_stash:
            return 0
        kept = {row[2] for row in self._stored_rows()} - {None}
        added = 0
        for trace_id, entry in self._foreign_stash:
            if trace_id in kept:
                self._emit_entry(entry)
                added += 1
                t_end = entry[6]
                if t_end > self._merged_now:
                    self._merged_now = t_end
            else:
                self.sampled_out += 1
        self._foreign_stash.clear()
        return added

    def _emit_entry(self, entry) -> None:
        """Record one snapshot-form entry under its original span id."""
        (span_id, parent_id, trace_id, name, cat,
         t_start, t_end, pid, tid, ph, args) = entry
        self.emit(name, cat, t_start, t_end, pid, tid, trace_id, parent_id,
                  ph, tuple(args), tuple(args.values()), span_id)


def group_by_trace(records) -> dict[int, list[SpanRecord]]:
    """Group span records by trace id, in record order; untraced records
    (``trace_id`` None) are left out."""
    out: dict[int, list[SpanRecord]] = {}
    for r in records:
        if r.trace_id is not None:
            out.setdefault(r.trace_id, []).append(r)
    return out


def trace_digest(records) -> int:
    """CRC32 content digest of a record list, invariant to absolute ids.

    Records are stably sorted by timeline position (start, end, track,
    category, name, phase, canonical args) and span/trace ids renumbered
    by first appearance in that order, so two runs recording the *same
    spans* digest identically even when their id counters differ — the
    bar that makes a 1-shard sharded run comparable to a plain run.  A
    parent id pointing outside the record set canonicalizes to ``-1``.
    """
    return _digest_rows([_record_row(r) for r in records])


def _digest_rows(rows) -> int:
    """:func:`trace_digest` over stored rows."""
    keyed = []
    for row in rows:
        args = dict(zip(row[_ARGS], row[_ARGS + 1]))
        # (start, end, pid, tid, cat, name, ph, canonical args)
        keyed.append(((row[5], row[6], row[7], row[8], row[4], row[3],
                       row[9], json.dumps(args, sort_keys=True, default=str)),
                      row, args))
    keyed.sort(key=lambda k: k[0])
    span_index = {row[0]: i for i, (_, row, _) in enumerate(keyed)}
    trace_index: dict[int, int] = {}
    crc = 0
    for i, (_, row, args) in enumerate(keyed):
        (span_id, parent_id, trace_id, name, cat, t_start, t_end, pid, tid,
         ph) = row[:_ARGS]
        if trace_id is None:
            trace = None
        else:
            trace = trace_index.setdefault(trace_id, len(trace_index))
        parent = (None if parent_id is None
                  else span_index.get(parent_id, -1))
        line = json.dumps(
            [i, parent, trace, name, cat, t_start, t_end,
             pid, tid, ph, args],
            sort_keys=True, separators=(",", ":"), default=str,
        )
        crc = zlib.crc32(line.encode(), crc)
    return crc
