"""Critical-path extraction and latency attribution over span trees.

The tracer records every invocation as a tree of spans: a platform root
(``invocation:*``) with retroactive ``phase`` children, guest ``rpc:*``
round trips, the ``gpu_request`` queue span, net ``xfer:*`` transfers and
API-server ``srv:*`` execution spans stitched in via the propagated wire
context.  Because a function invocation is one logical thread, its
critical path is the *innermost* span covering each instant of the root's
wall time; this module sweeps the tree to produce:

* :func:`critical_path` — the ordered list of :class:`PathSegment`\\ s
  (time interval, covering span stack, attributed bucket) for one
  invocation's trace,
* :func:`invocation_critpaths` — one attribution row per invocation:
  seconds per bucket, the dominant bucket, coverage (fraction of root
  wall time explained by non-root spans; the acceptance bar is >= 95%),
  and the RPC call mix under the invocation,
* :func:`call_mix` — the guest's API call stream per (api, route): how
  many calls were localized, batched, async-forwarded or remoted, and
  the sim time they took (the §V-C view the remoting optimizations were
  designed from),
* :func:`aggregate_critpaths` + :func:`bottleneck_table` — mean/p50/p95/
  p99 per bucket, overall and per workload, and "top bottleneck by
  workload x percentile" rollups,
* :func:`folded_stacks` / :func:`dump_folded` — a folded flamegraph
  export (``stack;frames;joined value``) loadable in speedscope or
  FlameGraph's ``flamegraph.pl``.

Everything here is offline analysis over an existing tracer (or records
already grouped by trace, e.g. a flight bundle's) — it reads records and
never touches the simulation.

The sweep runs at one of two :class:`Level`\\ s, passed as an argument:

:data:`RESOURCE_LEVEL` (the default) sweeps every span category and
buckets each instant by the contended resource:

====================  =================  =================================
span                  resource           meaning
====================  =================  =================================
``platform_queue``    ``queue``          waiting for a warm container
``gpu_queue`` phase / ``queue``          §V-A ① waiting for an API server
``gpu_request``
``download`` phase    ``object_store``   S3 GET (or cache staging)
``xfer:*``            ``wire``           NIC serialization + propagation
``srv:*``             ``gpu_compute``    API-server execution (exec-lock
                                         wait + CUDA work)
``rpc:*`` remainder   ``serialization``  client-side marshal/stack time
                                         not inside a nested xfer/srv span
everything else       ``cpu``            guest-local compute
====================  =================  =================================

:data:`PHASE_LEVEL` sweeps only the ``invocation`` root and its
``phase`` spans and buckets each instant by the covering phase's name
(``platform_queue``, ``download``, ``cuda_init``, ``gpu_queue``,
``model_load``, ``processing``, ...) — the paper's latency breakdown.
Root-only instants belong to no phase.  Because each instant lands in
exactly one bucket, overlapping phases are never counted twice, so
phase-level coverage never exceeds 1 and never exceeds resource-level
coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from repro.obs.metrics import percentile

__all__ = [
    "RESOURCES",
    "Level",
    "RESOURCE_LEVEL",
    "PHASE_LEVEL",
    "PathSegment",
    "resource_of",
    "critical_path",
    "call_mix",
    "invocation_critpaths",
    "aggregate_critpaths",
    "bottleneck_table",
    "folded_stacks",
    "dump_folded",
    "critpath_report",
]

#: every resource bucket attribution can land in
RESOURCES = ("queue", "wire", "serialization", "gpu_compute", "object_store", "cpu")

_CAT_RESOURCE = {
    "queue": "queue",
    "rpc": "serialization",
    "net": "wire",
    "server": "gpu_compute",
}

_PHASE_RESOURCE = {
    "platform_queue": "queue",
    "gpu_queue": "queue",
    "download": "object_store",
}


def resource_of(record) -> str:
    """The resource bucket a span's *own* time is attributed to."""
    if record.cat == "phase":
        return _PHASE_RESOURCE.get(record.name, "cpu")
    return _CAT_RESOURCE.get(record.cat, "cpu")


class Level(NamedTuple):
    """What a sweep attributes time to."""

    #: row/aggregate key the bucket seconds are reported under
    key: str
    #: how coverage violations name the level
    name: str
    #: span category -> nesting depth; higher = more specific, unlisted
    #: categories are ignored.  Categories share the root's trace but (by
    #: construction of the wire context) may all parent directly under the
    #: root, so category priority — not parent pointers — encodes the
    #: physical nesting: an ``srv:*`` span inside an ``rpc:*`` span inside
    #: a ``processing`` phase wins the instant.
    depth: dict
    #: innermost covering span -> the bucket its time lands in (None:
    #: unattributed)
    bucket: Callable
    #: buckets every row reports, zero-filled, in tie-break order
    buckets: tuple = ()


RESOURCE_LEVEL = Level(
    key="resources",
    name="critical-path",
    depth={"invocation": 0, "phase": 1, "queue": 2, "rpc": 3, "net": 4,
           "server": 5},
    bucket=resource_of,
    buckets=RESOURCES,
)

def _phase_of(record) -> Optional[str]:
    return record.name if record.cat == "phase" else None


PHASE_LEVEL = Level(
    key="phases",
    name="phase",
    depth={"invocation": 0, "phase": 1},
    bucket=_phase_of,
)


@dataclass
class PathSegment:
    """One interval of an invocation's critical path."""

    t_start: float
    t_end: float
    #: the level's bucket for the innermost covering span
    resource: Optional[str]
    #: covering span names, outermost (the invocation root) first
    stack: tuple

    @property
    def duration_s(self) -> float:
        return self.t_end - self.t_start


def _find_root(records):
    for r in records:
        if r.ph == "X" and r.cat == "invocation":
            return r
    return None


def _select(traces, invocations):
    """``(trace_id, records, invocation-or-None)`` in report order.

    ``traces`` is a :class:`~repro.obs.trace.Tracer` or an already
    grouped ``{trace_id: records}`` mapping (see
    :func:`~repro.obs.trace.group_by_trace`).  ``invocations`` restricts
    and orders the result via each one's ``trace_id``; untraced ones are
    skipped.  Without it every trace is returned, by id.
    """
    by_trace = traces if isinstance(traces, dict) else traces.by_trace()
    if invocations is None:
        return [(tid, by_trace[tid], None) for tid in sorted(by_trace)]
    return [(inv.trace_id, by_trace[inv.trace_id], inv) for inv in invocations
            if getattr(inv, "trace_id", None) in by_trace]


def critical_path(records, root=None,
                  level: Level = RESOURCE_LEVEL) -> list[PathSegment]:
    """Sweep one trace's spans into ordered critical-path segments.

    ``records`` is one trace's record list (e.g. a value of
    ``tracer.by_trace()``); ``root`` defaults to its ``invocation`` span.
    Spans are clipped to the root's extent (post-completion teardown RPC
    belongs to the platform, not the function), then a boundary sweep
    assigns every instant to the innermost active span by the level's
    category depth (ties: latest start, then span id — the most recently
    opened wins).  Adjacent segments with the same stack are merged.
    """
    root = root or _find_root(records)
    if root is None or root.t_end <= root.t_start:
        return []
    cat_depth = level.depth
    spans = []
    for r in records:
        if r.ph != "X" or r.cat not in cat_depth or r is root:
            continue
        lo = max(r.t_start, root.t_start)
        hi = min(r.t_end, root.t_end)
        if hi > lo:
            spans.append((lo, hi, r))
    # boundary sweep: at each boundary, close spans ending there, open
    # spans starting there, then emit one segment up to the next boundary
    starts_at: dict[float, list] = {}
    ends_at: dict[float, list] = {}
    for lo, hi, r in spans:
        starts_at.setdefault(lo, []).append(r)
        ends_at.setdefault(hi, []).append(r)
    boundaries = sorted(
        {root.t_start, root.t_end} | set(starts_at) | set(ends_at)
    )
    active: dict[int, dict[int, object]] = {}  # depth -> {span_id: record}
    segments: list[PathSegment] = []
    for i, t in enumerate(boundaries[:-1]):
        for r in ends_at.get(t, ()):
            depth_set = active.get(cat_depth[r.cat])
            if depth_set is not None:
                depth_set.pop(r.span_id, None)
        for r in starts_at.get(t, ()):
            active.setdefault(cat_depth[r.cat], {})[r.span_id] = r
        t_next = boundaries[i + 1]
        stack = [root.name]
        innermost = root
        for depth in sorted(active):
            layer = active[depth]
            if not layer:
                continue
            best = max(layer.values(), key=lambda r: (r.t_start, r.span_id))
            stack.append(best.name)
            innermost = best
        seg = PathSegment(t, t_next, level.bucket(innermost), tuple(stack))
        if segments and segments[-1].stack == seg.stack \
                and segments[-1].t_end == seg.t_start:
            segments[-1] = PathSegment(
                segments[-1].t_start, seg.t_end, seg.resource, seg.stack
            )
        else:
            segments.append(seg)
    return segments


def call_mix(records) -> dict[tuple[str, str], tuple[int, float]]:
    """Per ``(api, route)``: ``(calls, summed sim seconds)``.

    ``route`` is ``local`` or ``batched`` for the guest's ``call`` spans
    and ``async`` or ``remote`` for its ``rpc:*`` spans (``route=async``
    vs ``route=sync``).  ``records`` is any record list, e.g. one trace's
    or a whole tracer's ``records``: spans without a trace id (a guest
    with no invocation root) count too.  Keys appear in first-seen order.
    """
    mix: dict[tuple[str, str], tuple[int, float]] = {}
    for r in records:
        if r.ph != "X":
            continue
        if r.cat == "call":
            key = (r.name, r.args["route"])
        elif r.cat == "rpc":
            key = (r.name.removeprefix("rpc:"),
                   "async" if r.args.get("route") == "async" else "remote")
        else:
            continue
        calls, seconds = mix.get(key, (0, 0.0))
        mix[key] = (calls + 1, seconds + r.duration_s)
    return mix


def invocation_critpaths(traces, invocations=None,
                         level: Level = RESOURCE_LEVEL) -> list[dict]:
    """One attribution row per root ``invocation`` span.

    ``traces`` is a tracer or a ``{trace_id: records}`` mapping;
    ``invocations`` (optional) restricts/orders the rows to the given
    :class:`~repro.faas.platform.Invocation` records via their
    ``trace_id`` and cross-checks each root span against the
    invocation's measured ``e2e_s``.  Bucket seconds land under
    ``row[level.key]``.
    """
    rows = []
    for trace_id, records, inv in _select(traces, invocations):
        root = _find_root(records)
        if root is None:
            continue
        segments = critical_path(records, root, level)
        buckets = dict.fromkeys(level.buckets, 0.0)
        covered = 0.0
        for seg in segments:
            if seg.resource is not None:
                buckets[seg.resource] = buckets.get(seg.resource, 0.0) \
                    + seg.duration_s
            if len(seg.stack) > 1:
                covered += seg.duration_s
        rpc_mix: dict[str, int] = {}
        rpc_time = 0.0
        for (api, route), (calls, seconds) in call_mix(records).items():
            if route in ("async", "remote"):
                name = "rpc:" + api
                rpc_mix[name] = rpc_mix.get(name, 0) + calls
                rpc_time += seconds
        duration = root.duration_s
        dominant = max(buckets, key=buckets.get, default=None)
        row = {
            "trace_id": trace_id,
            "invocation_id": root.args.get("invocation_id"),
            "workload": root.args.get("workload", root.name),
            "status": root.args.get("status", "unknown"),
            "e2e_s": duration,
            level.key: buckets,
            "attributed_s": sum(buckets.values()),
            "coverage": covered / duration if duration > 0 else 1.0,
            "dominant": dominant,
            "dominant_share": (buckets.get(dominant, 0.0) / duration
                               if duration > 0 else 0.0),
            "segments": len(segments),
            "rpc_calls": sum(rpc_mix.values()),
            "rpc_time_s": rpc_time,
            "rpc_mix": rpc_mix,
        }
        if inv is not None:
            row["measured_e2e_s"] = inv.e2e_s
            row["e2e_matches_span"] = abs(inv.e2e_s - duration) < 1e-9
        rows.append(row)
    return rows


def _series(values: list[float]) -> dict:
    return {
        "mean": sum(values) / len(values),
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "p99": percentile(values, 99),
    }


def _group_stats(rows: list[dict], key: str) -> dict:
    seconds: dict[str, list[float]] = {}
    shares: dict[str, list[float]] = {}
    rpc_mix: dict[str, int] = {}
    for row in rows:
        e2e = row["e2e_s"]
        for name, value in row[key].items():
            seconds.setdefault(name, []).append(value)
            shares.setdefault(name, []).append(value / e2e if e2e > 0 else 0.0)
        for name, n in row["rpc_mix"].items():
            rpc_mix[name] = rpc_mix.get(name, 0) + n
    per_bucket = {}
    for name, values in seconds.items():
        stats = _series(values)
        # ``mean_s``/``p50_s``/... (and ``e2e_p50_s``/``e2e_p95_s`` below)
        # repeat ``mean``/``p50``/... under the names critpath.json has
        # always carried
        per_bucket[name] = {
            **stats,
            **{f"{stat}_s": v for stat, v in stats.items()},
            **{f"share_{stat}": v for stat, v in _series(shares[name]).items()},
        }
    e2e = _series([row["e2e_s"] for row in rows])
    coverage = [row["coverage"] for row in rows]
    return {
        "count": len(rows),
        "e2e": e2e,
        "e2e_p50_s": e2e["p50"],
        "e2e_p95_s": e2e["p95"],
        "coverage_min": min(coverage),
        "coverage_mean": sum(coverage) / len(coverage),
        key: per_bucket,
        "top_bottleneck": {
            stat: max(per_bucket, key=lambda n: per_bucket[n][stat],
                      default=None)
            for stat in ("mean", "p50", "p95")
        },
        "rpc_mix": dict(sorted(rpc_mix.items())),
    }


def aggregate_critpaths(rows: list[dict],
                        level: Level = RESOURCE_LEVEL) -> dict:
    """Aggregate attribution rows, overall and per workload."""
    if not rows:
        return {"count": 0, "workloads": {}}
    out = _group_stats(rows, level.key)
    by_workload: dict[str, list[dict]] = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)
    out["workloads"] = {
        name: _group_stats(group, level.key)
        for name, group in sorted(by_workload.items())
    }
    return out


def bottleneck_table(aggregate: dict) -> list[dict]:
    """Flatten "top bottleneck by workload x percentile" into table rows."""
    rows = []
    for workload, agg in aggregate.get("workloads", {}).items():
        for pct in ("p50", "p95"):
            resource = agg["top_bottleneck"][pct]
            stats = agg["resources"][resource]
            rows.append({
                "workload": workload,
                "percentile": pct,
                "bottleneck": resource,
                "seconds": round(stats[f"{pct}_s"], 4),
                "share": round(stats[f"share_{pct}"], 4),
            })
    return rows


def folded_stacks(traces, invocations=None) -> dict[str, float]:
    """Aggregate critical-path segments into folded stacks -> seconds.

    ``traces`` and ``invocations`` select traces as in
    :func:`invocation_critpaths`.  Stack frames are joined with ``;`` outermost-first, so the root frame
    (``invocation:<workload>``) groups the flamegraph by workload.
    """
    stacks: dict[str, float] = {}
    for _, records, _ in _select(traces, invocations):
        for seg in critical_path(records):
            key = ";".join(seg.stack)
            stacks[key] = stacks.get(key, 0.0) + seg.duration_s
    return stacks


def dump_folded(stacks: dict[str, float], path) -> int:
    """Write folded stacks (integer microsecond weights) to ``path``.

    The format is one ``frame;frame;... value`` line per stack —
    speedscope and Brendan Gregg's ``flamegraph.pl`` both load it
    directly.  Returns the number of lines written; sub-microsecond
    stacks round up to 1 so no sampled stack vanishes from the graph.
    """
    lines = []
    for key in sorted(stacks):
        weight = max(1, round(stacks[key] * 1e6))
        lines.append(f"{key} {weight}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def critpath_report(traces, invocations=None,
                    min_coverage: Optional[float] = None,
                    level: Level = RESOURCE_LEVEL) -> dict:
    """Per-invocation attribution + aggregate, with optional validation.

    With ``min_coverage`` set, rows below the bar are listed under
    ``"violations"`` (empty = pass) so CLI callers can gate on it.
    """
    rows = invocation_critpaths(traces, invocations, level)
    report = {
        "per_invocation": rows,
        "aggregate": aggregate_critpaths(rows, level),
    }
    if min_coverage is not None:
        report["violations"] = [
            f"invocation {row['invocation_id']} ({row['workload']}): "
            f"{level.name} coverage {row['coverage']:.3f} < {min_coverage}"
            for row in rows if row["coverage"] < min_coverage
        ]
    return report
