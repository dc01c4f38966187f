"""Aggregation of invocation records into the paper's reported metrics.

The evaluation reports, per experiment:

* the provider's *end-to-end* time — "the time to handle all functions",
* the *sum of all functions' end-to-end time* (launch → completion),
* per-workload mean/std of queueing and execution delay (Figs. 5, 6, 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.faas.platform import Invocation
from repro.obs import percentile

__all__ = [
    "WorkloadStats",
    "RunStats",
    "OutcomeSummary",
    "CommStats",
    "CacheStats",
    "summarize_invocations",
    "summarize_outcomes",
    "summarize_caches",
]

#: invocation states that mean "the platform is done with it"
TERMINAL_STATUSES = ("completed", "failed", "timeout")


@dataclass
class WorkloadStats:
    """Per-workload latency summary."""

    name: str
    count: int
    mean_e2e_s: float
    std_e2e_s: float
    mean_queue_s: float
    mean_exec_s: float
    p50_e2e_s: float = 0.0
    p95_e2e_s: float = 0.0
    p99_e2e_s: float = 0.0

    def as_row(self) -> dict:
        return {
            "workload": self.name,
            "n": self.count,
            "mean_e2e_s": round(self.mean_e2e_s, 3),
            "std_e2e_s": round(self.std_e2e_s, 3),
            "p50_e2e_s": round(self.p50_e2e_s, 3),
            "p95_e2e_s": round(self.p95_e2e_s, 3),
            "p99_e2e_s": round(self.p99_e2e_s, 3),
            "mean_queue_s": round(self.mean_queue_s, 3),
            "mean_exec_s": round(self.mean_exec_s, 3),
        }


@dataclass
class RunStats:
    """Whole-run summary."""

    provider_e2e_s: float
    function_e2e_sum_s: float
    per_workload: dict[str, WorkloadStats] = field(default_factory=dict)
    #: latency percentiles over *all* completed invocations
    p50_e2e_s: float = 0.0
    p95_e2e_s: float = 0.0
    p99_e2e_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "provider_e2e_s": round(self.provider_e2e_s, 3),
            "function_e2e_sum_s": round(self.function_e2e_sum_s, 3),
            "p50_e2e_s": round(self.p50_e2e_s, 3),
            "p95_e2e_s": round(self.p95_e2e_s, 3),
            "p99_e2e_s": round(self.p99_e2e_s, 3),
            "per_workload": {k: v.as_row() for k, v in self.per_workload.items()},
        }


def summarize_invocations(invocations: list[Invocation]) -> RunStats:
    """Aggregate completed invocations into :class:`RunStats`.

    *Queueing delay* here is the time before the handler starts plus the
    GPU-queue wait at the monitor (the ``gpu_queue`` phase) — the paper's
    "queueing ... delay" which grows when all API servers are busy.
    """
    if not invocations:
        raise ValueError("no invocations to summarize")
    done = [inv for inv in invocations if inv.status == "completed"]
    if not done:
        raise ValueError("no completed invocations")
    provider_e2e = max(i.t_end for i in done) - min(i.t_submit for i in done)
    e2e_sum = sum(i.e2e_s for i in done)
    per: dict[str, WorkloadStats] = {}
    by_name: dict[str, list[Invocation]] = {}
    for inv in done:
        by_name.setdefault(inv.function_name, []).append(inv)
    for name, invs in sorted(by_name.items()):
        e2es = np.array([i.e2e_s for i in invs])
        queues = np.array(
            [i.queue_s + i.phases.get("gpu_queue", 0.0) for i in invs]
        )
        per[name] = WorkloadStats(
            name=name,
            count=len(invs),
            mean_e2e_s=float(e2es.mean()),
            std_e2e_s=float(e2es.std()),
            mean_queue_s=float(queues.mean()),
            mean_exec_s=float((e2es - queues).mean()),
            p50_e2e_s=percentile(e2es.tolist(), 50),
            p95_e2e_s=percentile(e2es.tolist(), 95),
            p99_e2e_s=percentile(e2es.tolist(), 99),
        )
    all_e2es = [i.e2e_s for i in done]
    return RunStats(
        provider_e2e_s=provider_e2e,
        function_e2e_sum_s=e2e_sum,
        per_workload=per,
        p50_e2e_s=percentile(all_e2es, 50),
        p95_e2e_s=percentile(all_e2es, 95),
        p99_e2e_s=percentile(all_e2es, 99),
    )


@dataclass(frozen=True)
class CommStats:
    """Communication-path summary of one guest's lifetime.

    Captures the latency-hiding counters: how deep the pipelined channel
    ran (``max_in_flight``), how many enqueue-only calls were forwarded
    asynchronously vs batched, and how many async failures were deferred
    to (or lost before) a synchronization point.
    """

    calls_intercepted: int
    calls_localized: int
    calls_batched: int
    calls_async_forwarded: int
    messages_sent: int
    max_in_flight: int
    async_deferred_errors: int
    async_replies_lost: int
    rpc_timeouts: int
    rpc_retries: int

    @classmethod
    def from_guest(cls, guest) -> "CommStats":
        return cls(
            calls_intercepted=guest.calls_intercepted,
            calls_localized=guest.calls_localized,
            calls_batched=guest.calls_batched,
            calls_async_forwarded=guest.calls_async_forwarded,
            messages_sent=guest.messages_sent,
            max_in_flight=guest.rpc.max_in_flight,
            async_deferred_errors=guest.async_deferred_errors,
            async_replies_lost=guest.async_replies_lost,
            rpc_timeouts=guest.rpc_timeouts,
            rpc_retries=guest.rpc_retries,
        )

    def as_dict(self) -> dict:
        return {
            "calls_intercepted": self.calls_intercepted,
            "calls_localized": self.calls_localized,
            "calls_batched": self.calls_batched,
            "calls_async_forwarded": self.calls_async_forwarded,
            "messages_sent": self.messages_sent,
            "max_in_flight": self.max_in_flight,
            "async_deferred_errors": self.async_deferred_errors,
            "async_replies_lost": self.async_replies_lost,
            "rpc_timeouts": self.rpc_timeouts,
            "rpc_retries": self.rpc_retries,
        }


@dataclass(frozen=True)
class CacheStats:
    """Aggregate artifact-cache effectiveness across API servers."""

    hits: int
    misses: int
    hit_bytes: int
    miss_bytes: int
    evictions: int
    invalidations: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @classmethod
    def from_registry(cls, registry, **match) -> "CacheStats":
        """Aggregate the ``artifact_cache.*`` counters of a
        :class:`~repro.obs.MetricsRegistry` (optionally filtered by label,
        e.g. ``server=3``)."""
        t = registry.total
        return cls(
            hits=int(t("artifact_cache.hits", **match)),
            misses=int(t("artifact_cache.misses", **match)),
            hit_bytes=int(t("artifact_cache.hit_bytes", **match)),
            miss_bytes=int(t("artifact_cache.miss_bytes", **match)),
            evictions=int(t("artifact_cache.evictions", **match)),
            invalidations=int(t("artifact_cache.invalidations", **match)),
        )

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_bytes": self.hit_bytes,
            "miss_bytes": self.miss_bytes,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }


def summarize_caches(api_servers) -> CacheStats:
    """Sum artifact-cache counters over API servers (caches may be None)."""
    hits = misses = hit_bytes = miss_bytes = evictions = invalidations = 0
    for server in api_servers:
        cache = getattr(server, "artifact_cache", None)
        if cache is None:
            continue
        hits += cache.hits
        misses += cache.misses
        hit_bytes += cache.hit_bytes
        miss_bytes += cache.miss_bytes
        evictions += cache.evictions
        invalidations += cache.invalidations
    return CacheStats(
        hits=hits,
        misses=misses,
        hit_bytes=hit_bytes,
        miss_bytes=miss_bytes,
        evictions=evictions,
        invalidations=invalidations,
    )


@dataclass
class OutcomeSummary:
    """Terminal-status census of a (possibly faulty) run.

    Chaos experiments care less about latency than about *liveness*: every
    invocation must reach a terminal status — a wedged function means a
    recovery path leaked a waiter.
    """

    counts: dict[str, int] = field(default_factory=dict)
    total: int = 0
    completion_rate: float = 0.0
    mean_completed_e2e_s: float = 0.0
    #: True iff every invocation reached completed/failed/timeout
    all_terminal: bool = True

    def as_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "total": self.total,
            "completion_rate": round(self.completion_rate, 4),
            "mean_completed_e2e_s": round(self.mean_completed_e2e_s, 3),
            "all_terminal": self.all_terminal,
        }

    @classmethod
    def from_registry(cls, registry, expected_total: "int | None" = None) -> "OutcomeSummary":
        """Build the census from ``invocation.*`` metrics instead of the
        invocation list.

        The platform only publishes *terminal* invocations, so a wedged
        function is invisible here unless ``expected_total`` (how many
        invocations were submitted) is given — then the shortfall is
        reported as non-terminal.
        """
        counts: dict[str, int] = {}
        for metric in registry.find("invocation.status"):
            status = metric.labels.get("status", "unknown")
            counts[status] = counts.get(status, 0) + int(metric.value)
        seen = sum(counts.values())
        total = expected_total if expected_total is not None else seen
        stuck = total - seen
        completed_obs = [
            obs
            for h in registry.find("invocation.e2e_s", status="completed")
            for obs in h.observations
        ]
        completed = counts.get("completed", 0)
        return cls(
            counts=counts,
            total=total,
            completion_rate=(completed / total) if total else 0.0,
            mean_completed_e2e_s=(
                float(np.mean(completed_obs)) if completed_obs else 0.0
            ),
            all_terminal=stuck == 0
            and all(s in TERMINAL_STATUSES for s in counts),
        )


def summarize_outcomes(invocations: list[Invocation]) -> OutcomeSummary:
    """Count terminal vs. stuck invocations (the chaos-run liveness check)."""
    counts: dict[str, int] = {}
    for inv in invocations:
        counts[inv.status] = counts.get(inv.status, 0) + 1
    completed = [inv for inv in invocations if inv.status == "completed"]
    total = len(invocations)
    return OutcomeSummary(
        counts=counts,
        total=total,
        completion_rate=(len(completed) / total) if total else 0.0,
        mean_completed_e2e_s=(
            float(np.mean([i.e2e_s for i in completed])) if completed else 0.0
        ),
        all_terminal=all(inv.status in TERMINAL_STATUSES for inv in invocations),
    )
