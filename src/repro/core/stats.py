"""Aggregation of invocation records into the paper's reported metrics.

The evaluation reports, per experiment:

* the provider's *end-to-end* time — "the time to handle all functions",
* the *sum of all functions' end-to-end time* (launch → completion),
* per-workload mean/std of queueing and execution delay (Figs. 5, 6, 8).

Fault-injected runs add a terminal-status census (:func:`summarize_outcomes`).
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
    "summarize_invocations",
    "summarize_outcomes",
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
