"""Scheduler fairness/starvation ablation (extension beyond the paper).

Runs one contended mixed workload — every paper workload, exponential
arrival gaps, two GPUs with sharing(2) — under each queue discipline and
reports the queue-wait distribution per request *size class* (small
< 2 GB ≤ medium < 8 GB ≤ large, tracking the paper's workload set).
This quantifies the §VIII-D trade-off directly: FCFS's head-of-line
blocking inflates the small class's tail, plain SFF starves the large
class, ``sff_aged`` bounds that starvation, and ``mqfq`` bounds the
unfairness per function class.
"""

from __future__ import annotations

from repro.core.config import DgsfConfig
from repro.core.scheduler import DISCIPLINES
from repro.experiments.runner import make_plan, run_mixed_scenario
from repro.obs.metrics import percentile

__all__ = ["run"]

_CLASSES = ("small", "medium", "large")


def run(seed: int = 0, copies: int = 4, num_gpus: int = 2,
        api_servers_per_gpu: int = 2, mean_gap_s: float = 1.5,
        disciplines: tuple = DISCIPLINES) -> list[dict]:
    """Rows: (discipline, size_class) -> queue-wait tail + max wait.

    Queue waits come from the ``scheduler.queue_wait_s`` histograms the
    dispatch layer records at grant time (merged across GPU servers);
    max waits from each scheduler's ``max_wait_s`` bookkeeping.
    """
    plan = make_plan("exponential", seed=seed, copies=copies,
                     mean_gap_s=mean_gap_s)
    rows = []
    for disc in disciplines:
        cfg = DgsfConfig(
            num_gpus=num_gpus, api_servers_per_gpu=api_servers_per_gpu,
            queue_discipline=disc, seed=seed,
        )
        result = run_mixed_scenario(cfg, plan)
        metrics = result.deployment.metrics
        by_class: dict[str, list[float]] = {}
        for hist in metrics.find("scheduler.queue_wait_s", discipline=disc):
            by_class.setdefault(
                hist.labels["size_class"], []
            ).extend(hist.observations)
        max_wait: dict[str, float] = {}
        for server in result.deployment.gpu_servers:
            for cls, wait in server.monitor.scheduler.max_wait_s.items():
                if wait > max_wait.get(cls, -1.0):
                    max_wait[cls] = wait
        for cls in _CLASSES:
            obs = by_class.get(cls, [])
            if not obs:
                continue
            rows.append({
                "discipline": disc,
                "size_class": cls,
                "n": len(obs),
                "mean_queue_s": round(sum(obs) / len(obs), 2),
                "p50_queue_s": round(percentile(obs, 50), 2),
                "p99_queue_s": round(percentile(obs, 99), 2),
                "max_wait_s": round(max_wait.get(cls, 0.0), 2),
                "provider_e2e_s": round(result.stats.provider_e2e_s, 2),
            })
    return rows
