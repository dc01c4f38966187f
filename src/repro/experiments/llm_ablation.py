"""LLM serving ablation: continuous vs request-level batching (extension).

Chat-traffic scenario families over the LLM workloads
(:mod:`repro.workloads.llm_workloads`):

* ``steady`` — plain chat traffic; the headline comparison.  Request-
  level batching drains a whole batch before admitting newcomers, so an
  arrival behind a long generation waits out the drain and its first
  token lands late: p99 token latency (which folds in time-to-first-
  token) blows up.  Continuous batching admits between iterations and
  the tail collapses.
* ``long_context`` — 15% retrieval-sized prompts; same comparison with
  bursty KV growth.
* ``eviction_storm`` — two co-resident engines whose declared
  reservations nearly fill the GPU: KV page charges get denied and the
  LIFO preempt/recompute path runs (the counters in the row prove it).
* ``cache_migration`` — two engines packed onto one of two GPUs
  (best-fit) with migration enabled: sustained imbalance moves one
  engine — with its KV charge — to the idle GPU mid-serve.

Every scenario runs under ``mqfq`` queueing so LLM functions exercise
the per-flow scheduler path like any other workload class.
"""

from __future__ import annotations

from repro.core.config import DgsfConfig
from repro.core.deployment import DgsfDeployment
from repro.faas.workload_gen import burst_arrivals
from repro.obs.diff import attribution_from_tracer
from repro.obs.metrics import percentile
from repro.workloads.llm_workloads import register_llm_workloads

__all__ = ["run", "run_llm_scenario", "SCENARIOS"]

#: scenario -> (workload, deployment shape)
SCENARIOS = {
    "steady": ("llm_chat", dict(num_gpus=1)),
    "long_context": ("llm_chat_long", dict(num_gpus=1)),
    "eviction_storm": ("llm_chat_storm", dict(num_gpus=1)),
    # exactly two co-resident engines (tight burst, best-fit) so the
    # second GPU stays idle and sustained imbalance can trigger a move
    "cache_migration": (
        "llm_chat_long",
        dict(num_gpus=2, migration_enabled=True, policy="best_fit",
             copies=2, burst_gap_s=0.5),
    ),
}

MODES = ("request", "continuous")


def run_llm_scenario(workload: str, mode: str, seed: int = 0, copies: int = 2,
                     burst_gap_s: float = 3.0, **config_kwargs):
    """Run ``copies`` concurrent invocations of one LLM workload.

    Returns ``(records, deployment)``; the batching mode reaches the
    handler through invocation params (``llm_mode``).
    """
    config_kwargs.setdefault("num_gpus", 1)
    # tracing is pure bookkeeping (no events, no RNG) — the served
    # timeline and every latency number are identical with it on; the
    # spans feed the per-row regression attribution below
    config_kwargs.setdefault("tracing_enabled", True)
    cfg = DgsfConfig(
        api_servers_per_gpu=2, queue_discipline="mqfq", seed=seed,
        **config_kwargs,
    )
    dep = DgsfDeployment(cfg)
    dep.setup()
    register_llm_workloads(dep.platform, names=[workload])
    plan = burst_arrivals([workload], bursts=copies, burst_gap_s=burst_gap_s)
    proc = dep.env.process(
        dep.platform.run_plan(plan, llm_mode=mode), name="llm-scenario"
    )
    records = dep.env.run(until=proc)
    # fold still-queued waits into the queue-wait metric (outcome=abandoned)
    for server in dep.gpu_servers:
        server.monitor.observe_pending_waits()
    return records, dep


def _row(scenario: str, mode: str, records, dep) -> dict:
    token_obs, ttft_obs = [], []
    for hist in dep.metrics.find("llm.token_latency_s", mode=mode):
        token_obs.extend(hist.observations)
    for hist in dep.metrics.find("llm.ttft_s", mode=mode):
        ttft_obs.extend(hist.observations)
    totals = {"n_requests": 0, "n_tokens": 0, "n_iterations": 0,
              "n_preemptions": 0, "n_kv_denials": 0, "n_recomputes": 0}
    for rec in records:
        for key in totals:
            totals[key] += rec.result[key]
    kv_peak_frac = 0.0
    for gauge in dep.metrics.find("gpu.committed_frac"):
        if gauge.values:
            kv_peak_frac = max(kv_peak_frac, max(gauge.values))
    n_migrations = sum(
        len(server.monitor.migration_records) for server in dep.gpu_servers
    )
    row = {
        "scenario": scenario,
        "mode": mode,
        **totals,
        "n_migrations": n_migrations,
        "p50_token_ms": round(percentile(token_obs, 50) * 1e3, 2),
        "p99_token_ms": round(percentile(token_obs, 99) * 1e3, 2),
        "p99_ttft_s": round(percentile(ttft_obs, 99), 3),
        "committed_peak_frac": round(kv_peak_frac, 3),
    }
    if dep.tracer is not None:
        # tail-cohort critical-path attribution (repro.obs.diff): one
        # deployment per (scenario, mode), so the single workload's
        # entry is the row's.  scripts/bench.py compare diffs these maps
        # to name the category behind a banded-metric failure.
        attr = attribution_from_tracer(dep.tracer)
        if attr:
            (_, entry), = attr.items()
            row["attribution"] = entry
    return row


def run(seed: int = 0, copies: int = 2,
        scenarios: tuple = tuple(SCENARIOS)) -> list[dict]:
    """Rows: (scenario, mode) -> token-latency tail + engine counters."""
    rows = []
    for scenario in scenarios:
        workload, shape = SCENARIOS[scenario]
        kwargs = dict(copies=copies)
        kwargs.update(shape)  # scenario shape wins (cache_migration pins 2)
        for mode in MODES:
            records, dep = run_llm_scenario(workload, mode, seed=seed, **kwargs)
            rows.append(_row(scenario, mode, records, dep))
    return rows
