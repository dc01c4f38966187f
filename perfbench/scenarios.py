"""The benchmark's workloads: one repetition = bring-up, one plan, checks.

Every workload turns the benchmark seed into a fixed list of sub-seeds;
each sub-seed yields one generated input (an arrival plan, or an LLM
chat trace) that the program receives through its public API.  A
repetition builds a fresh deployment, runs the plan to completion and
collects the simulated outcome, a digest of it, the correctness problems
found, and the per-layer counts that public objects expose.

The modules of ``repro`` are imported inside functions only, so that the
set-up probe in ``run.py`` can time the first ``import repro``.
"""

from __future__ import annotations

import dataclasses
import json
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["WORKLOADS", "Workload", "Rep", "run_rep", "prepare"]


@dataclass
class Rep:
    """Outcome of one repetition (one sub-seed, one deployment)."""

    workload: str
    sub_seed: int
    #: host seconds spent in the plan's simulation (the run phase)
    run_wall_s: float
    #: simulated operations attempted / completed (invocations, or chat
    #: requests on the LLM workloads)
    attempted: int
    completed: int
    #: simulated work units completed (invocations, or output tokens)
    work: int
    #: CRC32 of the simulated outcome; equal for equal inputs
    digest: int
    #: simulated latency of each unit of work, seconds
    latencies_s: list
    #: first arrival to last completion, simulated seconds
    makespan_s: float
    #: arrival-to-completion of each completed invocation, simulated seconds
    e2e_s: list
    #: scheduler queue waits of granted GPU requests, simulated seconds
    queue_waits_s: list
    problems: list = field(default_factory=list)
    #: per-layer counts read from public objects after the run
    counts: dict = field(default_factory=dict)
    #: workload-specific simulated latencies (token / TTFT), seconds
    extra_latencies: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: distinct generated inputs per run (pooled for the sim metrics)
    sub_plans: int
    #: what one unit of ``Rep.work`` is
    work_unit: str
    #: percentile reported as the latency tail; None = the highest one
    #: with at least ten samples beyond it
    tail_pct: Optional[float] = None

    def sub_seeds(self, seed: int) -> list[int]:
        return [seed * 1000 + i for i in range(self.sub_plans)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_mix", sub_plans=4, work_unit="invocation"),
        # per-token tails by the ten-beyond rule land past p99.9, on the
        # few worst first tokens of one trace; p99 is what the LLM
        # experiments report and it repeats across seeds
        Workload("llm_chat", sub_plans=12, work_unit="token", tail_pct=99.0),
        Workload("kv_storm", sub_plans=12, work_unit="token", tail_pct=99.0),
    )
}

# paper_mix: the ROADMAP full-stack plan (6 paper workloads x 4 copies)
PAPER_COPIES = 4
PAPER_MEAN_GAP_S = 1.5
# LLM workloads: sessions x requests per session
LLM_SESSIONS = 4
LLM_SHAPE = {
    # name -> (registered LLM workload, requests per session, trace sample rate)
    "llm_chat": ("llm_chat", 150, 1.0),
    "kv_storm": ("llm_chat_storm", 50, 0.01),
}
LLM_BURST_GAP_S = 3.0


@dataclass
class Prepared:
    """A deployment brought up and ready for its plan's first arrival."""

    workload: Workload
    sub_seed: int
    deployment: Any
    plan: Any
    run_params: dict
    llm_params: Any = None


def prepare(workload: Workload, sub_seed: int) -> Prepared:
    """Bring a deployment up and register the workload's functions."""
    if workload.name == "paper_mix":
        return _prepare_paper_mix(workload, sub_seed)
    return _prepare_llm(workload, sub_seed)


def _prepare_paper_mix(workload, sub_seed):
    from repro.core.config import DgsfConfig
    from repro.core.deployment import DgsfDeployment
    from repro.experiments.runner import make_plan
    from repro.workloads import register_workloads

    config = DgsfConfig(num_gpus=2, api_servers_per_gpu=2,
                        queue_discipline="fcfs", seed=sub_seed)
    plan = make_plan("exponential", seed=sub_seed, copies=PAPER_COPIES,
                     mean_gap_s=PAPER_MEAN_GAP_S)
    dep = DgsfDeployment(config)
    dep.setup()
    register_workloads(dep.platform, names=sorted(set(plan.names)))
    return Prepared(workload, sub_seed, dep, plan, {})


def _llm_handler(params):
    """The registered handler of ``repro.workloads.llm_workloads`` for
    generated ``params``: weights download, host prep, GPU phase."""
    from repro.workloads.llm_workloads import llm_gpu_phase

    def handler(fc):
        yield from fc.download([params.model_object[0]])
        t0 = fc.env.now
        yield fc.env.timeout(params.host_prep_s)
        fc.add_phase("download", fc.env.now - t0)
        return (yield from llm_gpu_phase(fc, params))

    handler.__name__ = f"{params.name}_handler"
    return handler


def _prepare_llm(workload, sub_seed):
    from repro.core.config import DgsfConfig
    from repro.core.deployment import DgsfDeployment
    from repro.faas.platform import FunctionSpec
    from repro.faas.workload_gen import burst_arrivals
    from repro.workloads.llm_workloads import LLM_WORKLOADS, stage_llm_objects

    base_name, n_requests, sample_rate = LLM_SHAPE[workload.name]
    params = dataclasses.replace(
        LLM_WORKLOADS[base_name], trace_seed=sub_seed, n_requests=n_requests)
    config = DgsfConfig(num_gpus=1, api_servers_per_gpu=2,
                        queue_discipline="mqfq", seed=sub_seed,
                        tracing_enabled=True, trace_sample_rate=sample_rate)
    dep = DgsfDeployment(config)
    dep.setup()
    stage_llm_objects(dep.platform.storage, [base_name])
    dep.platform.register(FunctionSpec(
        name=params.name, handler=_llm_handler(params),
        gpu_mem_bytes=params.declared_gpu_bytes, min_replicas=12))
    plan = burst_arrivals([params.name], bursts=LLM_SESSIONS,
                          burst_gap_s=LLM_BURST_GAP_S)
    return Prepared(workload, sub_seed, dep, plan,
                    {"llm_mode": "continuous"}, llm_params=params)


def run_rep(workload: Workload, sub_seed: int, timer=None) -> Rep:
    """One repetition.  With ``timer`` (an installed LayerTimer) the run
    phase is timed per layer; bring-up and the checks are not."""
    prepared = prepare(workload, sub_seed)
    dep = prepared.deployment
    proc = dep.env.process(
        dep.platform.run_plan(prepared.plan, **prepared.run_params),
        name="bench-plan")
    if timer is not None:
        timer.reset()
    t0 = time.perf_counter()
    records = dep.env.run(until=proc)
    run_wall_s = time.perf_counter() - t0
    if timer is not None:
        timer.stop(run_wall_s)
    return _collect(prepared, records, run_wall_s)


def _collect(prepared: Prepared, records, run_wall_s: float) -> Rep:
    from repro.core.audit import audit_deployment

    dep, plan = prepared.deployment, prepared.plan
    problems = []
    if len(records) != len(plan):
        problems.append(f"{len(records)} invocations for {len(plan)} arrivals")
    not_done = [inv.invocation_id for inv in records if inv.status != "completed"]
    if not_done:
        problems.append(f"invocations not completed: {not_done}")
    if prepared.llm_params is not None:
        # fold still-queued waits into the queue-wait metric, as the LLM
        # experiments do, before the auditor inspects the end state
        for server in dep.gpu_servers:
            server.monitor.observe_pending_waits()
    audit = audit_deployment(dep, end_state=True)
    if not audit.ok:
        problems.append(f"audit: {audit}")

    done = [inv for inv in records if inv.status == "completed"]
    makespan = (max((inv.t_end for inv in done), default=0.0)
                - min((inv.t_submit for inv in records), default=0.0))
    outcome = [[inv.function_name, inv.status, round(inv.t_submit, 9),
                round(inv.t_end, 9)] for inv in records]
    counts = _common_counts(dep)
    waits = []
    for hist in dep.metrics.find("scheduler.queue_wait_s", outcome="granted"):
        waits.extend(hist.observations)
    e2e = [inv.e2e_s for inv in done]
    extra = {}
    if prepared.llm_params is None:
        attempted, completed = len(plan), len(done)
        work = completed
        latencies = e2e
    else:
        rep_llm = _collect_llm(prepared, records, problems, outcome, counts)
        attempted, completed, work, latencies, extra = rep_llm
    digest = zlib.crc32(json.dumps(outcome, separators=(",", ":")).encode())
    return Rep(
        workload=prepared.workload.name, sub_seed=prepared.sub_seed,
        run_wall_s=run_wall_s, attempted=attempted, completed=completed,
        work=work, digest=digest, latencies_s=latencies,
        makespan_s=makespan, e2e_s=e2e, queue_waits_s=waits,
        problems=problems, counts=counts,
        extra_latencies=extra,
    )


def _collect_llm(prepared, records, problems, outcome, counts):
    params = prepared.llm_params
    dep = prepared.deployment
    trace = params.trace()
    expected_tokens = sum(req.output_tokens for req in trace)
    attempted = len(prepared.plan) * params.n_requests
    completed = work = 0
    preempted_traces = []
    totals = {"n_iterations": 0, "n_preemptions": 0, "n_kv_denials": 0,
              "n_recomputes": 0}
    for inv, row in zip(records, outcome):
        if inv.status != "completed":
            continue
        result = inv.result
        if result["n_requests"] != params.n_requests:
            problems.append(f"invocation {inv.invocation_id} served "
                            f"{result['n_requests']} of {params.n_requests} requests")
        if result["n_tokens"] != expected_tokens:
            problems.append(f"invocation {inv.invocation_id} emitted "
                            f"{result['n_tokens']} of {expected_tokens} tokens")
        completed += result["n_requests"]
        work += result["n_tokens"]
        for key in totals:
            totals[key] += result[key]
        row.extend([result["emission_crc"], result["n_tokens"],
                    result["n_preemptions"]])
        if result["n_preemptions"]:
            preempted_traces.append(inv.trace_id)
    counts.update({
        "core.decode.iterations": totals["n_iterations"],
        "core.decode.preemptions": totals["n_preemptions"],
        "core.decode.kv_denials": totals["n_kv_denials"],
        "core.decode.recomputes": totals["n_recomputes"],
    })
    if dep.config.trace_sample_rate < 1.0:
        # tail-keep: every preempted session's trace survives sampling
        if not preempted_traces:
            problems.append("no preemption: the storm did not happen")
        kept = dep.tracer.by_trace()
        lost = [t for t in preempted_traces if t not in kept]
        if lost:
            problems.append(f"preempted traces sampled out: {lost}")
    token_s, ttft_s = [], []
    for hist in dep.metrics.find("llm.token_latency_s"):
        token_s.extend(hist.observations)
    for hist in dep.metrics.find("llm.ttft_s"):
        ttft_s.extend(hist.observations)
    if len(token_s) != work:
        problems.append(f"{len(token_s)} token latencies for {work} tokens")
    return attempted, completed, work, token_s, {"ttft_s": ttft_s}


def _common_counts(dep) -> dict:
    """Per-layer counts every workload exposes through public objects."""
    stats = dep.env.stats()
    metrics = dep.metrics
    committed = [max(g.values) for g in metrics.find("gpu.committed_frac")
                 if g.values]
    hosts = [dep.fn_host] + [server.host for server in dep.gpu_servers]
    counts = {
        "sim.events": stats["events_processed"],
        "sim.processes": stats["processes_created"],
        "simnet.wire_bytes": sum(host.nic.bytes_sent for host in hosts),
        "core.guest.calls_intercepted": metrics.total("guest.calls_intercepted"),
        "core.guest.calls_localized": metrics.total("guest.calls_localized"),
        "core.guest.calls_batched": metrics.total("guest.calls_batched"),
        "core.scheduler.grants": metrics.total("scheduler.granted"),
        "core.monitor.committed_peak_frac": max(committed, default=0.0),
        "core.decode.iterations": 0,
        "core.decode.preemptions": 0,
        "core.decode.kv_denials": 0,
        "core.decode.recomputes": 0,
    }
    if dep.tracer is not None:
        summary = dep.tracer.summary()
        counts["obs.spans_recorded"] = summary["spans"] + summary["instants"]
        counts["obs.spans_sampled_out"] = summary["sampled_out"]
        counts["obs.spans_dropped"] = summary["dropped"]
    else:
        counts.update({"obs.spans_recorded": 0, "obs.spans_sampled_out": 0,
                       "obs.spans_dropped": 0})
    return counts
