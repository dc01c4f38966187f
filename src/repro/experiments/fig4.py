"""Figure 4: ablation study of DGSF's optimizations.

"We perform an ablation study, breaking down execution time as we
incrementally add the optimizations described in Section V-C, comparing
against native execution.  We remove from the comparison the times taken
to download input and model files" — so the reported number per
configuration is *processing time* in the paper's sense: CUDA init +
model load + inference.

Cumulative configurations (paper order):

1. ``none`` — unoptimized DGSF,
2. ``+handle_pooling`` — pre-created contexts and cuDNN/cuBLAS handles,
3. ``+descriptor_pooling`` — guest-side descriptor pooling,
4. ``+batching`` — batching + unnecessary-API avoidance (full DGSF),
5. ``+async`` — this reproduction's extension beyond the paper: enqueue-
   only calls forwarded immediately on the pipelined RPC channel, so
   server dispatch and GPU work overlap guest-side compute.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.core.config import DgsfConfig, OptimizationFlags
from repro.core.deployment import DgsfDeployment
from repro.experiments.runner import build_deployment
from repro.obs.critpath import PHASE_LEVEL, critpath_report
from repro.workloads import WORKLOADS, register_workloads

__all__ = ["run", "ABLATION_STEPS"]

ABLATION_STEPS: list[tuple[str, OptimizationFlags]] = [
    ("no_opt", OptimizationFlags.none()),
    ("+handle_pooling", OptimizationFlags.none().with_(handle_pooling=True)),
    (
        "+descriptor_pooling",
        OptimizationFlags.none().with_(handle_pooling=True, descriptor_pooling=True),
    ),
    ("+batching", OptimizationFlags.all()),
    ("+async", OptimizationFlags.all().with_(async_forward=True)),
]


def _gpu_time(inv) -> float:
    """The paper's 'processing time': everything but downloads/queueing."""
    return (
        inv.phases.get("cuda_init", 0.0)
        + inv.phases.get("model_load", 0.0)
        + inv.phases.get("processing", 0.0)
    )


def _dump_trace(dep, inv, trace_dir: Path, stem: str) -> None:
    """Export the step's Chrome trace + latency breakdown artifacts."""
    dep.tracer.dump_chrome(trace_dir / f"{stem}.trace.json")
    report = critpath_report(dep.tracer, [inv], level=PHASE_LEVEL)
    report["tracer"] = dep.tracer.summary()
    (trace_dir / f"{stem}.breakdown.json").write_text(
        json.dumps(report, indent=2, sort_keys=True)
    )


def run(workloads: Optional[list[str]] = None, seed: int = 0,
        trace_dir: Optional[str] = None) -> list[dict]:
    """Rows: one per workload with native + each cumulative step's time.

    With ``trace_dir`` set, every (workload, step) run executes with span
    tracing on and exports ``<workload>_<step>.trace.json`` (Chrome
    trace-event format, Perfetto-loadable) plus a latency-breakdown JSON
    next to it.  Tracing never perturbs the simulated timeline, so the
    reported numbers are identical either way.
    """
    tracing = trace_dir is not None
    if tracing:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for name in workloads or list(WORKLOADS):
        row: dict = {"workload": name}
        # native reference
        dep = build_deployment(
            "native", DgsfConfig(num_gpus=1, seed=seed, tracing_enabled=tracing)
        )
        dep.setup()
        register_workloads(dep.platform, names=[name])
        inv, proc = dep.platform.invoke(name)
        dep.env.run(until=proc)
        row["native"] = round(_gpu_time(inv), 3)
        if tracing:
            _dump_trace(dep, inv, trace_dir, f"{name}_native")
        # cumulative DGSF steps
        for label, flags in ABLATION_STEPS:
            cfg = DgsfConfig(num_gpus=1, seed=seed, optimizations=flags,
                             tracing_enabled=tracing)
            dep = DgsfDeployment(cfg)
            dep.setup()
            register_workloads(dep.platform, names=[name])
            inv, proc = dep.platform.invoke(name)
            dep.env.run(until=proc)
            row[label] = round(_gpu_time(inv), 3)
            if tracing:
                _dump_trace(dep, inv, trace_dir, f"{name}_{label.lstrip('+')}")
        rows.append(row)
    return rows
