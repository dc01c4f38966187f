#!/usr/bin/env python3
"""Full-stack DGSF benchmark: simulated work per host second.

Runs one workload as a batch job against the simulator in ``src/`` of
the checkout it lives in, checks the simulated outcome, and prints as its
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics from untraced repetitions; ``--trace 1`` reports the per-layer
metrics from one traced repetition (plus the untraced repetitions it is
compared against).  Lines before the last start with ``#`` and say how
each tail was taken.  See ``perfbench/README.md``.

Usage::

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload kv_storm --seed 1 --seconds 30 --trace 1
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchstats import failure_counts, tail_value
from layertimer import LAYERS, SLICES, LayerTimer, find_wrappers
from scenarios import WORKLOADS, prepare, run_rep

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: seed used while a change is written, and the held-out seed a claimed
#: gain is rechecked on afterwards
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

#: set-up is timed in this many fresh processes; the median is reported
SETUP_PROBES = 3
#: untraced repetitions the traced one is compared against: at least
#: this many, more while a third of ``--seconds`` has not passed
UNTRACED_REPS = 2

#: end-to-end metric -> unit (printed with --trace 0)
END_TO_END = {
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
    "sim_makespan_s": "s",
    "sim_latency_mean_s": "s",
    "sim_latency_tail_s": "s",
}

#: per-layer metric -> unit (printed with --trace 1)
PER_LAYER = {
    "sim.events": "count",
    "sim.processes": "count",
    "sim.us_per_event": "us",
    "simnet.messages": "count",
    "simnet.wire_bytes": "bytes",
    "simcuda.kernel_launches": "count",
    "core.guest.calls_intercepted": "count",
    "core.guest.calls_localized": "count",
    "core.guest.calls_batched": "count",
    "core.guest.remoted_frac": "ratio",
    "core.scheduler.grants": "count",
    "core.scheduler.queue_wait_p50_s": "s",
    "core.scheduler.queue_wait_tail_s": "s",
    "core.decode.iterations": "count",
    "core.decode.tokens_per_iteration": "ratio",
    "core.decode.preemptions": "count",
    "core.decode.kv_denials": "count",
    "core.decode.recomputes": "count",
    "core.monitor.committed_peak_frac": "ratio",
    "obs.spans_recorded": "count",
    "obs.spans_sampled_out": "count",
    "obs.spans_dropped": "count",
    "faas.download_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer, _ in LAYERS},
    **{name: "s" for name in SLICES},
    "unattributed_s": "s",
    "traced_wall_s": "s",
    "trace_overhead_frac": "ratio",
    "failed_frac": "ratio",
    "sim_e2e_p50_s": "s",
    "sim_token_p50_ms": "ms",
    "sim_token_p99_ms": "ms",
    "sim_ttft_tail_s": "s",
}

ENDPOINT_SEND = "repro.simnet.net.Endpoint.send"
KERNEL_LAUNCH = "repro.simcuda.context.CudaContext.launch_kernel"
GUEST_SENDS = tuple(f"repro.simnet.rpc.RpcClient.{m}"
                    for m in ("call_async", "call_oneway", "call_batch"))
DOWNLOAD = "repro.faas.storage.ObjectStore.download"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator at {SRC}/repro; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        prepare(workload, workload.sub_seeds(args.seed)[0])
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"run.py: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    run = traced_run if args.trace else timed_run
    print(json.dumps(run(workload, args.seed, args.seconds)))
    return 0


# ----------------------------------------------------------------------
# repetitions and checks
# ----------------------------------------------------------------------

def _repeat(workload, sub_seeds, seconds, min_reps):
    """Run the sub-plans in turn until ``seconds`` pass (``min_reps`` at
    least); a fresh heap for each so one rep's garbage is not the next
    rep's pause."""
    reps = []
    t0 = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - t0 < seconds:
        gc.collect()
        reps.append(run_rep(workload, sub_seeds[len(reps) % len(sub_seeds)]))
    return reps


def _by_sub_plan(reps) -> dict:
    """sub-seed -> its reps, in first-run order."""
    groups: dict = {}
    for rep in reps:
        groups.setdefault(rep.sub_seed, []).append(rep)
    return groups


def _problems(reps) -> list[str]:
    """Every rep's own problems, plus any repeat whose outcome digest
    differs from the first rep of its sub-plan."""
    problems = [f"{rep.workload}/{rep.sub_seed}: {p}"
                for rep in reps for p in rep.problems]
    for first, *repeats in _by_sub_plan(reps).values():
        problems.extend(
            f"{rep.workload}/{rep.sub_seed}: outcome digest {rep.digest:#x} "
            f"!= {first.digest:#x} of the first run"
            for rep in repeats if rep.digest != first.digest)
    return problems


def _work_per_s(groups) -> float:
    """Work of one pass over the sub-plans per host second of that pass,
    each sub-plan timed by the median of its repetitions: the plans'
    differing costs are pooled, and one slow repetition of a sub-plan
    run three times or more is voted out."""
    work = sum(reps[0].work for reps in groups.values())
    wall = sum(statistics.median(r.run_wall_s for r in reps) for reps in groups.values())
    return work / wall


def _setup_probe(workload, seed) -> float:
    """Set-up time in a fresh process: imports, bring-up, registration."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, check=False,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _tail(values, label, pct=None):
    """Tail by the >=10-beyond rule, or the ``pct`` percentile; the
    maximum when there are too few samples for the rule.  Prints which
    one it took."""
    if pct is not None:
        print(f"# {label}: p{pct:g} of n={len(values)}")
        return statistics.quantiles(values, n=100)[round(pct) - 1]
    tail = tail_value(values)
    if tail is None:
        print(f"# {label}: max of n={len(values)} (too few for the tail rule)")
        return max(values, default=0.0)
    value, pct, n = tail
    print(f"# {label}: p{pct:.2f} of n={n}")
    return value


def _result(problems, attempted, completed, metrics, units):
    for problem in problems:
        print(f"# problem: {problem}")
    failed, _ = failure_counts(attempted, completed, problems)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _unwrapped_problems() -> list[str]:
    left = find_wrappers()
    return [f"benchmark wrappers present in timed code: {left[:5]}"] if left else []


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def timed_run(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics from untraced repetitions."""
    setup = [_setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    problems = _unwrapped_problems()
    sub_seeds = workload.sub_seeds(seed)
    # every sub-plan once, then sub-plan 0 again at least once, so every
    # run checks that a repeat reproduces the outcome digest
    reps = _repeat(workload, sub_seeds, seconds, min_reps=len(sub_seeds) + 1)
    problems += _problems(reps)
    groups = _by_sub_plan(reps)
    distinct = [group[0] for group in groups.values()]
    attempted = sum(rep.attempted for rep in reps)
    completed = sum(rep.completed for rep in reps)
    _, failed_frac = failure_counts(attempted, completed, problems)
    latencies = [x for rep in distinct for x in rep.latencies_s]
    print(f"# {workload.name} seed={seed}: {len(reps)} reps of "
          f"{len(distinct)} sub-plans; latency of one {workload.work_unit}")
    metrics = {
        "work_per_s": _work_per_s(groups),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": _peak_rss_mb(),
        "completed_frac": 1.0 - failed_frac,
        "sim_makespan_s": statistics.median(rep.makespan_s for rep in distinct),
        "sim_latency_mean_s": statistics.fmean(latencies),
        "sim_latency_tail_s": _tail(latencies, "sim_latency_tail_s",
                                    workload.tail_pct),
    }
    return _result(problems, attempted, completed, metrics, END_TO_END)


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics: untraced repetitions of the first sub-plan,
    then the same sub-plan once more under the layer timer."""
    problems = _unwrapped_problems()
    sub_seed = workload.sub_seeds(seed)[0]
    untraced = _repeat(workload, [sub_seed], seconds / 3, min_reps=UNTRACED_REPS)
    timer = LayerTimer()
    wrapped = timer.install()
    try:
        gc.collect()
        traced = run_rep(workload, sub_seed, timer=timer)
    finally:
        timer.uninstall()  # raises unless every wrapper is gone
    reps = untraced + [traced]
    problems += _problems(reps)  # traced digest == untraced digest
    if timer.balance_error() > 1e-6:
        problems.append(f"self times + unattributed miss the traced wall "
                        f"by {timer.balance_error():.3g} s")
    attempted = sum(rep.attempted for rep in reps)
    completed = sum(rep.completed for rep in reps)
    _, failed_frac = failure_counts(attempted, completed, problems)

    rep = untraced[0]
    counts = rep.counts
    calls = timer.calls
    untraced_wall = statistics.median(r.run_wall_s for r in untraced)
    intercepted = counts["core.guest.calls_intercepted"]
    guest_messages = sum(calls[key] for key in GUEST_SENDS)
    iterations = counts["core.decode.iterations"]
    tokens = rep.work if workload.work_unit == "token" else 0
    waits = rep.queue_waits_s
    print(f"# {workload.name} seed={seed}: sub-plan {sub_seed}, "
          f"{wrapped} entry points wrapped, {len(untraced)} untraced reps")
    metrics = {name: counts[name] for name in PER_LAYER if name in counts}
    metrics.update({
        "sim.us_per_event": untraced_wall / counts["sim.events"] * 1e6,
        "simnet.messages": calls[ENDPOINT_SEND],
        "simcuda.kernel_launches": calls[KERNEL_LAUNCH],
        "core.guest.remoted_frac": guest_messages / intercepted if intercepted else 0.0,
        "core.scheduler.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
        "core.scheduler.queue_wait_tail_s": _tail(waits, "core.scheduler.queue_wait_tail_s"),
        "core.decode.tokens_per_iteration": tokens / iterations if iterations else 0.0,
        "faas.download_bytes": sum(store.object_size(name)
                                   for store, _, name in timer.args_seen.get(DOWNLOAD, ())),
        "unattributed_s": timer.unattributed_s,
        "traced_wall_s": timer.wall_s,
        "trace_overhead_frac": timer.wall_s / untraced_wall - 1.0,
        "failed_frac": failed_frac,
        "sim_e2e_p50_s": statistics.median(rep.e2e_s),
        **{f"{layer}.self_s": timer.self_s.get(layer, 0.0) for layer, _ in LAYERS},
        **{name: timer.slice_s.get(name, 0.0) for name in SLICES},
    })
    if tokens:
        metrics["sim_token_p50_ms"] = statistics.median(rep.latencies_s) * 1e3
        metrics["sim_token_p99_ms"] = _tail(rep.latencies_s, "sim_token_p99_ms", 99) * 1e3
        metrics["sim_ttft_tail_s"] = _tail(rep.extra_latencies["ttft_s"], "sim_ttft_tail_s")
    else:
        metrics.update(sim_token_p50_ms=0.0, sim_token_p99_ms=0.0, sim_ttft_tail_s=0.0)
    return _result(problems, attempted, completed, metrics, PER_LAYER)


if __name__ == "__main__":
    sys.exit(main())
