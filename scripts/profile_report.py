#!/usr/bin/env python3
"""Trace one invocation (or a mixed run) and emit profiling artifacts.

Runs a workload with span tracing enabled, then writes next to each other:

* ``trace.json`` — Chrome trace-event JSON (load in Perfetto or
  ``chrome://tracing``),
* ``breakdown.json`` — per-invocation phase attribution (the critical
  path swept at the phase level) plus p50/p95/p99 aggregates,
* ``critpath.json`` — per-invocation critical-path resource attribution
  (queue / wire / serialization / gpu_compute / object_store / cpu) and
  the top-bottleneck-by-workload table,
* ``flame.folded`` (with ``--flame``, default on) — folded critical-path
  stacks, loadable in speedscope or FlameGraph's ``flamegraph.pl``,
* ``alerts.json`` — the SLO engine's alert transition log,
* ``metrics.json`` — the metrics-registry snapshot.

It also *validates* the trace: every invocation's root span must equal
its measured end-to-end latency, and both the phase spans and the
critical path must attribute at least ``--min-coverage`` of that time.
A violation exits non-zero, which makes this script double as the
observability smoke test in ``scripts/verify.sh``.

With ``--sharded DIR`` it switches roles: instead of running anything it
inspects a flight-recorder bundle written by ``scripts/shard_report.py``
(or ``repro.obs.flight.write_flight_bundle``), prints the manifest
summary, and validates the bundle end to end — a directory missing the
per-shard payloads (no manifest, missing ``records.json``/``trace.json``,
digest mismatch) exits non-zero with a readable problem list, never a
traceback.

Usage::

    python scripts/profile_report.py --workload kmeans --out-dir /tmp/prof
    python scripts/profile_report.py --mixed --copies 3 --min-coverage 0.95
    python scripts/profile_report.py --mixed --flame /tmp/prof/flame.folded
    python scripts/profile_report.py --sharded /tmp/flight
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import DgsfConfig
from repro.experiments.runner import (
    make_plan,
    run_mixed_scenario,
    run_single_invocation_traced,
)
from repro.obs import bottleneck_table, critpath_report, dump_folded, folded_stacks
from repro.obs.critpath import PHASE_LEVEL
from repro.workloads import ALL_WORKLOAD_NAMES


def _e2e_mismatches(rows: list[dict]) -> list[str]:
    return [
        f"invocation {row['invocation_id']} ({row['workload']}): root span "
        f"{row['e2e_s']:.6f}s != measured e2e {row['measured_e2e_s']:.6f}s"
        for row in rows if row.get("e2e_matches_span") is False
    ]


def _sharded_report(bundle_dir: Path, min_coverage: float) -> int:
    """Summarize + validate a flight-recorder bundle; 0 = valid."""
    from repro.obs import validate_flight_bundle

    manifest_path = bundle_dir / "manifest.json"
    if not bundle_dir.is_dir() or not manifest_path.is_file():
        print(f"not a flight-recorder bundle: {bundle_dir} has no "
              f"manifest.json — expected a directory written by "
              f"scripts/shard_report.py (run_sharded with tracing=True)",
              file=sys.stderr)
        return 1
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"unreadable manifest.json in {bundle_dir}: {exc}",
              file=sys.stderr)
        return 1

    print(f"bundle:  {bundle_dir}")
    print(f"run:     {manifest.get('num_shards')} shard(s) x "
          f"{manifest.get('total_groups')} group(s), "
          f"mode={manifest.get('mode')}, "
          f"lookahead_s={manifest.get('lookahead_s')}")
    print(f"volume:  {manifest.get('events_processed'):,} events, "
          f"{manifest.get('n_epochs'):,} epochs, "
          f"{manifest.get('n_envelopes')} envelope(s), "
          f"{manifest.get('n_span_records'):,} spans, "
          f"{manifest.get('n_alerts')} alert(s)")

    problems = validate_flight_bundle(bundle_dir, min_coverage=min_coverage)
    if problems:
        print(f"\nsharded bundle validation FAILED "
              f"({len(problems)} problem(s)):", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print(f"\nsharded bundle validation OK: trace digest "
          f"{manifest['trace_digest']:#x}, coverage >= {min_coverage}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="kmeans",
                        choices=ALL_WORKLOAD_NAMES)
    parser.add_argument("--variant", default="dgsf",
                        help="execution variant for single-invocation mode")
    parser.add_argument("--mixed", action="store_true",
                        help="trace a mixed-arrival scenario instead of one "
                             "uncontended invocation")
    parser.add_argument("--copies", type=int, default=2,
                        help="instances per workload in --mixed mode")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="profile_out")
    parser.add_argument("--min-coverage", type=float, default=0.95,
                        help="minimum fraction of each invocation's e2e time "
                             "that phase spans (and the critical path) must "
                             "attribute")
    parser.add_argument("--sample-rate", type=float, default=1.0,
                        help="head-sampling rate for traces (DgsfConfig."
                             "trace_sample_rate); tail-keep rules still "
                             "retain errored/alerting/latency-max traces, "
                             "and validation runs over the kept set")
    parser.add_argument("--flame", nargs="?", const="", default="",
                        metavar="PATH",
                        help="folded flamegraph output path (default: "
                             "<out-dir>/flame.folded); pass --no-flame to skip")
    parser.add_argument("--no-flame", action="store_true",
                        help="skip the folded flamegraph export")
    parser.add_argument("--sharded", metavar="DIR", default=None,
                        help="summarize + validate a flight-recorder bundle "
                             "from a sharded run instead of tracing anything")
    args = parser.parse_args(argv)

    if args.sharded is not None:
        return _sharded_report(Path(args.sharded), args.min_coverage)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.mixed:
        config = DgsfConfig(num_gpus=2, seed=args.seed, tracing_enabled=True,
                            trace_sample_rate=args.sample_rate)
        plan = make_plan("exponential", seed=args.seed, copies=args.copies)
        result = run_mixed_scenario(config, plan)
        dep, invocations = result.deployment, result.invocations
    else:
        inv, dep = run_single_invocation_traced(
            args.workload, args.variant,
            DgsfConfig(num_gpus=1, seed=args.seed,
                       trace_sample_rate=args.sample_rate),
        )
        invocations = [inv]
    if args.sample_rate < 1.0:
        # sampled-out invocations have no spans; validate the kept set
        kept = set(dep.tracer.by_trace())
        invocations = [inv for inv in invocations
                       if getattr(inv, "trace_id", None) in kept]

    trace_path = out_dir / "trace.json"
    dep.tracer.dump_chrome(trace_path)
    phases = critpath_report(dep.tracer, invocations,
                             min_coverage=args.min_coverage, level=PHASE_LEVEL)
    (out_dir / "breakdown.json").write_text(json.dumps(
        {"per_invocation": phases["per_invocation"],
         "aggregate": phases["aggregate"],
         "tracer": dep.tracer.summary()},
        indent=2, sort_keys=True,
    ))
    (out_dir / "metrics.json").write_text(
        json.dumps(dep.metrics.as_dict(), indent=2, sort_keys=True)
    )

    # critical-path attribution + flamegraph + SLO alert log
    crit = critpath_report(dep.tracer, invocations,
                           min_coverage=args.min_coverage)
    (out_dir / "critpath.json").write_text(json.dumps(
        {"per_invocation": crit["per_invocation"],
         "aggregate": crit["aggregate"],
         "bottlenecks": bottleneck_table(crit["aggregate"])},
        indent=2, sort_keys=True,
    ))
    flame_path = None
    if not args.no_flame:
        flame_path = Path(args.flame) if args.flame else out_dir / "flame.folded"
        n_stacks = dump_folded(folded_stacks(dep.tracer, invocations), flame_path)
    (out_dir / "alerts.json").write_text(json.dumps(
        {"alerts": dep.slo.alert_log(), "summary": dep.slo.summary()},
        indent=2, sort_keys=True,
    ))

    print(f"trace:     {trace_path} ({dep.tracer.summary()['spans']} spans)")
    print(f"breakdown: {out_dir / 'breakdown.json'}")
    print(f"critpath:  {out_dir / 'critpath.json'}")
    if flame_path is not None:
        print(f"flame:     {flame_path} ({n_stacks} stacks)")
    print(f"alerts:    {out_dir / 'alerts.json'} "
          f"({len(dep.slo.alerts)} transitions)")
    print(f"metrics:   {out_dir / 'metrics.json'}")
    print()
    header = f"{'workload':<22}{'phase':<16}{'mean_s':>9}{'p50_s':>9}{'p95_s':>9}{'p99_s':>9}"
    print(header)
    print("-" * len(header))
    for workload, agg in phases["aggregate"]["workloads"].items():
        for phase, stats in sorted(agg["phases"].items()) + [("e2e", agg["e2e"])]:
            print(f"{workload:<22}{phase:<16}{stats['mean']:>9.4f}"
                  f"{stats['p50']:>9.4f}{stats['p95']:>9.4f}{stats['p99']:>9.4f}")
    print()
    header2 = f"{'workload':<22}{'pct':<6}{'bottleneck':<14}{'seconds':>9}{'share':>8}"
    print(header2)
    print("-" * len(header2))
    for row in bottleneck_table(crit["aggregate"]):
        print(f"{row['workload']:<22}{row['percentile']:<6}"
              f"{row['bottleneck']:<14}{row['seconds']:>9.3f}"
              f"{row['share']:>8.3f}")
    if dep.tracer.dropped:
        print(f"WARNING: tracer dropped {dep.tracer.dropped} spans "
              f"(max_spans={dep.tracer.max_spans})", file=sys.stderr)
    sampling = dep.tracer.summary().get("sampling")
    if sampling is not None:
        tail = sum(sampling["tail_kept"].values())
        print(f"sampling:  rate={sampling['rate']} "
              f"kept={sampling['head_kept'] + tail} "
              f"(head={sampling['head_kept']}, tail={tail}) "
              f"out={sampling['out_traces']}, "
              f"{dep.tracer.sampled_out} span(s) sampled out")

    problems = (_e2e_mismatches(phases["per_invocation"])
                + phases["violations"] + crit["violations"])
    if problems:
        print("\ntrace validation FAILED:", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 1
    print(f"\ntrace validation OK: {len(phases['per_invocation'])} invocation(s), "
          f"coverage >= {args.min_coverage}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
