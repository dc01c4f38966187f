"""Shard-count scale-out ablation (extension beyond the paper).

Runs the independent-GPU-pool workload (:func:`repro.faas.topology.pool_scenario`)
under the sharded runtime (:mod:`repro.sim.shard`) at increasing shard
counts and reports aggregate event throughput, wall time and the
merged-outcome digest per row — the experiment behind ROADMAP item 5.
Two scenarios:

* ``pool`` — independent M/M/c GPU pools, no cross-group traffic (one
  barrier per run);
* ``sync`` — the same pools plus heartbeat envelopes to group 0, which
  exercise the conservative epoch barriers.

Interpretation: events/sec should scale with shard count *up to the
machine's core count*; with fewer cores than shards the speedup honestly
degrades to ≈1× (the workers timeslice).  Every row records the merged
digest, so a run doubles as a shard-count-invariance check
(:func:`invariance_problems`: all rows of a scenario must agree).

``python -m repro.experiments shard`` prints the table; ``scripts/bench.py``
builds ``BENCH_shard.json`` from :func:`run`, :func:`tracing_rows` and
:func:`single_process_pop_crc`.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, SimulationError
from repro.faas.topology import pool_collect, pool_scenario
from repro.sim.shard import ShardSim, ShardSpec, pop_order_crc, run_sharded

__all__ = ["run", "tracing_rows", "single_process_pop_crc",
           "invariance_problems", "SCENARIOS", "SHARD_COUNTS"]

#: default scale-out ladder of the experiments CLI
SHARD_COUNTS = (1, 2, 4, 8)

SCENARIOS = ("pool", "sync")

#: (mean_gap_s, service_mean_s, num_gpus) of the M/M/c pool per group
POOL_PARAMS = (0.05, 0.18, 4)

#: heartbeat period and lookahead of the ``sync`` scenario
SYNC_HEARTBEAT_S = 10.0
SYNC_LOOKAHEAD_S = 5.0


def _setup(scenario: str, invocations: int, groups: int):
    """(scenario_args, lookahead_s) for one total-invocation budget."""
    per_group = invocations // groups
    if per_group <= 0:
        raise ConfigurationError(
            f"invocations {invocations} < groups {groups}")
    gap_s, service_s, gpus = POOL_PARAMS
    if scenario == "pool":
        return (per_group, gpus, gap_s, service_s, None, 0), None
    if scenario == "sync":
        # Senders heartbeat group 0 for the span of the arrival stream.
        beats = max(1, int(per_group * gap_s / SYNC_HEARTBEAT_S))
        return ((per_group, gpus, gap_s, service_s, SYNC_HEARTBEAT_S, beats),
                SYNC_LOOKAHEAD_S)
    raise ConfigurationError(f"unknown shard scenario {scenario!r}")


def run(seed: int = 0, invocations: int = 1_000_000, groups: int = 8,
        shard_counts: tuple = SHARD_COUNTS, scenario: str = "pool",
        mode: str = "process", record_pop: bool = False) -> list[dict]:
    """Rows: one per shard count — throughput, wall, merged digest.

    ``scaleout`` is relative to the first shard count (1 by convention).
    ``record_pop`` adds the 1-shard run's ``(time, priority, eid)``
    pop-order CRC as ``pop_crc``.
    """
    args, lookahead = _setup(scenario, invocations, groups)
    rows = []
    base_eps = None
    for shards in shard_counts:
        pop = record_pop and shards == 1
        result = run_sharded(
            pool_scenario, num_shards=shards, total_groups=groups,
            seed=seed, lookahead_s=lookahead, scenario_args=args,
            collect=pool_collect, mode=mode, record_pop_trace=pop,
        )
        eps = result.events_processed / result.wall_s
        if base_eps is None:
            base_eps = eps
        row = {
            "scenario": scenario,
            "shards": shards,
            "groups": groups,
            "invocations": args[0] * groups,
            "n_events": result.events_processed,
            "n_epochs": result.n_epochs,
            "n_envelopes": result.n_envelopes,
            "merged_crc": result.merged_digest,
            "wall_s": round(result.wall_s, 3),
            "events_per_sec": round(eps, 1),
            "scaleout": round(eps / base_eps, 3),
        }
        if pop:
            row["pop_crc"] = result.pop_crc
        rows.append(row)
    return rows


def invariance_problems(rows: list[dict]) -> list[str]:
    """One message per scenario whose merged digest differs across shards."""
    by_scenario: dict = {}
    for row in rows:
        by_scenario.setdefault(row["scenario"], {})[row["shards"]] = \
            row["merged_crc"]
    return [
        f"{scenario} merged-outcome digest differs across shard counts: "
        f"{ {shards: hex(crc) for shards, crc in crcs.items()} }"
        for scenario, crcs in by_scenario.items()
        if len(set(crcs.values())) > 1
    ]


def tracing_rows(invocations: int, groups: int, seed: int,
                 mode: str = "process", shards: int = 2) -> list[dict]:
    """Each scenario with tracing off vs on at one fixed shard count.

    The shard count is pinned because the merged trace's track names carry
    shard prefixes — the *outcome* digest is shard-count-invariant, the
    trace digest deliberately is not.  Raises :class:`SimulationError` if
    tracing changes the merged outcome (tracing is pure bookkeeping).
    """
    rows = []
    for scenario in SCENARIOS:
        args, lookahead = _setup(scenario, invocations, groups)
        common = dict(
            num_shards=shards, total_groups=groups, seed=seed,
            lookahead_s=lookahead, scenario_args=args,
            collect=pool_collect, mode=mode,
        )
        base = run_sharded(pool_scenario, **common)
        traced = run_sharded(pool_scenario, tracing=True, **common)
        if traced.merged_digest != base.merged_digest:
            raise SimulationError(
                f"tracing perturbed the run: {scenario} merged-outcome "
                f"digest {base.merged_digest:#x} -> {traced.merged_digest:#x}"
            )
        base_eps = base.events_processed / base.wall_s
        traced_eps = traced.events_processed / traced.wall_s
        rows.append({
            "scenario": scenario,
            "shards": shards,
            "groups": groups,
            "invocations": args[0] * groups,
            "n_events": traced.events_processed,
            "merged_crc": traced.merged_digest,
            "trace_digest": traced.trace_digest,
            "n_spans": traced.tracer.n_records,
            "n_envelopes": traced.n_envelopes,
            "events_per_sec_ratio": round(traced_eps / base_eps, 3),
        })
    return rows


def single_process_pop_crc(invocations: int, groups: int, seed: int) -> int:
    """Pop-order CRC of the ``pool`` world run as one plain ``env.run()``.

    Must equal the 1-shard run's ``pop_crc``: epoch stepping adds zero
    events and reorders nothing.
    """
    args, _ = _setup("pool", invocations, groups)
    spec = ShardSpec(
        shard_id=0, num_shards=1, groups=tuple(range(groups)),
        total_groups=groups, seed=seed, lookahead_s=float("inf"),
        scenario=pool_scenario, scenario_args=args, collect=pool_collect,
        record_pop_trace=True,
    )
    sim = ShardSim(spec)
    sim.env.run()
    return pop_order_crc(sim.env._pop_trace)
