"""Full-stack sharding tests (repro.faas.topology + repro.sim.shard).

Each group hosts a complete DgsfDeployment (servers, scheduler, API
backend); the shard layout must be an implementation detail — the merged
outcome summary has to be identical whether the groups share one
Environment or are split across shards.
"""

import pytest

from repro.errors import ConfigurationError
from repro.faas.topology import (
    DEFAULT_LOOKAHEAD_S,
    DGSF_PLAN_START_S,
    dgsf_collect,
    dgsf_scenario,
    pool_collect,
    pool_scenario,
)
from repro.sim.shard import run_sharded

DGSF_ARGS = (2, 2, 2.0)        # copies, num_gpus, mean_gap_s
HORIZON_S = 4000.0


def run_dgsf(num_shards, seed=0, until=HORIZON_S, lookahead=None, **kw):
    scenario_args = kw.pop("scenario_args", DGSF_ARGS)
    return run_sharded(
        dgsf_scenario, num_shards=num_shards, total_groups=2, seed=seed,
        scenario_args=scenario_args, collect=dgsf_collect,
        until=until, lookahead_s=lookahead, mode="inline", **kw,
    )


# full-stack runs are the slow part of this module; tests that only read
# a run's result share one instead of re-running it
@pytest.fixture(scope="module")
def split():
    return run_dgsf(2)


@pytest.fixture(scope="module")
def traced_split():
    return run_dgsf(2, scenario_args=(2, 2, 2.0, None, True),
                    lookahead=DEFAULT_LOOKAHEAD_S, tracing=True)


def test_dgsf_outcome_invariant_across_shard_layouts(split):
    """Co-resident (1 shard) vs one-deployment-per-shard (2 shards)."""
    solo = run_dgsf(1)
    assert solo.merged == split.merged
    assert solo.merged_digest == split.merged_digest
    for row in solo.merged.values():
        assert row["outcomes"]["total"] == row["n"] >= 1
        assert row["outcomes"]["all_terminal"]


def test_dgsf_merged_outcome_is_seed_stable(split):
    # Note: the outcome *summary* is insensitive to the seed itself at this
    # scale (kernel durations are deterministic and DGSF shares GPUs, so
    # e2e doesn't depend on arrival spacing) — the property under test is
    # that repeated runs of one seed are digest-identical.
    assert run_dgsf(2).merged_digest == split.merged_digest


def test_dgsf_collect_raises_when_horizon_truncates_plan():
    # The plan starts at DGSF_PLAN_START_S; a horizon before any
    # invocation can complete must fail loudly, not report partial data.
    with pytest.raises(ConfigurationError):
        run_dgsf(1, until=DGSF_PLAN_START_S + 0.5)


def test_pool_collect_raises_on_incomplete_invocations():
    # Cut the run off mid-stream: invocations are still in flight.
    with pytest.raises(ConfigurationError):
        run_sharded(
            pool_scenario, num_shards=1, total_groups=2, seed=7,
            scenario_args=(500, 2, 0.05, 0.18, None, 0),
            collect=pool_collect, until=1.0, mode="inline",
        )


def test_traced_dgsf_stitches_cross_shard_report(traced_split):
    """The acceptance bar: a control-plane envelope carrying trace context
    joins spans from both shards into one trace tree in the merged trace."""
    r = traced_split
    assert r.tracer is not None and r.trace_digest != 0
    assert r.n_envelopes >= 1
    assert isinstance(r.alerts, list)
    reports = [rec for rec in r.tracer.records
               if rec.name == "envelope:send"
               and rec.args.get("channel") == "report"]
    assert len(reports) == 1
    stitch_trace = reports[0].trace_id
    trace_spans = [rec for rec in r.tracer.records
                   if rec.trace_id == stitch_trace]
    tracks = {rec.pid.split("/", 1)[0] for rec in trace_spans}
    assert {"shard0", "shard1"} <= tracks  # the tree really crosses shards
    cats = {rec.cat for rec in trace_spans}
    assert "invocation" in cats           # rooted at a real invocation
    names = {rec.name for rec in trace_spans}
    assert "envelope:recv" in names       # delivered on the far shard


def test_tracing_leaves_dgsf_outcome_unchanged(traced_split):
    plain = run_dgsf(2, lookahead=DEFAULT_LOOKAHEAD_S)
    traced = traced_split
    assert traced.merged == plain.merged
    assert traced.merged_digest == plain.merged_digest
    assert traced.n_epochs == plain.n_epochs
    assert traced.n_envelopes == plain.n_envelopes


def test_pool_latencies_are_aggregated_in_invocation_order():
    r = run_sharded(
        pool_scenario, num_shards=2, total_groups=2, seed=7,
        scenario_args=(100, 2, 0.05, 0.18, None, 0),
        collect=pool_collect, mode="inline",
    )
    for row in r.merged.values():
        assert row["n"] == 100
        assert 0.0 < row["p50_ms"] <= row["p95_ms"] <= row["max_ms"]
