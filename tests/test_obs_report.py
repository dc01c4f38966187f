"""End-to-end observability acceptance tests.

The bar: a traced run exports valid Chrome trace-event JSON whose
per-invocation span tree sums (within rounding) to the invocation's
measured end-to-end latency, with phase attribution — the critical path
swept at the phase level — covering >= 95% of wall sim-time, and tracing
must not perturb the simulated timeline at all.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import DgsfConfig
from repro.core.stats import summarize_invocations, summarize_outcomes
from repro.experiments.runner import (
    make_plan,
    run_mixed_scenario,
    run_single_invocation,
    run_single_invocation_traced,
)
from repro.obs import aggregate_critpaths, invocation_critpaths
from repro.obs.critpath import PHASE_LEVEL
from repro.workloads import WORKLOADS

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def single_runs():
    """One uncontended traced invocation per paper workload."""
    return {name: run_single_invocation_traced(name, "dgsf")
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def traced_face_id(single_runs):
    return single_runs["face_identification"]


@pytest.fixture(scope="module")
def attribution_runs(single_runs):
    """``(tracer, invocations)`` pairs: the six single invocations plus a
    12-invocation mixed plan whose contended phases are recorded
    retroactively and may overlap at float-rounding scale."""
    mixed = run_mixed_scenario(
        DgsfConfig(num_gpus=2, seed=3, tracing_enabled=True),
        make_plan("exponential", seed=3, copies=2),
    )
    runs = [(dep.tracer, [inv]) for inv, dep in single_runs.values()]
    return runs + [(mixed.deployment.tracer, mixed.invocations)]


def phase_rows(tracer, invocations):
    return invocation_critpaths(tracer, invocations, level=PHASE_LEVEL)


def direct_phase_sums(records):
    """Reference phase breakdown: the summed durations of the root's
    direct ``phase`` children, and their share of the root span."""
    root = next(r for r in records if r.ph == "X" and r.cat == "invocation")
    phases: dict[str, float] = {}
    for r in records:
        if r.ph == "X" and r.cat == "phase" and r.parent_id == root.span_id:
            phases[r.name] = phases.get(r.name, 0.0) + r.duration_s
    return phases, sum(phases.values()) / root.duration_s


# --- the acceptance bar ------------------------------------------------------

def test_span_tree_sums_to_measured_e2e(traced_face_id):
    inv, dep = traced_face_id
    (row,) = phase_rows(dep.tracer, [inv])
    assert row["e2e_matches_span"] is True
    assert abs(row["e2e_s"] - inv.e2e_s) < 1e-9
    assert row["status"] == "completed"
    assert row["workload"] == "face_identification"


def test_phase_attribution_covers_95_percent(traced_face_id):
    inv, dep = traced_face_id
    (row,) = phase_rows(dep.tracer, [inv])
    assert row["coverage"] >= 0.95
    # phase spans match the invocation's own phase dict exactly
    for name, seconds in inv.phases.items():
        assert row["phases"][name] == pytest.approx(seconds, abs=1e-12)


def test_phase_level_matches_direct_phase_sums(attribution_runs):
    """The phase-level sweep reproduces the sum of each root's direct
    phase children, row by row, for single and mixed runs alike."""
    for tracer, invocations in attribution_runs:
        by_trace = tracer.by_trace()
        rows = phase_rows(tracer, invocations)
        assert len(rows) == len(invocations)
        for row in rows:
            phases, coverage = direct_phase_sums(by_trace[row["trace_id"]])
            assert set(row["phases"]) == set(phases)
            for name, seconds in phases.items():
                assert row["phases"][name] == pytest.approx(seconds, abs=1e-12)
            assert row["coverage"] == pytest.approx(coverage, abs=1e-12)


def test_phase_coverage_never_exceeds_resource_coverage(attribution_runs):
    """Instants a phase covers are a subset of instants any non-root span
    covers, so the phase level can never explain more wall time."""
    for tracer, invocations in attribution_runs:
        resource_rows = invocation_critpaths(tracer, invocations)
        for phase, resource in zip(phase_rows(tracer, invocations),
                                   resource_rows):
            assert phase["trace_id"] == resource["trace_id"]
            assert phase["coverage"] <= resource["coverage"] + 1e-12


def test_tracing_does_not_perturb_the_timeline(single_runs):
    """Bit-identical latency with tracing on vs off (same seed)."""
    baseline = run_single_invocation("kmeans", "dgsf")
    traced, dep = single_runs["kmeans"]
    assert traced.e2e_s == baseline.e2e_s
    assert traced.phases == baseline.phases
    assert dep.tracer.dropped == 0


def test_chrome_export_is_valid_and_complete(traced_face_id, tmp_path):
    inv, dep = traced_face_id
    path = tmp_path / "trace.json"
    dep.tracer.dump_chrome(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    phs = {e["ph"] for e in doc["traceEvents"]}
    assert phs <= {"M", "X", "i"}
    names = {e["name"] for e in doc["traceEvents"]}
    # every layer shows up: platform root, phases, guest RPC, server exec,
    # GPU queue
    assert "invocation:face_identification" in names
    assert "download" in names and "processing" in names
    assert any(n.startswith("rpc:") for n in names)
    assert any(n.startswith("srv:") for n in names)
    assert "gpu_request" in names


def test_cross_layer_spans_share_the_trace(traced_face_id):
    inv, dep = traced_face_id
    records = dep.tracer.by_trace()[inv.trace_id]
    cats = {r.cat for r in records}
    assert {"invocation", "phase", "rpc", "server", "queue"} <= cats
    root = next(r for r in records if r.cat == "invocation")
    # server spans are stitched in via the propagated wire context
    for r in records:
        if r.cat in ("rpc", "queue"):
            assert r.parent_id == root.span_id


# --- aggregation -------------------------------------------------------------

def test_aggregate_and_table_rows(traced_face_id):
    inv, dep = traced_face_id
    rows = phase_rows(dep.tracer, [inv])
    agg = aggregate_critpaths(rows, PHASE_LEVEL)
    assert agg["count"] == 1
    assert agg["coverage_min"] >= 0.95
    assert agg["e2e"]["p50"] == pytest.approx(inv.e2e_s)
    # the per-workload phase table profile_report prints
    table = agg["workloads"]["face_identification"]
    assert set(table["phases"]) == set(inv.phases)
    for stats in [table["e2e"], *table["phases"].values()]:
        assert {"mean", "p50", "p95", "p99"} <= set(stats)


def test_aggregate_empty_rows():
    assert aggregate_critpaths([], PHASE_LEVEL) == {"count": 0, "workloads": {}}


# --- registry-backed summary views -------------------------------------------

def test_run_stats_percentiles(traced_face_id):
    inv, _ = traced_face_id
    stats = summarize_invocations([inv])
    assert stats.p50_e2e_s == pytest.approx(inv.e2e_s)
    ws = stats.per_workload["face_identification"]
    assert ws.p95_e2e_s == pytest.approx(inv.e2e_s)
    row = ws.as_row()
    assert {"p50_e2e_s", "p95_e2e_s", "p99_e2e_s"} <= set(row)
    assert {"p50_e2e_s", "p95_e2e_s", "p99_e2e_s"} <= set(stats.as_dict())


def test_outcome_summary_from_registry(traced_face_id):
    """The platform's ``invocation.status`` counters and the census over
    the invocation list agree."""
    inv, dep = traced_face_id
    counts = {
        metric.labels["status"]: int(metric.value)
        for metric in dep.metrics.find("invocation.status")
    }
    assert counts == summarize_outcomes([inv]).counts == {"completed": 1}


def test_cache_stats_from_registry():
    inv, dep = run_single_invocation_traced(
        "kmeans", "dgsf_warm", DgsfConfig(num_gpus=1)
    )
    hits = dep.metrics.total("artifact_cache.hits")
    assert hits > 0
    # the registry total and the per-server cache counters agree
    summed = sum(
        s.artifact_cache.hits for s in dep.gpu_server.api_servers
        if s.artifact_cache is not None
    )
    assert hits == summed


# --- the CLI -----------------------------------------------------------------

def test_profile_report_cli_smoke(tmp_path):
    out_dir = tmp_path / "prof"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "profile_report.py"),
         "--workload", "kmeans", "--out-dir", str(out_dir),
         "--min-coverage", "0.95"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "trace validation OK" in proc.stdout
    for name in ("trace.json", "breakdown.json", "metrics.json"):
        assert (out_dir / name).exists()
    breakdown = json.loads((out_dir / "breakdown.json").read_text())
    assert breakdown["aggregate"]["coverage_min"] >= 0.95


def test_breakdowns_skip_invocations_without_traces(traced_face_id):
    """A workload with zero completed (traced) invocations yields no rows
    and an empty aggregate — never a partial row or a crash."""
    inv, dep = traced_face_id

    class Untraced:
        trace_id = None

    rows = phase_rows(dep.tracer, [Untraced()])
    assert rows == []
    assert aggregate_critpaths(rows, PHASE_LEVEL) == {"count": 0, "workloads": {}}
