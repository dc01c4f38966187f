"""Smoke checks on simulation-kernel performance.

Guards the event-loop hot path (``Environment.run``/``step``) and the
``Store`` fast path against accidental slowdowns.  The throughput floor
is deliberately loose — it catches order-of-magnitude regressions (an
accidentally quadratic scan, per-event allocation storms), not CI noise.
"""

import time

import pytest

from repro.core.api_server import ApiServer
from repro.core.config import DgsfConfig
from repro.experiments.llm_ablation import run_llm_scenario
from repro.experiments.runner import build_deployment
from repro.sim import Environment
from repro.simcuda.phys import PhysicalAllocation
from repro.workloads import register_workloads


def test_event_loop_throughput_floor():
    env = Environment()

    def ticker():
        for _ in range(30_000):
            yield env.timeout(0.001)

    env.process(ticker())
    t0 = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - t0
    assert env.events_processed >= 30_000
    rate = env.events_processed / max(elapsed, 1e-9)
    # Pure-Python heap loop comfortably clears hundreds of k events/s;
    # fail only on an order-of-magnitude collapse.
    assert rate > 50_000, f"event loop slowed to {rate:.0f} events/s"


def test_run_until_deadline_uses_fast_path():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1.0)

    env.process(ticker())
    env.run(until=500.5)
    assert env.now == 500.5
    assert env.events_processed >= 500


def test_invocation_event_budget():
    """Event-count ceiling for a standard invocation: pipelining/caching
    layers must not silently multiply kernel events (13.5k at capture)."""
    dep = build_deployment("dgsf", DgsfConfig(num_gpus=1, seed=0))
    dep.setup()
    register_workloads(dep.platform, names=["face_identification"])
    inv, proc = dep.platform.invoke("face_identification")
    dep.env.run(until=proc)
    assert inv.status == "completed"
    assert dep.env.events_processed <= 17_000


@pytest.mark.parametrize("workload, kwargs", [
    ("llm_chat", dict(copies=2)),
    ("llm_chat_storm", dict(copies=2, burst_gap_s=0.15)),
])
def test_kv_pages_never_get_a_backing_buffer(monkeypatch, workload, kwargs):
    """Memory ceiling for LLM serving: a KV page is accounting only, so
    no page may ever be zero-filled host memory — checked when the page
    is released and, for pages still live, at the end of the run."""
    pages, materialized_at_release = set(), []
    llm_alloc, release = ApiServer._llm_alloc, PhysicalAllocation.release

    def recording_alloc(server, size):
        va = yield from llm_alloc(server, size)
        mapping, _ = server.memory_context.address_space.translate(va)
        pages.add(mapping.allocation)
        return va

    def checked_release(alloc):
        if alloc in pages:
            materialized_at_release.append(alloc.materialized)
        release(alloc)

    monkeypatch.setattr(ApiServer, "_llm_alloc", recording_alloc)
    monkeypatch.setattr(PhysicalAllocation, "release", checked_release)
    records, _ = run_llm_scenario(workload, "continuous", tracing_enabled=False,
                                  **kwargs)
    assert all(rec.status == "completed" for rec in records)
    assert materialized_at_release, "no KV page was released"
    assert not any(materialized_at_release)
    assert not any(page.materialized for page in pages)
