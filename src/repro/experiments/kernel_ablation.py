"""Kernel event throughput: calendar-queue wheel vs the legacy heap.

Runs identical synthetic scenarios on the production kernel
(:class:`repro.sim.core.Environment`, calendar-queue event wheel) and on
the frozen pre-refactor kernel (:class:`repro.sim.legacy.LegacyHeapEnvironment`,
single binary heap).  :func:`run` returns three row sections:

* ``scenarios`` — one row per (scenario, impl): events processed, wall
  time split into the *schedule* phase (creating/queueing the timeouts)
  and the *run* phase (draining the event loop), and ``events_per_sec``
  = events processed / run-phase wall.  Each phase is timed with the
  cyclic GC disabled and the best of ``repeat`` runs is kept.
* ``speedups`` — per-scenario wheel-over-legacy ratio of ``events_per_sec``.
* ``order`` — a CRC32 digest of the full ``(time, priority, eid)`` pop
  sequence on a reduced copy of each scenario (``ORDER_EVENTS``, fixed,
  so the digests are comparable across event budgets).  The wheel is only
  a valid replacement if its pop order is bit-identical to the heap's.

Nondeterminism across repeats, diverging event populations and a pop
order mismatch raise :class:`~repro.errors.SimulationError`.

Scenarios
---------
``timer_flood``
    Fire-and-forget timeouts with uniformly random delays — the shape of
    cluster-scale arrival plans — scheduled through each kernel's
    idiomatic bulk path (``timeout_batch`` on the wheel, a ``timeout()``
    loop on the heap).
``timer_churn``
    Many concurrent processes each sleeping in a loop — the steady-state
    shape of the DGSF platform simulation (every event resumes a generator).
``cancel_storm``
    Invocation arrivals paired with watchdog deadlines, 95% of which are
    cancelled before they fire — the platform's deadline pattern; the
    cancelled entries stress tombstone draining.
"""

from __future__ import annotations

import gc
import random
import time

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.sim.legacy import LegacyHeapEnvironment
from repro.sim.shard import pop_order_crc

__all__ = ["run", "SCENARIOS", "HEADLINE", "ORDER_EVENTS"]

IMPLS = {"wheel": Environment, "legacy": LegacyHeapEnvironment}

#: the million-event headline scenario (its speedup carries the floor)
HEADLINE = "timer_flood"

#: events used for the order-digest runs; small enough to trace every pop
ORDER_EVENTS = 50_000


# ---------------------------------------------------------------------------
# scenarios: each returns a schedule() callable for a given env
# ---------------------------------------------------------------------------

def _flood_setup(env, n_events: int, seed: int):
    rng = random.Random(seed)
    delays = [rng.uniform(0.0, 40.0) for _ in range(n_events)]

    def schedule():
        if isinstance(env, LegacyHeapEnvironment):
            timeout = env.timeout
            for d in delays:
                timeout(d)
        else:
            env.timeout_batch(delays)

    return schedule


def _churn_setup(env, n_events: int, seed: int):
    # P workers x m sleeps each; every timeout resumes a generator.
    m = 20
    rng = random.Random(seed)
    seeds = [rng.randrange(1 << 30) for _ in range(max(1, n_events // m))]

    def worker(env, wrng):
        for _ in range(m):
            yield env.timeout(wrng.random() * 10.0 + 0.001)

    def schedule():
        for s in seeds:
            env.process(worker(env, random.Random(s)))

    return schedule


def _cancel_setup(env, n_events: int, seed: int):
    # Half the events are invocation arrivals, half watchdog deadlines;
    # 95% of the deadlines are cancelled (the invocation "finished").
    rng = random.Random(seed)
    arrivals = [rng.uniform(0.0, 40.0) for _ in range(n_events // 2)]

    def schedule():
        if isinstance(env, LegacyHeapEnvironment):
            timeout = env.timeout
            for a in arrivals:
                timeout(a)
            deadlines = [timeout(a + 30.0) for a in arrivals]
        else:
            env.timeout_batch(arrivals)
            deadlines = env.timeout_batch([a + 30.0 for a in arrivals])
        for i, d in enumerate(deadlines):
            if i % 20 != 0:
                d.cancel()

    return schedule


SCENARIOS = {
    "timer_flood": _flood_setup,
    "timer_churn": _churn_setup,
    "cancel_storm": _cancel_setup,
}

#: per-row fields that must agree between repeats and between kernels
_DETERMINISTIC = ("n_events", "final_now", "timeouts_recycled")


def _run_once(impl: str, scenario: str, n_events: int, seed: int) -> dict:
    env = IMPLS[impl]()
    schedule = SCENARIOS[scenario](env, n_events, seed)
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        schedule()
        t1 = time.perf_counter()
        env.run()
        t2 = time.perf_counter()
    finally:
        gc.enable()
    stats = env.stats()
    if stats["events_pending"]:
        raise SimulationError(f"{scenario}/{impl}: queue not drained")
    return {
        "scenario": scenario,
        "impl": impl,
        "n_events": stats["events_processed"],
        "final_now": stats["now"],
        "timeouts_recycled": stats["timeouts_recycled"],
        "sched_wall_s": round(t1 - t0, 6),
        "wall_s": round(t2 - t0, 6),
        "events_per_sec": round(stats["events_processed"] / (t2 - t1), 1),
    }


def _best_of(impl: str, scenario: str, n_events: int, seed: int,
             repeat: int) -> dict:
    best = None
    for _ in range(repeat):
        row = _run_once(impl, scenario, n_events, seed)
        if best is not None:
            for key in _DETERMINISTIC:
                if row[key] != best[key]:
                    raise SimulationError(
                        f"nondeterminism: {scenario}/{impl}.{key} "
                        f"{best[key]} vs {row[key]} across repeats")
        if best is None or row["events_per_sec"] > best["events_per_sec"]:
            best = row
    return best


def _order_row(scenario: str, seed: int) -> dict:
    """CRC the (time, priority, eid) pop order of both kernels; must match."""
    digests = {}
    for impl, cls in IMPLS.items():
        env = cls()
        env._pop_trace = []
        SCENARIOS[scenario](env, ORDER_EVENTS, seed)()
        env.run()
        digests[impl] = (pop_order_crc(env._pop_trace), len(env._pop_trace))
    if digests["wheel"] != digests["legacy"]:
        raise SimulationError(
            f"order mismatch in {scenario}: (crc, n) wheel={digests['wheel']} "
            f"legacy={digests['legacy']} — the wheel is not popping events "
            f"in heap order")
    crc, n = digests["wheel"]
    return {"scenario": scenario, "n_events": ORDER_EVENTS,
            "order_n": n, "order_crc": crc}


def run(events: int = 1_000_000, seed: int = 7, repeat: int = 2) -> dict:
    """``{"scenarios": [...], "speedups": [...], "order": [...]}``."""
    scenario_rows, speedups = [], []
    for scenario in SCENARIOS:
        per_impl = {impl: _best_of(impl, scenario, events, seed, repeat)
                    for impl in IMPLS}
        scenario_rows += per_impl.values()
        # The two kernels must process identical event populations.
        for key in ("n_events", "final_now"):
            if per_impl["wheel"][key] != per_impl["legacy"][key]:
                raise SimulationError(
                    f"divergence: {scenario}.{key} wheel="
                    f"{per_impl['wheel'][key]} legacy={per_impl['legacy'][key]}")
        ratio = (per_impl["wheel"]["events_per_sec"]
                 / per_impl["legacy"]["events_per_sec"])
        speedups.append({"scenario": scenario, "speedup": round(ratio, 2)})
    return {
        "scenarios": scenario_rows,
        "speedups": speedups,
        "order": [_order_row(scenario, seed) for scenario in SCENARIOS],
    }
