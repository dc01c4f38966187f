"""Tests of the benchmark's own logic (not of the simulator).

Run with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys

import pytest

import layertimer
import run
from benchstats import NAME_RE, failure_counts, tail_rank, tail_value
from layertimer import LayerTimer
from scenarios import Rep

BENCHMARK_JSON = run.HERE.parent / "BENCHMARK.json"


# -- metric names ----------------------------------------------------------

def test_metric_names_are_well_formed():
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert NAME_RE.match(name), name
    assert not NAME_RE.match("bad name")
    assert not NAME_RE.match("p99/ms")


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME_RE.match(metric["name"])
        assert metric["better"] in ("higher", "lower")


# -- the ten-beyond tail rule ----------------------------------------------

@pytest.mark.parametrize("n, index, pct", [
    (11, 0, 100 / 11),
    (12, 1, 200 / 12),
    (20, 9, 50.0),
    (24, 13, 1400 / 24),
    (72, 61, 6200 / 72),
    (1000, 989, 99.0),
])
def test_tail_rank_leaves_ten_samples_beyond(n, index, pct):
    got_index, got_pct = tail_rank(n)
    assert got_index == index
    assert got_pct == pytest.approx(pct)
    assert n - 1 - got_index == 10


@pytest.mark.parametrize("n", [0, 1, 10])
def test_tail_rank_needs_more_than_ten_samples(n):
    assert tail_rank(n) is None
    assert tail_value(list(range(n))) is None


def test_tail_value_sorts_and_reports_percentile_and_n():
    values = [float(v) for v in range(24, 0, -1)]  # 24 .. 1, unsorted
    value, pct, n = tail_value(values)
    assert (value, n) == (14.0, 24)
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(58.333, abs=1e-3)


# -- failures ----------------------------------------------------------------

def test_failed_correctness_check_counts_every_operation_as_failed():
    assert failure_counts(100, 100, ["digest differs"]) == (100, 1.0)
    assert failure_counts(100, 97, []) == (3, 0.03)
    assert failure_counts(100, 100, []) == (0, 0.0)
    with pytest.raises(ValueError):
        failure_counts(0, 0, [])


def test_result_of_a_failed_check_is_incorrect_and_all_failed(capsys):
    metrics = {name: 1.0 for name in run.END_TO_END}
    result = run._result(["audit: leak"], 40, 40, metrics, run.END_TO_END)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 40
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert "# problem: audit: leak" in capsys.readouterr().out


def _rep(sub_seed, digest, problems=()):
    return Rep(workload="w", sub_seed=sub_seed, run_wall_s=1.0, attempted=1,
               completed=1, work=1, digest=digest, latencies_s=[1.0],
               makespan_s=1.0, e2e_s=[1.0], queue_waits_s=[],
               problems=list(problems))


def test_a_repeat_with_another_outcome_digest_is_a_problem():
    reps = [_rep(0, 7), _rep(1, 8), _rep(0, 7), _rep(1, 9, ["audit: leak"])]
    assert run._problems(reps) == [
        "w/1: audit: leak",
        "w/1: outcome digest 0x9 != 0x8 of the first run",
    ]
    assert run._problems(reps[:3]) == []


# -- self time ---------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(layertimer, "perf_counter", fake)
    return fake


def test_self_time_subtracts_nested_calls_of_other_layers(clock):
    timer = LayerTimer()

    def leaf():
        clock.advance(3.0)

    leaf = timer.wrap(leaf, "simnet", "t.leaf")

    def middle():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)

    middle = timer.wrap(middle, "core.guest", "t.middle")

    def outer():
        clock.advance(2.0)
        middle()
        leaf()

    outer = timer.wrap(outer, "sim", "t.outer")

    timer.reset()
    outer()
    clock.advance(4.0)  # outside every entry point
    timer.stop(wall_s=clock.t)
    assert timer.self_s == {"sim": 2.0, "core.guest": 1.5, "simnet": 6.0}
    assert timer.outer_s == 9.5
    assert timer.unattributed_s == 4.0
    assert timer.balance_error() == 0.0
    assert timer.calls == {"t.outer": 1, "t.middle": 1, "t.leaf": 2}


def test_generator_entry_points_are_timed_per_resume(clock):
    timer = LayerTimer()

    def send():
        clock.advance(1.0)

    send = timer.wrap(send, "simnet", "t.send")

    def process():
        clock.advance(2.0)
        got = yield "first"          # suspended: costs nothing
        send()
        clock.advance(got)
        yield "second"
        return "done"

    process = timer.wrap(process, "core.api_server", "t.process")

    def kernel(gen):
        """Resumes the process twice, as the simulation kernel does."""
        clock.advance(0.25)
        first = gen.send(None)
        clock.advance(100.0)  # simulated wait, outside every entry
        return first

    kernel = timer.wrap(kernel, "sim", "t.kernel")

    timer.reset()
    gen = process()
    assert gen.__name__ == "process"
    assert kernel(gen) == "first"
    assert gen.send(0.5) == "second"   # resumed from outside any entry
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    timer.stop(wall_s=clock.t)
    assert timer.self_s == {"sim": 100.25, "core.api_server": 2.5, "simnet": 1.0}
    assert timer.unattributed_s == 0.0
    assert timer.balance_error() == 0.0


def test_exceptions_thrown_into_a_timed_generator_reach_it(clock):
    timer = LayerTimer()

    def process():
        try:
            yield 1
        except KeyError:
            clock.advance(1.0)
            yield 2

    process = timer.wrap(process, "faas", "t.process")
    timer.reset()
    gen = process()
    next(gen)
    assert gen.throw(KeyError("x")) == 2
    gen.close()
    timer.stop(wall_s=clock.t)
    assert timer.self_s == {"faas": 1.0}


def test_slices_time_the_outermost_call_only(clock):
    timer = LayerTimer()
    tag = "simnet.serialization_s"

    def size(depth):
        clock.advance(1.0)
        if depth:
            size(depth - 1)

    size = timer.wrap(size, "simnet", "t.size", tag)
    timer.reset()
    size(2)
    timer.stop(wall_s=clock.t)
    assert timer.slice_s == {tag: 3.0}
    assert timer.self_s == {"simnet": 3.0}


def test_calls_after_stop_are_not_reported(clock):
    timer = LayerTimer()
    tick = timer.wrap(lambda: clock.advance(1.0), "obs", "t.tick")
    timer.reset()
    tick()
    timer.stop(wall_s=clock.t)
    tick()
    assert timer.calls == {"t.tick": 1}
    assert timer.self_s == {"obs": 1.0}


# -- install / uninstall -----------------------------------------------------

def test_install_wraps_every_layer_and_uninstall_removes_all():
    sys.path.insert(0, str(run.SRC))
    from repro.sim import Environment
    from repro.simnet import serialization

    original_timeout = Environment.timeout
    timer = LayerTimer()
    assert timer.install() > 100
    try:
        assert Environment.timeout is not original_timeout
        assert hasattr(serialization.payload_size, "__perfbench_wrapped__")
        assert layertimer.find_wrappers()
        env = Environment()

        def hello():
            yield env.timeout(3.0)
            return env.now

        proc = env.process(hello())
        timer.reset()
        env.run()
        timer.stop(wall_s=1.0)
        assert proc.value == 3.0
        # the process body (and its timeout) first runs inside env.run()
        assert timer.calls["repro.sim.core.Environment.timeout"] == 1
        assert timer.calls["repro.sim.core.Environment.run"] == 1
    finally:
        timer.uninstall()
    assert Environment.timeout is original_timeout
    assert layertimer.find_wrappers() == []


def test_layer_of_prefers_core_sub_layers():
    assert layertimer.layer_of("repro.core.guest") == "core.guest"
    assert layertimer.layer_of("repro.core.scheduler") == "core.monitor"
    assert layertimer.layer_of("repro.core.deployment") == "core.other"
    assert layertimer.layer_of("repro.simnet.rpc") == "simnet"
    assert layertimer.layer_of("repro.simulator") is None
    assert layertimer.layer_of("repro.experiments.runner") is None
