"""Tests for the guest's call spans and the call-mix query over them."""

import pytest

from repro.core import DgsfConfig
from repro.experiments.runner import run_single_invocation_traced
from repro.obs import Tracer
from repro.obs.critpath import call_mix
from repro.simcuda.types import GB, MB
from repro.testing import make_world

ROUTES = ("local", "batched", "async", "remote")


def route_totals(mix) -> dict[str, int]:
    out = dict.fromkeys(ROUTES, 0)
    for (_, route), (calls, _) in mix.items():
        out[route] += calls
    return out


def api_totals(mix, field: int) -> dict:
    out: dict = {}
    for (api, _), value in mix.items():
        out[api] = out.get(api, 0) + value[field]
    return out


@pytest.fixture
def traced():
    world = make_world(DgsfConfig(num_gpus=1))
    tracer = Tracer(world.env)
    guest, server, rpc = world.attach_guest(declared_bytes=2 * GB,
                                            tracer=tracer)
    yield world, guest, tracer
    world.detach_guest(guest, server, rpc)


def test_trace_records_calls_with_routes(traced):
    world, guest, tracer = traced
    ptr = world.drive(guest.cudaMalloc(1 * MB))            # remote
    world.drive(guest.cudaPointerGetAttributes(ptr))        # local
    fptr = world.drive(guest.cudaGetFunction("timed"))      # local (attach map)
    world.drive(guest.cudaLaunchKernel(fptr, args=(0.01,))) # batched
    world.drive(guest.cudaDeviceSynchronize())              # remote
    world.drive(guest.cudaFree(ptr))                        # remote

    mix = call_mix(tracer.records)
    # attach_guest's kernel registration is the fourth remote call
    assert route_totals(mix) == {"local": 2, "batched": 1, "async": 0,
                                 "remote": 4}
    assert mix[("attach", "remote")][0] == 1
    assert mix[("cudaMalloc", "remote")][0] == 1
    assert mix[("cudaLaunchKernel", "batched")][0] == 1
    assert mix[("cudaPointerGetAttributes", "local")][0] == 1
    # a bare guest has no invocation root: its spans carry no trace id
    assert all(r.trace_id is None for r in tracer.records)


def test_trace_durations_reflect_remoting_cost(traced):
    world, guest, tracer = traced
    world.drive(guest.cudaMalloc(1 * MB))
    world.drive(guest.cudaPointerGetAttributes(
        next(iter(guest._device_allocs))
    ))
    times = api_totals(call_mix(tracer.records), 1)
    # a remoted call costs a round trip; a localized call is microseconds
    assert times["cudaMalloc"] > times["cudaPointerGetAttributes"] * 10


def test_top_by_time_ranks_dominant_apis(traced):
    world, guest, tracer = traced
    for _ in range(5):
        world.drive(guest.cudaDeviceSynchronize())
    world.drive(guest.cudaGetDeviceCount())
    times = api_totals(call_mix(tracer.records), 1)
    assert max(times, key=times.get) == "cudaDeviceSynchronize"


def test_trace_window_filter(traced):
    world, guest, tracer = traced
    world.drive(guest.cudaMalloc(1 * MB))
    t_mid = world.env.now
    fptr = world.drive(guest.cudaGetFunction("timed"))
    world.drive(guest.cudaLaunchKernel(fptr, args=(0.01,)))
    t_end = world.env.now
    world.drive(guest.cudaDeviceSynchronize())

    window = call_mix(r for r in tracer.records if t_mid <= r.t_start < t_end)
    assert route_totals(window) == {"local": 1, "batched": 1, "async": 0,
                                    "remote": 0}


def test_untruncated_trace_reports_clean_summary(traced):
    world, guest, tracer = traced
    world.drive(guest.cudaDeviceSynchronize())
    summary = tracer.summary()
    assert summary["dropped"] == 0
    assert route_totals(call_mix(tracer.records))["remote"] == 2  # + attach


def test_traced_guest_still_returns_correct_results(traced):
    """Tracing must be transparent to the application."""
    import numpy as np

    world, guest, tracer = traced
    data = np.arange(128, dtype=np.uint8)
    ptr = world.drive(guest.cudaMalloc(128))
    world.drive(guest.memcpyH2D(ptr, 128, payload=data))
    back = world.drive(guest.memcpyD2H(ptr, 128))
    assert np.array_equal(back[:128], data)
    world.drive(guest.cudaFree(ptr))


@pytest.mark.parametrize("async_forward", [False, True])
def test_call_mix_matches_guest_counters(async_forward):
    """Every local/batched/async call leaves exactly one span, and every
    synchronous round trip one ``route=sync`` rpc span."""
    config = DgsfConfig(num_gpus=1)
    config = config.with_(optimizations=config.optimizations.with_(
        async_forward=async_forward))
    _, dep = run_single_invocation_traced("face_identification", "dgsf", config)
    assert dep.tracer.dropped == 0
    routes = route_totals(call_mix(dep.tracer.records))
    total = dep.metrics.total
    assert routes["local"] == total("guest.calls_localized") > 0
    assert routes["batched"] == total("guest.calls_batched")
    assert routes["async"] == total("guest.calls_async_forwarded")
    assert routes["remote"] == sum(
        1 for r in dep.tracer.records
        if r.ph == "X" and r.cat == "rpc" and r.args["route"] == "sync"
    )
    if async_forward:
        assert routes["async"] > 0 and routes["batched"] == 0
    else:
        assert routes["batched"] > 0 and routes["async"] == 0
