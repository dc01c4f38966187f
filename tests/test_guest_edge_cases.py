"""Edge-case coverage for the guest library's less-travelled paths."""

import numpy as np
import pytest

from repro.core import DgsfConfig, OptimizationFlags
from repro.simcuda.errors import CudaError
from repro.simcuda.types import GB, MB
from repro.testing import make_world


@pytest.fixture(scope="module")
def unopt_world():
    return make_world(DgsfConfig(num_gpus=1, optimizations=OptimizationFlags.none()))


@pytest.fixture
def unopt(unopt_world):
    guest, server, rpc = unopt_world.attach_guest(flags=OptimizationFlags.none())
    yield unopt_world, guest
    unopt_world.detach_guest(guest, server, rpc)


def test_unopt_device_count_always_remotes(unopt):
    world, guest = unopt
    before = guest.calls_forwarded
    world.drive(guest.cudaGetDeviceCount())
    world.drive(guest.cudaGetDeviceCount())
    assert guest.calls_forwarded == before + 2  # no caching without the opt


def test_unopt_set_device_remotes_and_validates(unopt):
    world, guest = unopt
    world.drive(guest.cudaSetDevice(0))
    with pytest.raises(CudaError):
        world.drive(guest.cudaSetDevice(1))


def test_unopt_malloc_host_costs_a_round_trip(unopt):
    world, guest = unopt
    before = guest.calls_forwarded
    hptr = world.drive(guest.cudaMallocHost(4096))
    world.drive(guest.cudaFreeHost(hptr))
    assert guest.calls_forwarded >= before + 2


def test_unopt_pointer_attributes_remote_for_device_ptr(unopt):
    world, guest = unopt
    ptr = world.drive(guest.cudaMalloc(1 * MB))
    before = guest.calls_forwarded
    attrs = world.drive(guest.cudaPointerGetAttributes(ptr))
    assert attrs.is_device
    assert guest.calls_forwarded == before + 1
    world.drive(guest.cudaFree(ptr))


def test_unopt_event_record_is_synchronous(unopt):
    world, guest = unopt
    event = world.drive(guest.cudaEventCreate())
    before = guest.calls_forwarded
    world.drive(guest.cudaEventRecord(event))
    assert guest.calls_forwarded == before + 1
    world.drive(guest.cudaEventSynchronize(event))


def test_unopt_push_call_configuration_remotes(unopt):
    world, guest = unopt
    before = guest.calls_forwarded
    world.drive(guest.pushCallConfiguration(grid=(2, 1, 1), block=(64, 1, 1)))
    assert guest.calls_forwarded == before + 1


# --- optimized-path edges ---------------------------------------------------------

@pytest.fixture(scope="module")
def opt_world():
    return make_world(DgsfConfig(num_gpus=1))


@pytest.fixture
def opt(opt_world):
    guest, server, rpc = opt_world.attach_guest(declared_bytes=2 * GB)
    yield opt_world, guest
    opt_world.detach_guest(guest, server, rpc)


def test_pointer_attributes_unknown_pointer_raises(opt):
    world, guest = opt
    with pytest.raises(CudaError):
        world.drive(guest.cudaPointerGetAttributes(0x1234))


def test_descriptor_of_unknown_kind_rejected(opt):
    world, guest = opt
    with pytest.raises(CudaError):
        world.drive(guest.cudnnCreateDescriptor("widget"))


def test_remote_stream_tokens_validated(opt):
    world, guest = opt
    with pytest.raises(CudaError):
        world.drive(guest.cudaStreamSynchronize(0x7777))
    with pytest.raises(CudaError):
        world.drive(guest.cudaStreamDestroy(0x7777))


def test_remote_event_tokens_validated(opt):
    world, guest = opt
    with pytest.raises(CudaError):
        world.drive(guest.cudaEventSynchronize(0x7777))


def test_async_memcpy_d2d_is_batched(opt):
    world, guest = opt
    a = world.drive(guest.cudaMalloc(1 * MB))
    b = world.drive(guest.cudaMalloc(1 * MB))
    batched0 = guest.calls_batched
    world.drive(guest.memcpyD2D(b, a, 1 * MB, sync=False))
    assert guest.calls_batched == batched0 + 1
    world.drive(guest.cudaDeviceSynchronize())
    world.drive(guest.cudaFree(a))
    world.drive(guest.cudaFree(b))


def test_async_memset_is_batched_and_applies(opt):
    world, guest = opt
    ptr = world.drive(guest.cudaMalloc(64))
    world.drive(guest.cudaMemset(ptr, 0x11, 64, sync=False))
    world.drive(guest.cudaDeviceSynchronize())
    back = world.drive(guest.memcpyD2H(ptr, 64))
    assert np.all(back[:64] == 0x11)
    world.drive(guest.cudaFree(ptr))


def test_large_batch_flushes_at_threshold(opt):
    world, guest = opt
    fptr = world.drive(guest.cudaGetFunction("timed"))
    msgs0 = guest.messages_sent

    def run(env):
        for _ in range(guest.batch_flush_threshold * 2):
            yield from guest.cudaLaunchKernel(fptr, args=(0.0001,))

    world.drive(run(world.env))
    # two threshold-triggered flushes without any sync point
    assert guest.messages_sent - msgs0 >= 2
    world.drive(guest.cudaDeviceSynchronize())


def test_batch_flush_surfaces_send_errors():
    """A failure while shipping a batch reaches the caller instead of
    vanishing together with the emptied batch buffer."""
    world = make_world(DgsfConfig(num_gpus=1))
    guest, _, _ = world.attach_guest(declared_bytes=2 * GB)
    fptr = world.drive(guest.cudaGetFunction("timed"))
    world.drive(guest.cudaLaunchKernel(fptr, args=(0.0001,)))
    assert guest._batch
    send = guest.rpc.endpoint.send

    def send_failing_batches(msg, **kwargs):
        if msg.method == "__batch__":
            raise TypeError("batch not serializable")
        return send(msg, **kwargs)

    guest.rpc.endpoint.send = send_failing_batches
    with pytest.raises(TypeError, match="batch not serializable"):
        world.drive(guest.cudaDeviceSynchronize())


def test_properties_follow_current_gpu_after_migration():
    from repro.core.migration import migrate_api_server

    world = make_world(DgsfConfig(num_gpus=2))
    guest, server, rpc = world.attach_guest(declared_bytes=1 * GB)
    props0 = world.drive(guest.cudaGetDeviceProperties(0))
    world.drive(guest.cudaMalloc(1 * MB))
    proc = world.env.process(migrate_api_server(server, 1))
    world.env.run(until=proc)
    props1 = world.drive(guest.cudaGetDeviceProperties(0))
    # same *model* of GPU, still exactly one visible device
    assert props1["name"] == props0["name"]
    assert world.drive(guest.cudaGetDeviceCount()) == 1
    world.detach_guest(guest, server, rpc)
