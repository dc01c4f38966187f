"""Demand-zero device memory and the kernel-payload skip it enables.

A launch whose declared pointer args all land in demand-zero allocations
keeps its timing but skips the numpy payload.  These tests pin the skip
as exact: memory ends byte-identical to running the payload, nonzero
memory always runs it, and the flag is only ever True over all-zero bytes.
They also pin the lazy backing buffer: memory nobody stored a nonzero
byte into has none, through every path that moves zeros.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DgsfConfig, audit_deployment, audit_gpu_server
from repro.core.migration import migrate_api_server
from repro.core.migration_strategies import checkpoint_restore_migration
from repro.sim import Environment
from repro.simcuda import Dim3, SimGPU
from repro.simcuda.context import CudaContext
from repro.simcuda.errors import CudaError
from repro.simcuda.kernels import LaunchParams, builtin_registry
from repro.simcuda.phys import PhysicalAllocation
from repro.simcuda.types import GB, MB
from repro.testing import make_world

#: declared kernel -> (sizes tail of the args, bytes of each pointer arg)
DECLARED = {
    # (n, k, d) = (100, 3, 2): points, centroids, assignments
    "kmeans_assign": ((100, 3, 2), (800, 24, 400)),
    "kmeans_update": ((100, 3, 2), (800, 24, 400)),
    # (m, n, k) = (4, 3, 5): A, B, C
    "gemm": ((4, 3, 5), (80, 60, 48)),
}


class Device:
    """One context with a few mapped allocations, driven to completion."""

    def __init__(self, sizes):
        self.env = Environment()
        self.ctx = CudaContext(self.env, SimGPU(self.env, 0), builtin_registry())
        self.allocs, self.ptrs = [], []
        for size in sizes:
            alloc = self.ctx.device.alloc_phys(size)
            va = self.ctx.address_space.reserve(size)
            self.ctx.address_space.map(va, alloc)
            self.allocs.append(alloc)
            self.ptrs.append(va)

    def args(self, tail):
        return (0.001, *self.ptrs, *tail)

    def launch(self, name, args):
        fptr = self.ctx.get_function(name)
        done = self.ctx.launch_kernel(fptr, Dim3(1), Dim3(1), args)
        self.env.run(until=done)

    def call_payload(self, name, args):
        """The payload run directly, with no skip."""
        kernel = self.ctx.kernels.get(name)
        params = LaunchParams(grid=Dim3(1), block=Dim3(1), args=args)
        kernel.payload(self.ctx.resolve_view, params)

    def contents(self):
        return [a.data.copy() for a in self.allocs]


def _assert_same_bytes(left, right):
    for a, b in zip(left, right):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_skipped_launch_matches_running_the_payload_on_zero_memory(name):
    tail, sizes = DECLARED[name]
    skipped, direct = Device(sizes), Device(sizes)
    skipped.launch(name, skipped.args(tail))
    direct.call_payload(name, direct.args(tail))
    # the payload never ran: running it would have cleared the flags
    assert all(a.demand_zero for a in skipped.allocs)
    _assert_same_bytes(skipped.contents(), direct.contents())
    assert not any(a.data.any() for a in skipped.allocs)


@pytest.mark.parametrize("name", sorted(DECLARED))
@pytest.mark.parametrize("which", [0, 1, 2])
def test_nonzero_bytes_in_any_pointer_arg_run_the_payload(name, which):
    tail, sizes = DECLARED[name]
    noise = np.random.default_rng(which).integers(
        1, 256, sizes[which], dtype=np.uint8
    )
    launched, direct = Device(sizes), Device(sizes)
    for dev in (launched, direct):
        dev.allocs[which].write(0, noise)
        assert not dev.allocs[which].demand_zero
    with np.errstate(all="ignore"):
        launched.launch(name, launched.args(tail))
        direct.call_payload(name, direct.args(tail))
    _assert_same_bytes(launched.contents(), direct.contents())


def test_axpy_with_infinite_scale_still_poisons_zero_memory():
    """axpy is not declared: inf * 0 is NaN, so zeros do not stay zeros."""
    dev = Device([64, 64])
    with np.errstate(invalid="ignore"):
        dev.launch("axpy", (0.001, float("inf"), *dev.ptrs, 16))
    y = dev.allocs[1].data.view(np.float32)
    assert np.isnan(y).all()
    assert not dev.allocs[1].demand_zero


def test_unmapped_pointer_still_raises_as_before():
    tail, sizes = DECLARED["kmeans_assign"]
    dev = Device(sizes)
    args = (0.001, dev.ptrs[0], 0xDEAD, dev.ptrs[2], *tail)
    with pytest.raises(CudaError, match="not mapped"):
        dev.launch("kmeans_assign", args)
    with pytest.raises(CudaError, match="not mapped"):
        dev.call_payload("kmeans_assign", args)


# --- payloads are total on any window -----------------------------------------

def test_kmeans_update_with_short_assignment_window():
    """n=100 points but only 10 assignment slots: the update uses the 10
    points that have one (it used to raise IndexError)."""
    dev = Device([800, 24, 40])
    pts = np.arange(200, dtype=np.float32)
    asn = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0], dtype=np.int32)
    dev.allocs[0].write(0, pts)
    dev.allocs[2].write(0, asn)
    dev.call_payload("kmeans_update", dev.args((100, 3, 2)))
    cents = dev.allocs[1].data.view(np.float32).reshape(3, 2)
    first = pts[:20].reshape(10, 2)
    for c in range(3):
        assert np.allclose(cents[c], first[asn == c].mean(axis=0))


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(DECLARED)),
    sizes=st.lists(st.integers(1, 1200), min_size=3, max_size=3),
    offsets=st.lists(st.integers(0, 8), min_size=3, max_size=3),
    tail=st.lists(st.integers(-4, 3000), min_size=3, max_size=3),
)
def test_declared_payloads_are_total_and_keep_zeros_zero(name, sizes, offsets, tail):
    """What makes the skip exact: on all-zero memory a declared payload
    neither raises nor stores a nonzero byte, whatever the sizes and
    (interior) pointers."""
    dev = Device(sizes)
    ptrs = [p + min(o, size - 1) for p, o, size in zip(dev.ptrs, offsets, sizes)]
    dev.call_payload(name, (0.001, *ptrs, *tail))
    assert not any(a.data.any() for a in dev.allocs)


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_declared_payloads_accept_windows_ending_mid_element(name):
    tail, sizes = DECLARED[name]
    ragged = [size - 1 for size in sizes]  # payload windows end mid-element
    dev = Device(ragged)
    for alloc in dev.allocs:
        alloc.write(0, np.full(alloc.payload_bytes, 0x3F, np.uint8))
    dev.call_payload(name, dev.args(tail))


# --- flag transitions -------------------------------------------------------------

def test_fresh_allocation_is_demand_zero():
    assert PhysicalAllocation(0, 4096, payload_cap=4096).demand_zero
    # ...and has no backing buffer, however large its window
    alloc = PhysicalAllocation(0, 8 * GB, payload_cap=1 * MB)
    assert alloc.demand_zero and not alloc.materialized
    assert alloc.payload_bytes == 1 * MB


def test_writing_zeros_keeps_the_flag_and_nonzero_clears_it():
    alloc = PhysicalAllocation(0, 4096, payload_cap=4096)
    alloc.write(0, np.zeros(128, dtype=np.uint8))
    alloc.write(100, np.zeros(3, dtype=np.float64))
    assert alloc.demand_zero and not alloc.materialized
    alloc.write(5000, np.ones(8, dtype=np.uint8))  # beyond the window
    assert alloc.demand_zero and not alloc.materialized
    alloc.write(62, np.array([0, 0, 1], dtype=np.uint8))
    assert not alloc.demand_zero and alloc.materialized
    expected = np.zeros(4096, dtype=np.uint8)
    expected[64] = 1
    assert np.array_equal(alloc.data, expected)
    # a zero write over the nonzero byte does not re-arm the flag
    alloc.write(64, np.zeros(1, dtype=np.uint8))
    assert not alloc.demand_zero


def test_resolve_view_clears_the_flag():
    dev = Device([256])
    view = dev.ctx.resolve_view(dev.ptrs[0], 16)
    assert not dev.allocs[0].demand_zero
    view[:] = 0  # what a caller may do with the view is unknown


def test_copy_payload_from_carries_the_source_state():
    zero = PhysicalAllocation(0, 512, payload_cap=4096)
    dirty = PhysicalAllocation(0, 512, payload_cap=4096)
    dirty.write(0, np.ones(4, dtype=np.uint8))
    dst = PhysicalAllocation(1, 512, payload_cap=4096)
    dst.copy_payload_from(dirty)
    assert not dst.demand_zero
    dst.copy_payload_from(zero)  # every real byte overwritten with zeros
    assert dst.demand_zero
    # a shorter zero source leaves the destination's tail unknown
    short = PhysicalAllocation(0, 256, payload_cap=4096)
    big = PhysicalAllocation(1, 512, payload_cap=4096)
    big.write(400, np.ones(4, dtype=np.uint8))
    big.copy_payload_from(short)
    assert not big.demand_zero
    assert big.data.any()


@pytest.mark.parametrize("strategy", [migrate_api_server,
                                      checkpoint_restore_migration])
def test_migration_keeps_untouched_allocations_demand_zero(strategy):
    world = make_world(DgsfConfig(num_gpus=2))
    guest, server, rpc = world.attach_guest(declared_bytes=1 * GB)
    ptr = world.drive(guest.cudaMalloc(1 * MB))
    world.drive(guest.memcpyH2D(ptr, 1 * MB))  # timing only: no bytes
    world.env.run(until=world.env.process(strategy(server, 1)))
    assert server.session.allocations
    for va in server.session.allocations:
        mapping, _ = server.context.address_space.translate(va)
        assert mapping.allocation.device_id == 1
        assert mapping.allocation.demand_zero
        assert not mapping.allocation.materialized
    world.detach_guest(guest, server, rpc)


# --- lazy backing buffer ------------------------------------------------------------

def _world_allocs(n, size=64 * 1024):
    """A world with one guest and ``n`` fresh allocations of ``size``."""
    world = make_world(DgsfConfig(num_gpus=1))
    guest, server, rpc = world.attach_guest(declared_bytes=1 * GB)
    ptrs = [world.drive(guest.cudaMalloc(size)) for _ in range(n)]
    allocs = [server.context.address_space.translate(p)[0].allocation for p in ptrs]
    return world, (guest, server, rpc), ptrs, allocs


def test_read_of_an_unmaterialised_window_is_zeros_of_the_clipped_length():
    alloc = PhysicalAllocation(0, 1 * MB, payload_cap=1000)
    for offset, length, n in ((0, 16, 16), (990, 64, 10), (1000, 8, 0), (2000, 8, 0)):
        got = alloc.read(offset, length)
        assert got.dtype == np.uint8 and len(got) == n and not got.any()
    assert not alloc.materialized


def test_copy_between_unmaterialised_allocations_copies_nothing():
    src = PhysicalAllocation(0, 512, payload_cap=4096)
    dst = PhysicalAllocation(1, 512, payload_cap=4096)
    dst.copy_payload_from(src)
    assert not dst.materialized and dst.demand_zero


def test_copy_from_unmaterialised_source_zeroes_a_dirty_destination_window():
    src = PhysicalAllocation(0, 256, payload_cap=4096)
    dst = PhysicalAllocation(1, 512, payload_cap=4096)
    dst.write(0, np.full(512, 9, dtype=np.uint8))
    dst.copy_payload_from(src)
    assert not src.materialized
    assert not dst.data[:256].any()
    assert (dst.data[256:] == 9).all()
    assert not dst.demand_zero  # the tail still holds nonzero bytes


def test_release_drops_the_buffer():
    alloc = PhysicalAllocation(0, 4096, payload_cap=4096)
    alloc.write(0, np.ones(8, dtype=np.uint8))
    alloc.release()
    assert not alloc.materialized
    assert alloc.payload_bytes == 0


def test_zero_memset_h2d_and_d2d_leave_allocations_unmaterialised():
    world, attached, ptrs, allocs = _world_allocs(3)
    guest = attached[0]
    world.drive(guest.cudaMemset(ptrs[0], 0, 64 * 1024))
    world.drive(guest.memcpyH2D(ptrs[1], 4096, payload=np.zeros(1024, np.float32)))
    world.drive(guest.memcpyD2D(ptrs[2], ptrs[0], 64 * 1024))
    assert not any(a.materialized for a in allocs)
    assert all(a.demand_zero for a in allocs)
    # a nonzero memset materialises exactly its target
    world.drive(guest.cudaMemset(ptrs[2], 1, 16))
    assert [a.materialized for a in allocs] == [False, False, True]
    assert not allocs[2].demand_zero
    world.detach_guest(*attached)


def test_auditor_never_materialises_a_buffer():
    world, attached, _, allocs = _world_allocs(2)
    assert audit_deployment(world.dep).ok
    assert not any(a.materialized for a in allocs)
    world.detach_guest(*attached)


# --- auditor ----------------------------------------------------------------------

def test_auditor_reports_a_nonzero_byte_behind_the_flag():
    world = make_world(DgsfConfig(num_gpus=1))
    guest, server, rpc = world.attach_guest(declared_bytes=1 * GB)
    ptr = world.drive(guest.cudaMalloc(1 * MB))
    assert audit_gpu_server(world.gpu_server).ok
    alloc = server.context.address_space.translate(ptr)[0].allocation
    alloc.data[0] = 1  # a writer that bypasses write()
    report = audit_gpu_server(world.gpu_server)
    assert [v.kind for v in report.violations] == ["demand-zero"]
    alloc.data[0] = 0
    world.detach_guest(guest, server, rpc)


# --- memset and checkpoint restore never read demand-zero memory --------------------

@pytest.fixture
def count_reads(monkeypatch):
    """Count PhysicalAllocation.read calls."""
    calls = []
    read = PhysicalAllocation.read

    def counting(self, offset, length):
        calls.append((offset, length))
        return read(self, offset, length)

    monkeypatch.setattr(PhysicalAllocation, "read", counting)
    return calls


def _local_runtime_alloc(size):
    from repro.simcuda import LocalCudaRuntime
    env = Environment()
    rt = LocalCudaRuntime(env, [SimGPU(env, 0)])

    def drive(gen):
        return env.run(until=env.process(gen))

    ptr = drive(rt.cudaMalloc(size))
    return drive, rt, ptr, rt.context.address_space.translate(ptr)[0].allocation


def test_memset_fills_without_reading_on_both_runtimes(count_reads):
    world, attached, (ptr,), (alloc,) = _world_allocs(1, size=2 * MB)
    guest = attached[0]
    drive, rt, local_ptr, local_alloc = _local_runtime_alloc(2 * MB)
    remote_memset = lambda p, v, n: world.drive(guest.cudaMemset(p, v, n))
    local_memset = lambda p, v, n: drive(rt.cudaMemset(p, v, n))
    for memset, base, target in ((remote_memset, ptr, alloc),
                                 (local_memset, local_ptr, local_alloc)):
        window = target.payload_bytes
        assert window == 1 * MB  # capped below the 2 MB declared size
        memset(base, 0, 2 * MB)
        assert not target.materialized and target.demand_zero
        # a nonzero fill straddling the window's end stores only the
        # bytes inside it
        memset(base + window - 8, 7, 64)
        assert target.materialized and not target.demand_zero
        assert (target.data[window - 8:] == 7).all()
        assert not target.data[:window - 8].any()
    assert count_reads == []
    world.detach_guest(*attached)


def test_checkpoint_restore_skips_the_snapshot_of_unmaterialised_memory(count_reads):
    world = make_world(DgsfConfig(num_gpus=2))
    guest, server, rpc = world.attach_guest(declared_bytes=1 * GB)
    world.drive(guest.cudaMalloc(1 * MB))
    world.env.run(until=world.env.process(checkpoint_restore_migration(server, 1)))
    assert count_reads == []
    (va,) = server.session.allocations
    migrated = server.context.address_space.translate(va)[0].allocation
    assert migrated.device_id == 1 and not migrated.materialized
    world.detach_guest(guest, server, rpc)
