"""Alternative migration strategies — the Table I / §IX comparison.

The paper positions DGSF's VA-preserving migration against two prior
approaches:

* **Gandiva-style checkpoint/restore** (§II, §IX): "relies on library
  functions that can snapshot-restore its state, e.g. TensorFlow's
  train.Saver" — the application's device state is serialized *through
  the host*, destroyed, and rebuilt at the destination.  Generality is
  lost (the library must support it) and the data crosses PCIe twice.
* **DCUDA-style peer access** (§II, §IX): "does not explicitly move the
  data to the destination GPU's memory: application memory accesses may
  — and will — page fault and require data to be read on-demand from the
  peer GPU."  Migration itself is nearly free, but every subsequent
  access pays remote-access overhead, and the source GPU's memory is
  *not* freed ("it is desirable to move data explicitly as to possibly
  create enough space for another function").

Both are implemented here against the same API-server machinery so the
trade-offs can be measured (``benchmarks/test_ablation_migration_strategies.py``),
reproducing the argument of Table I quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from repro.errors import SimulationError
from repro.sim.core import Environment

__all__ = [
    "StrategyOutcome",
    "checkpoint_restore_migration",
    "peer_access_migration",
    "MIGRATION_STRATEGIES",
]


@dataclass
class StrategyOutcome:
    """What one strategy did and what it costs afterwards."""

    strategy: str
    duration_s: float
    moved_bytes: int
    #: bytes still resident on the *source* GPU afterwards
    residual_source_bytes: int
    #: multiplicative slowdown on subsequent device accesses (1.0 = none)
    post_access_penalty: float


def checkpoint_restore_migration(api_server, target_device_id: int) -> Generator:
    """Gandiva-style: snapshot to host, destroy, restore on the target.

    Data moves D2H on the source then H2D on the target (two PCIe
    crossings instead of one device-to-device copy), and the virtual
    addresses are *not* preserved — the session's pointer table is
    rewritten, which only works because our sessions track every
    allocation (a real application with device pointers embedded in
    device data structures would break, which is the paper's point).
    """
    env: Environment = api_server.env
    gpu_server = api_server.gpu_server
    driver = gpu_server.driver
    costs = api_server.costs
    source_device_id = api_server.current_device_id
    if target_device_id == source_device_id:
        raise SimulationError("migration target equals current GPU")
    session = api_server.session
    if session is None:
        raise SimulationError("cannot migrate an idle API server")

    t_start = env.now
    with api_server.exec_lock.request() as lock:
        yield lock
        source_ctx = api_server.context
        yield source_ctx.synchronize()
        if target_device_id == api_server.home_device_id:
            target_ctx = api_server.contexts[target_device_id]
        else:
            target_ctx = gpu_server.claim_migration_slot(api_server, target_device_id)
        # library-level snapshot bookkeeping (the train.Saver pass)
        yield env.timeout(costs.migration_fixed_s * 2)

        moved = 0
        source_device = source_ctx.device
        target_device = target_ctx.device
        old_allocations = dict(session.allocations)
        session.allocations.clear()
        for va, size in sorted(old_allocations.items()):
            mapping, _ = source_ctx.address_space.translate(va)
            old_alloc = mapping.allocation
            # snapshot: D2H on the source...
            yield source_device.copy_d2h(size)
            # unmaterialised memory is all zeros: nothing to snapshot
            host_copy = (old_alloc.read(0, old_alloc.payload_bytes)
                         if old_alloc.materialized else None)
            driver.cuMemUnmap(source_ctx, va)
            driver.cuMemAddressFree(source_ctx, va)
            yield from driver.cuMemRelease(old_alloc)
            # ...restore: fresh allocation at a NEW address on the target
            new_alloc = yield from driver.cuMemCreate(target_device_id, size)
            new_va = driver.cuMemAddressReserve(target_ctx, size)
            driver.cuMemMap(target_ctx, new_va, new_alloc)
            yield target_device.copy_h2d(size)
            if host_copy is not None:
                new_alloc.write(0, host_copy)
            session.allocations[new_va] = size
            moved += size

        # handle/stream state is rebuilt by the library on restore
        for twins in session.streams.values():
            if target_device_id not in twins:
                twins[target_device_id] = target_ctx.create_stream()
        for token in list(session.events):
            session.events[token] = target_ctx.create_event()
        for table, borrow, lib_map, borrowed in (
            (session.cudnn_handles, gpu_server.pools.borrow_cudnn,
             api_server._cudnn_libs, session.borrowed_cudnn),
            (session.cublas_handles, gpu_server.pools.borrow_cublas,
             api_server._cublas_libs, session.borrowed_cublas),
        ):
            for token, twins in table.items():
                if target_device_id not in twins:
                    handle = borrow(target_device_id)
                    if handle is None:
                        lib = lib_map[target_device_id]
                        h = yield from (
                            lib.cudnnCreate() if hasattr(lib, "cudnnCreate")
                            else lib.cublasCreate()
                        )
                        handle = lib._handles[h]
                    else:
                        borrowed.append(handle)
                    twins[target_device_id] = handle

        previous = source_device_id
        api_server.current_device_id = target_device_id
        api_server.memory_device_id = target_device_id
        if previous != api_server.home_device_id:
            gpu_server.release_migration_slot(api_server, previous)
        api_server.migrations += 1

    return StrategyOutcome(
        strategy="checkpoint_restore",
        duration_s=env.now - t_start,
        moved_bytes=moved,
        residual_source_bytes=0,
        post_access_penalty=1.0,
    )


#: remote (peer) memory access slowdown under DCUDA-style migration:
#: NVLink/PCIe peer reads are several times slower than local HBM
PEER_ACCESS_PENALTY = 2.5


def peer_access_migration(api_server, target_device_id: int) -> Generator:
    """DCUDA-style: switch execution, leave the data on the source GPU.

    Migration is almost instantaneous, but (a) the source GPU's memory is
    not freed — it cannot host another function — and (b) every kernel
    afterwards pays remote-access overhead.  The caller applies the
    returned ``post_access_penalty`` to subsequent kernel work.
    """
    env: Environment = api_server.env
    gpu_server = api_server.gpu_server
    costs = api_server.costs
    source_device_id = api_server.current_device_id
    if target_device_id == source_device_id:
        raise SimulationError("migration target equals current GPU")
    session = api_server.session
    if session is None:
        raise SimulationError("cannot migrate an idle API server")

    t_start = env.now
    with api_server.exec_lock.request() as lock:
        yield lock
        source_ctx = api_server.context
        yield source_ctx.synchronize()
        if target_device_id == api_server.home_device_id:
            target_ctx = api_server.contexts[target_device_id]
        else:
            target_ctx = gpu_server.claim_migration_slot(api_server, target_device_id)
        # execution state switch only; data stays put
        yield env.timeout(costs.migration_fixed_s * 0.1)
        for twins in session.streams.values():
            if target_device_id not in twins:
                twins[target_device_id] = target_ctx.create_stream()
        for token in list(session.events):
            session.events[token] = target_ctx.create_event()
        residual = sum(session.allocations.values())
        previous = source_device_id
        api_server.current_device_id = target_device_id
        # memory_device_id intentionally stays at the source: the data was
        # not moved, and future memory ops/frees go to the source context
        api_server.kernel_work_multiplier = PEER_ACCESS_PENALTY
        if previous != api_server.home_device_id:
            gpu_server.release_migration_slot(api_server, previous)
        api_server.migrations += 1
        # NOTE: the VA map still lives in the *source* context; kernels
        # reach it through peer access.  We leave translate() pointing at
        # the source space by keeping the session allocations as-is; the
        # penalty models the remote faults.

    return StrategyOutcome(
        strategy="peer_access",
        duration_s=env.now - t_start,
        moved_bytes=0,
        residual_source_bytes=residual,
        post_access_penalty=PEER_ACCESS_PENALTY,
    )


def _dgsf_strategy(api_server, target_device_id: int) -> Generator:
    """DGSF's own strategy wrapped in the common outcome type."""
    from repro.core.migration import migrate_api_server

    record = yield from migrate_api_server(api_server, target_device_id)
    return StrategyOutcome(
        strategy="dgsf",
        duration_s=record.duration_s,
        moved_bytes=record.moved_bytes,
        residual_source_bytes=0,
        post_access_penalty=1.0,
    )


MIGRATION_STRATEGIES = {
    "dgsf": _dgsf_strategy,
    "checkpoint_restore": checkpoint_restore_migration,
    "peer_access": peer_access_migration,
}
