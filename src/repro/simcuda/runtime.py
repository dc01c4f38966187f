"""The CUDA *runtime* API surface guest applications program against.

:class:`CudaRuntimeAPI` defines the interface; applications and the client
libraries in :mod:`repro.mllib` call only this.  Two implementations exist:

* :class:`LocalCudaRuntime` (here) — the *native* baseline: calls execute
  directly against a locally attached GPU, and the first API call pays the
  full CUDA initialization (3.2 s) on the critical path, exactly as the
  paper describes for native execution ("Native GPU applications cannot
  pre-initialize their own runtime", §V-C).
* :class:`repro.core.guest.GuestLibrary` — DGSF's interposer, which
  forwards remotable calls to a remote API server.

Every API method is a generator (it may consume simulated time); call via
``yield from``.  Methods return values directly (errors raise
:class:`~repro.simcuda.errors.CudaError`).
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

import numpy as np

from repro.sim.core import Environment
from repro.simcuda.context import CudaContext
from repro.simcuda.costs import CostModel, DEFAULT_COSTS
from repro.simcuda.device import SimGPU
from repro.simcuda.errors import CudaError, cudaError
from repro.simcuda.kernels import KernelRegistry, builtin_registry
from repro.simcuda.types import Dim3, MemcpyKind

__all__ = ["CudaRuntimeAPI", "LocalCudaRuntime", "PointerAttributes"]

_HOST_PTR_BASE = 0x5500_0000_0000


class PointerAttributes:
    """Result of ``cudaPointerGetAttributes``."""

    __slots__ = ("is_device", "device_id", "size")

    def __init__(self, is_device: bool, device_id: int, size: int):
        self.is_device = is_device
        self.device_id = device_id
        self.size = size


class CudaRuntimeAPI:
    """Abstract guest-facing CUDA runtime API.

    Subclasses implement each entry point as a generator.  The method set
    covers what the six paper workloads (directly or through
    :mod:`repro.mllib`) need.
    """

    # device management
    def cudaGetDeviceCount(self) -> Generator: ...
    def cudaGetDeviceProperties(self, device: int) -> Generator: ...
    def cudaSetDevice(self, device: int) -> Generator: ...
    # memory
    def cudaMalloc(self, size: int) -> Generator: ...
    def cudaFree(self, ptr: int) -> Generator: ...
    def cudaMemcpy(self, dst, src, size: int, kind: MemcpyKind) -> Generator: ...
    def cudaMemcpyAsync(self, dst, src, size: int, kind: MemcpyKind, stream: int = 0) -> Generator: ...
    def cudaMemset(self, ptr: int, value: int, size: int) -> Generator: ...
    def cudaMallocHost(self, size: int) -> Generator: ...
    def cudaFreeHost(self, ptr: int) -> Generator: ...
    def cudaPointerGetAttributes(self, ptr: int) -> Generator: ...
    def cudaMemGetInfo(self) -> Generator: ...
    # kernels
    def cudaGetFunction(self, name: str) -> Generator: ...
    def cudaLaunchKernel(self, fptr: int, grid: Dim3, block: Dim3, args: tuple,
                         stream: int = 0, work: Optional[float] = None) -> Generator: ...
    def cudaPushCallConfiguration(self, grid: Dim3, block: Dim3, stream: int = 0) -> Generator: ...
    # streams / events / sync
    def cudaStreamCreate(self) -> Generator: ...
    def cudaStreamSynchronize(self, stream: int) -> Generator: ...
    def cudaStreamDestroy(self, stream: int) -> Generator: ...
    def cudaEventCreate(self) -> Generator: ...
    def cudaEventRecord(self, event: int, stream: int = 0) -> Generator: ...
    def cudaEventSynchronize(self, event: int) -> Generator: ...
    def cudaEventElapsedTime(self, start: int, end: int) -> Generator: ...
    def cudaDeviceSynchronize(self) -> Generator: ...


class LocalCudaRuntime(CudaRuntimeAPI):
    """Native execution against locally attached GPUs."""

    def __init__(
        self,
        env: Environment,
        devices: list[SimGPU],
        kernel_registry: Optional[KernelRegistry] = None,
        costs: CostModel = DEFAULT_COSTS,
    ):
        if not devices:
            raise CudaError(cudaError.cudaErrorInitializationError, "no devices")
        self.env = env
        self.devices = devices
        self.kernels = kernel_registry or builtin_registry()
        self.costs = costs
        self._context: Optional[CudaContext] = None
        self._current_device = 0
        self._host_allocs: dict[int, int] = {}
        self._host_ids = itertools.count(_HOST_PTR_BASE, 0x1_0000)
        #: diagnostic counter: number of API calls issued
        self.api_calls = 0
        #: time spent in lazy CUDA initialization (exposed for phase breakdowns)
        self.init_time_spent = 0.0

    # -- init ------------------------------------------------------------------
    def _ensure_init(self) -> Generator:
        """Lazy CUDA initialization on first call — the native 3.2 s cost."""
        self.api_calls += 1
        yield self.env.timeout(self.costs.api_call_local_s)
        if self._context is None:
            device = self.devices[self._current_device]
            device.reserve_bytes(self.costs.cuda_context_bytes)
            start = self.env.now
            yield self.env.timeout(self.costs.cuda_init_s)
            self.init_time_spent += self.env.now - start
            self._context = CudaContext(self.env, device, self.kernels)

    @property
    def context(self) -> CudaContext:
        if self._context is None:
            raise CudaError(cudaError.cudaErrorInitializationError, "runtime not initialized")
        return self._context

    # -- device management --------------------------------------------------------
    def cudaGetDeviceCount(self) -> Generator:
        yield from self._ensure_init()
        return len(self.devices)

    def cudaGetDeviceProperties(self, device: int) -> Generator:
        yield from self._ensure_init()
        if not 0 <= device < len(self.devices):
            raise CudaError(cudaError.cudaErrorInvalidDevice, str(device))
        return self.devices[device].properties

    def cudaSetDevice(self, device: int) -> Generator:
        if not 0 <= device < len(self.devices):
            raise CudaError(cudaError.cudaErrorInvalidDevice, str(device))
        if self._context is not None and device != self._current_device:
            raise CudaError(
                cudaError.cudaErrorNotSupported,
                "switching devices after initialization is not modeled",
            )
        self._current_device = device
        yield self.env.timeout(self.costs.api_call_local_s)

    # -- memory -----------------------------------------------------------------
    def cudaMalloc(self, size: int) -> Generator:
        yield from self._ensure_init()
        ctx = self.context
        yield self.env.timeout(self.costs.malloc_time(size))
        alloc = ctx.device.alloc_phys(size)
        va = ctx.address_space.reserve(size)
        ctx.address_space.map(va, alloc)
        return va

    def cudaFree(self, ptr: int) -> Generator:
        yield from self._ensure_init()
        ctx = self.context
        yield self.env.timeout(self.costs.free_s)
        alloc = ctx.address_space.unmap(ptr)
        ctx.address_space.free_reservation(ptr)
        ctx.device.free_phys(alloc)

    def cudaMemcpy(self, dst, src, size: int, kind: MemcpyKind) -> Generator:
        """Synchronous memcpy: implicitly synchronizes the default stream."""
        done = yield from self.cudaMemcpyAsync(dst, src, size, kind, stream=0)
        yield done

    def cudaMemcpyAsync(
        self, dst, src, size: int, kind: MemcpyKind, stream: int = 0
    ) -> Generator:
        """Async memcpy: returns the completion event without waiting."""
        yield from self._ensure_init()
        ctx = self.context
        device = ctx.device
        if size < 0:
            raise CudaError(cudaError.cudaErrorInvalidValue, "negative size")

        if kind == MemcpyKind.HostToDevice:
            dst_ptr = int(dst)
            payload = src if isinstance(src, np.ndarray) else None

            def start():
                if payload is not None:
                    mapping, offset = ctx.address_space.translate(dst_ptr)
                    mapping.allocation.write(offset, payload)
                return device.copy_h2d(size)

        elif kind == MemcpyKind.DeviceToHost:
            src_ptr = int(src)
            out = dst if isinstance(dst, np.ndarray) else None

            def start():
                if out is not None:
                    mapping, offset = ctx.address_space.translate(src_ptr)
                    data = mapping.allocation.read(offset, min(size, out.nbytes))
                    flat = out.view(np.uint8).ravel()
                    flat[: len(data)] = data
                return device.copy_d2h(size)

        elif kind == MemcpyKind.DeviceToDevice:
            dst_ptr, src_ptr = int(dst), int(src)

            def start():
                smap, soff = ctx.address_space.translate(src_ptr)
                dmap, doff = ctx.address_space.translate(dst_ptr)
                data = smap.allocation.read(soff, size)
                dmap.allocation.write(doff, data)
                return device.copy_d2d(size)

        else:
            raise CudaError(cudaError.cudaErrorInvalidValue, f"unsupported kind {kind}")

        return ctx.stream(stream).enqueue(start, name="memcpy")

    def cudaMemset(self, ptr: int, value: int, size: int) -> Generator:
        yield from self._ensure_init()
        ctx = self.context
        dev_ptr = int(ptr)

        def start():
            mapping, offset = ctx.address_space.translate(dev_ptr)
            mapping.allocation.fill(offset, size, value & 0xFF)
            return ctx.device.memset(size)

        done = ctx.default_stream.enqueue(start, name="memset")
        yield done

    def cudaMemGetInfo(self) -> Generator:
        """(free, total) device memory in bytes."""
        yield from self._ensure_init()
        device = self.context.device
        return (device.mem_free, device.total_mem)

    def cudaMallocHost(self, size: int) -> Generator:
        """Pinned host allocation — host-side only, negligible cost."""
        yield from self._ensure_init()
        ptr = next(self._host_ids)
        self._host_allocs[ptr] = size
        return ptr

    def cudaFreeHost(self, ptr: int) -> Generator:
        yield from self._ensure_init()
        if ptr not in self._host_allocs:
            raise CudaError(cudaError.cudaErrorInvalidValue, f"{ptr:#x} not host-allocated")
        del self._host_allocs[ptr]

    def cudaPointerGetAttributes(self, ptr: int) -> Generator:
        yield from self._ensure_init()
        ctx = self.context
        if ctx.address_space.is_device_pointer(ptr):
            mapping, _ = ctx.address_space.translate(ptr)
            return PointerAttributes(True, ctx.device.device_id, mapping.size)
        if ptr in self._host_allocs:
            return PointerAttributes(False, -1, self._host_allocs[ptr])
        raise CudaError(cudaError.cudaErrorInvalidValue, f"unknown pointer {ptr:#x}")

    # -- kernels ----------------------------------------------------------------
    def cudaGetFunction(self, name: str) -> Generator:
        """Resolve a registered kernel to a function pointer.

        Stands in for the ``__cudaRegisterFatBinary`` /
        ``__cudaRegisterFunction`` pair real applications run at load time.
        """
        yield from self._ensure_init()
        return self.context.get_function(name)

    def cudaLaunchKernel(
        self,
        fptr: int,
        grid: Dim3,
        block: Dim3,
        args: tuple,
        stream: int = 0,
        work: Optional[float] = None,
    ) -> Generator:
        yield from self._ensure_init()
        yield self.env.timeout(self.costs.kernel_launch_s)
        return self.context.launch_kernel(
            fptr, grid, block, args, stream_handle=stream, work_override=work
        )

    def cudaPushCallConfiguration(self, grid: Dim3, block: Dim3, stream: int = 0) -> Generator:
        """Host-side bookkeeping the compiler emits before every launch."""
        yield from self._ensure_init()

    # -- streams / events / sync ----------------------------------------------------
    def cudaStreamCreate(self) -> Generator:
        yield from self._ensure_init()
        yield self.env.timeout(self.costs.stream_create_s)
        return self.context.create_stream().handle

    def cudaStreamSynchronize(self, stream: int) -> Generator:
        yield from self._ensure_init()
        yield self.context.stream(stream).synchronize()

    def cudaStreamDestroy(self, stream: int) -> Generator:
        yield from self._ensure_init()
        self.context.destroy_stream(stream)

    def cudaEventCreate(self) -> Generator:
        yield from self._ensure_init()
        return self.context.create_event().handle

    def cudaEventRecord(self, event: int, stream: int = 0) -> Generator:
        yield from self._ensure_init()
        self.context.event(event).record(self.context.stream(stream))

    def cudaEventSynchronize(self, event: int) -> Generator:
        yield from self._ensure_init()
        yield self.context.event(event).synchronize()

    def cudaEventElapsedTime(self, start: int, end: int) -> Generator:
        """Milliseconds between two completed recorded events."""
        yield from self._ensure_init()
        ctx = self.context
        try:
            seconds = ctx.event(end).elapsed_since(ctx.event(start))
        except RuntimeError as exc:
            raise CudaError(cudaError.cudaErrorInvalidResourceHandle, str(exc))
        return seconds * 1000.0

    def cudaDeviceSynchronize(self) -> Generator:
        yield from self._ensure_init()
        yield self.context.synchronize()
