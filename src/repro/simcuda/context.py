"""CUDA contexts.

A context owns a virtual address space, streams, events and per-context
kernel *function pointers*.  Function pointers being context-local is a
real CUDA property the paper leans on: after migrating to another GPU
(hence another context) the API server must re-resolve every kernel handle
(§V-B "Kernel launches").

Context *creation* is expensive (3.2 s, ~303 MB — paper §V-C); the caller
decides when to pay it: native applications pay on first CUDA call, DGSF
API servers pre-create contexts off the critical path.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.sim.core import Environment, Event
from repro.simcuda.device import SimGPU
from repro.simcuda.errors import CudaError, cudaError
from repro.simcuda.kernels import KernelDef, KernelRegistry, LaunchParams
from repro.simcuda.stream import Stream, CudaEvent
from repro.simcuda.types import Dim3
from repro.simcuda.va import AddressSpace

__all__ = ["CudaContext"]

_ctx_ids = itertools.count(1)


class CudaContext:
    """One CUDA context on one GPU."""

    def __init__(self, env: Environment, device: SimGPU, kernel_registry: KernelRegistry):
        self.env = env
        self.device = device
        self.kernels = kernel_registry
        self.context_id = next(_ctx_ids)
        self.address_space = AddressSpace()
        self.default_stream = Stream(env, self)
        self.streams: dict[int, Stream] = {self.default_stream.handle: self.default_stream}
        self.events: dict[int, CudaEvent] = {}
        #: kernel name -> per-context function pointer (and back)
        self._fptr_by_name: dict[str, int] = {}
        self._name_by_fptr: dict[int, str] = {}
        self._next_fptr = (self.context_id << 24) | 0x10
        self.destroyed = False

    # -- kernel function pointers ------------------------------------------------
    def get_function(self, name: str) -> int:
        """Resolve a kernel name to this context's function pointer."""
        self._check_live()
        kernel = self.kernels.get(name)  # validates existence
        if kernel.name not in self._fptr_by_name:
            fptr = self._next_fptr
            self._next_fptr += 0x10
            self._fptr_by_name[name] = fptr
            self._name_by_fptr[fptr] = name
        return self._fptr_by_name[name]

    def function_name(self, fptr: int) -> str:
        try:
            return self._name_by_fptr[fptr]
        except KeyError:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle,
                f"function pointer {fptr:#x} does not belong to context {self.context_id}",
            ) from None

    # -- streams / events ---------------------------------------------------------
    def create_stream(self) -> Stream:
        self._check_live()
        stream = Stream(self.env, self)
        self.streams[stream.handle] = stream
        return stream

    def stream(self, handle: Optional[int]) -> Stream:
        if handle is None or handle == 0:
            return self.default_stream
        try:
            return self.streams[handle]
        except KeyError:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle, f"stream {handle:#x}"
            ) from None

    def destroy_stream(self, handle: int) -> None:
        stream = self.stream(handle)
        if stream is self.default_stream:
            raise CudaError(cudaError.cudaErrorInvalidValue, "cannot destroy default stream")
        stream.destroy()
        del self.streams[handle]

    def create_event(self) -> CudaEvent:
        self._check_live()
        event = CudaEvent(self.env)
        self.events[event.handle] = event
        return event

    def event(self, handle: int) -> CudaEvent:
        try:
            return self.events[handle]
        except KeyError:
            raise CudaError(
                cudaError.cudaErrorInvalidResourceHandle, f"event {handle:#x}"
            ) from None

    # -- memory helpers -------------------------------------------------------------
    def resolve_view(self, ptr: int, nbytes: int) -> np.ndarray:
        """Writable uint8 view of device memory at ``ptr`` (payload window).

        The caller may store anything through the view, so the allocation
        stops being demand-zero.
        """
        mapping, offset = self.address_space.translate(ptr)
        alloc = mapping.allocation
        if offset >= alloc.payload_bytes:
            return np.zeros(0, dtype=np.uint8)
        alloc.demand_zero = False
        end = min(offset + nbytes, alloc.payload_bytes)
        return alloc.data[offset:end]

    # -- launching -------------------------------------------------------------------
    def launch_kernel(
        self,
        fptr: int,
        grid: Dim3,
        block: Dim3,
        args: tuple,
        stream_handle: Optional[int] = None,
        work_override: Optional[float] = None,
    ) -> Event:
        """Enqueue a kernel launch; returns its stream-completion event.

        ``work_override`` replaces the kernel's timing model — used by
        trace-driven workloads that carry measured durations.
        """
        self._check_live()
        name = self.function_name(fptr)
        kernel = self.kernels.get(name)
        params = LaunchParams(grid=grid, block=block, args=args)
        work = work_override if work_override is not None else kernel.timing(params)
        stream = self.stream(stream_handle)
        if work == 0.0 and kernel.payload is None:
            # Zero-work glue launch: completes exactly when the work already
            # enqueued completes — no new stream op needed (keeps the event
            # count of chatty frameworks tractable).
            return stream.synchronize()

        def start() -> Event:
            if kernel.payload is not None and not self._zero_noop(kernel, args):
                kernel.payload(self.resolve_view, params)
            return self.device.launch(work, demand=kernel.demand, owner=self)

        return stream.enqueue(start, name=name)

    def _zero_noop(self, kernel: KernelDef, args: tuple) -> bool:
        """True when ``kernel``'s payload provably leaves memory unchanged:
        it declares ``zero_args`` and every one of them points into a
        demand-zero allocation.  Any translation failure answers False so
        the payload runs and raises exactly as it would have."""
        if not kernel.zero_args:
            return False
        translate = self.address_space.translate
        try:
            for i in kernel.zero_args:
                if not translate(int(args[i]))[0].allocation.demand_zero:
                    return False
        except (CudaError, IndexError, TypeError, ValueError):
            return False
        return True

    # -- synchronization --------------------------------------------------------------
    def synchronize(self) -> Event:
        """cudaDeviceSynchronize scope: all streams of this context."""
        tails = [s.synchronize() for s in self.streams.values()]
        return self.env.all_of(tails)

    # -- teardown ----------------------------------------------------------------------
    def destroy(self) -> None:
        """Release all context resources (allocations stay owner-managed)."""
        self.destroyed = True
        for stream in self.streams.values():
            stream.destroy()

    def _check_live(self) -> None:
        if self.destroyed:
            raise CudaError(cudaError.cudaErrorInvalidResourceHandle, "context destroyed")

    def __repr__(self) -> str:
        return f"<CudaContext {self.context_id} on GPU {self.device.device_id}>"
