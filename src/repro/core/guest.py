"""The DGSF guest library (paper §V-B, §V-C).

This is the interposition shim a function's process loads instead of the
real CUDA/cuDNN/cuBLAS libraries.  Every entry point a workload can call
is implemented here; depending on the API's classification and the active
optimization flags a call is:

* **localized** — answered from guest-side state, zero network traffic
  (``cudaPointerGetAttributes`` from the allocation table,
  ``__cudaPushCallConfiguration`` piggybacked onto the next launch,
  ``cudaMallocHost`` fully emulated, descriptor create/set/destroy served
  from the guest-side descriptor pool),
* **batched** — appended to a local buffer of enqueue-only calls and
  shipped in a single message at the next synchronization point,
* **async-forwarded** — sent immediately on the pipelined RPC channel
  without waiting for the reply; remote failures are deferred and surface
  at the next synchronization point (``cudaStreamSynchronize`` /
  ``cudaDeviceSynchronize`` / a D2H copy — any synchronous round trip),
* **remoted** — one synchronous round trip to the API server.

Counters record intercepted vs forwarded calls so the evaluation can
report the paper's "reduced forwarded APIs by up to 48%/96%" numbers.

Method names and signatures form the *GPU session facade* shared with the
native baseline (:class:`repro.core.deployment.NativeGpuSession`):
workloads are written once against this facade and run unmodified under
native, DGSF/OpenFaaS and DGSF/Lambda deployments.
"""

from __future__ import annotations

import itertools
from typing import Generator, Optional

import numpy as np

from repro.errors import ReproError
from repro.sim.core import Environment
from repro.simcuda.costs import CostModel, DEFAULT_COSTS
from repro.simcuda.cudnn import DESCRIPTOR_KINDS
from repro.simcuda.errors import CudaError, cudaError
from repro.simcuda.runtime import PointerAttributes
from repro.simnet.rpc import PendingReply, RpcClient, RpcError, RpcTimeout
from repro.obs.metrics import MetricsRegistry
from repro.core.classify import ApiClass, classify
from repro.core.config import OptimizationFlags

__all__ = ["GuestLibrary", "GuestGpuBundle", "GuestRpcError", "IDEMPOTENT_METHODS"]

_local_ids = itertools.count(0x6000_0000)
_guest_ids = itertools.count(1)

#: flush the batch buffer when it reaches this many calls even without a
#: synchronization point (bounds guest memory and server burstiness)
BATCH_FLUSH_THRESHOLD = 48

#: remotable methods that are safe to re-issue after a lost reply: they
#: either mutate nothing server-side or overwrite the same bytes/state.
#: Allocation and handle/stream/event creation are NOT here — replaying
#: them would leak server resources if the first attempt did land.
IDEMPOTENT_METHODS = frozenset(
    {
        "attach",
        "cudaGetDeviceCount",
        "cudaGetDeviceProperties",
        "cudaSetDevice",
        "pushCallConfiguration",
        "cudaMemGetInfo",
        "cudaDeviceSynchronize",
        "cudaStreamSynchronize",
        "cudaEventSynchronize",
        "cudaEventElapsedTime",
        "memcpyD2H",
        "memcpyH2D",
        "memcpyD2D",
        "cudaMemset",
    }
)


class GuestRpcError(ReproError):
    """A remoted call could not be completed: the RPC timed out and was
    either non-idempotent (unsafe to replay) or out of retries.  The
    function fails cleanly instead of hanging on a dead server."""


def _translate_remote_error(exc: RpcError) -> Exception:
    """Map a marshalled remote failure back to a CudaError when possible."""
    text = str(exc)
    for code in cudaError:
        if code.name in text:
            return CudaError(code, text)
    return exc


class GuestLibrary:
    """One function's interposer, connected to one API server."""

    def __init__(
        self,
        env: Environment,
        rpc: RpcClient,
        flags: OptimizationFlags = OptimizationFlags(),
        costs: CostModel = DEFAULT_COSTS,
        batch_flush_threshold: int = BATCH_FLUSH_THRESHOLD,
        rpc_timeout_s: float = 0.0,
        rpc_max_retries: int = 2,
        rpc_retry_backoff_s: float = 0.25,
        async_max_in_flight: int = 64,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        span=None,
    ):
        self.env = env
        self.rpc = rpc
        self.flags = flags
        self.costs = costs
        self.batch_flush_threshold = max(1, batch_flush_threshold)
        #: reply deadline per remoted call; 0 = wait forever (no fault model)
        self.rpc_timeout_s = rpc_timeout_s
        self.rpc_max_retries = rpc_max_retries
        self.rpc_retry_backoff_s = rpc_retry_backoff_s
        #: async-forward backpressure: cap on unharvested in-flight calls
        self.async_max_in_flight = max(1, async_max_in_flight)
        self.attached = False
        # guest-side caches/state
        self._device_allocs: dict[int, int] = {}      # va -> size
        self._host_allocs: dict[int, int] = {}
        self._kernel_tokens: dict[str, int] = {}      # name -> server token
        self._descriptor_pool: dict[str, list[int]] = {k: [] for k in DESCRIPTOR_KINDS}
        self._local_descriptors: dict[int, tuple[str, dict]] = {}
        self._device_count: Optional[int] = None
        self._push_config: Optional[tuple] = None
        self._batch: list[tuple[str, tuple, int]] = []
        # async-forward state: unharvested in-flight calls (FIFO) and the
        # first remote failure awaiting the next synchronization point
        self._pending: list[PendingReply] = []
        self._deferred_error: Optional[Exception] = None
        # counters live in the (possibly shared) metrics registry, one
        # labeled instrument per guest; the attribute names below are
        # read-only views over them
        self.guest_id = next(_guest_ids)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        c = self.metrics.counter
        g = self.guest_id
        self._c_intercepted = c("guest.calls_intercepted", guest=g)
        self._c_localized = c("guest.calls_localized", guest=g)
        self._c_batched = c("guest.calls_batched", guest=g)
        self._c_async_forwarded = c("guest.calls_async_forwarded", guest=g)
        self._c_async_deferred_errors = c("guest.async_deferred_errors", guest=g)
        self._c_async_replies_lost = c("guest.async_replies_lost", guest=g)
        self._c_rpc_timeouts = c("guest.rpc_timeouts", guest=g)
        self._c_rpc_retries = c("guest.rpc_retries", guest=g)
        # tracing: call and RPC spans hang off the invocation's root span
        # when one is provided (sharing its track), else a per-guest track
        self.tracer = tracer
        self._span = span
        if span is not None:
            self._trace_pid, self._trace_tid = span.pid, span.tid
        else:
            self._trace_pid, self._trace_tid = "guest", f"guest-{g}"
        if tracer is not None and span is not None:
            # propagate the trace context on the wire so the API server
            # can parent its execution spans under this invocation
            rpc.trace_ctx = (span.trace_id, span.span_id)

    # -- counter views ----------------------------------------------------------
    @property
    def calls_intercepted(self) -> int:
        return self._c_intercepted.value

    @property
    def calls_localized(self) -> int:
        return self._c_localized.value

    @property
    def calls_batched(self) -> int:
        return self._c_batched.value

    @property
    def calls_async_forwarded(self) -> int:
        return self._c_async_forwarded.value

    @property
    def async_deferred_errors(self) -> int:
        return self._c_async_deferred_errors.value

    @property
    def async_replies_lost(self) -> int:
        return self._c_async_replies_lost.value

    @property
    def rpc_timeouts(self) -> int:
        return self._c_rpc_timeouts.value

    @property
    def rpc_retries(self) -> int:
        return self._c_rpc_retries.value

    # -- derived counters -----------------------------------------------------------
    @property
    def calls_forwarded(self) -> int:
        """API calls that crossed the network (batched ones included)."""
        return self.rpc.calls_sent

    @property
    def calls_forwarded_individually(self) -> int:
        """Calls that crossed the network as their *own* synchronous
        message — the paper's "forwarded APIs" metric excludes calls
        piggybacked in batches (§V-C)."""
        return self.rpc.calls_sent - self.calls_batched

    @property
    def messages_sent(self) -> int:
        return self.rpc.messages_sent

    @property
    def async_in_flight(self) -> int:
        """Async-forwarded calls currently awaiting harvest."""
        return len(self._pending)

    @property
    def max_async_in_flight_seen(self) -> int:
        """High-water pipelining depth observed on the connection."""
        return self.rpc.max_in_flight

    # -- attach ------------------------------------------------------------------------
    def attach(self, kernel_names: list[str]) -> Generator:
        """Step ② of §V-A: register kernels with the API server.

        The server replies with tokens, so subsequent ``cudaGetFunction``
        calls are answered locally.
        """
        tokens = yield from self._remote(
            "attach", list(kernel_names), pooled=self.flags.handle_pooling
        )
        self._kernel_tokens.update(tokens)
        self.attached = True

    def detach(self) -> Generator:
        """Flush outstanding batched work before the connection closes.

        Async-forwarded calls still in flight are abandoned (their replies
        are no longer deliverable once the connection closes) and any
        deferred error is discarded — detach is process exit, not a
        synchronization point.
        """
        yield from self._flush()
        for pending in self._pending:
            pending.abandon()
            self._end_async_span(pending, "abandoned")
        self._pending = []
        self._deferred_error = None
        self.attached = False

    # -- plumbing ----------------------------------------------------------------------
    def _intercept(self) -> None:
        self._c_intercepted.inc()

    def _local(self, api: str) -> Generator:
        """Account a localized call: guest-side cost only."""
        self._c_localized.inc()
        if self.tracer is not None:
            self._call_span(api, "local")
        yield self.env.timeout(self.costs.api_call_local_s)

    def _call_span(self, api: str, route: str) -> None:
        """Record a call that never waits on the wire (localized or
        batched).  It costs exactly ``api_call_local_s`` from now, so the
        span is recorded up front.  Category ``call`` is in no
        critical-path level, so attribution ignores these spans;
        :func:`repro.obs.critpath.call_mix` counts them beside the
        ``rpc:*`` spans."""
        now = self.env.now
        self.tracer.complete(
            api, now, now + self.costs.api_call_local_s, cat="call",
            pid=self._trace_pid, tid=self._trace_tid, parent=self._span,
            route=route,
        )

    def _remote(self, method: str, *args, extra_bytes: int = 0,
                reply_extra_bytes: int = 0, **kwargs) -> Generator:
        """Synchronous round trip (flushes the batch first for ordering).

        With ``rpc_timeout_s`` set, replies are awaited under a deadline;
        timed-out *idempotent* calls are retried with bounded exponential
        backoff, everything else surfaces as :class:`GuestRpcError`.
        """
        yield from self._flush()
        timeout_s = self.rpc_timeout_s if self.rpc_timeout_s > 0 else None
        retries = self.rpc_max_retries if (
            timeout_s is not None and method in IDEMPOTENT_METHODS
        ) else 0
        t0 = self.env.now
        status = "error"
        attempts = 0
        try:
            for attempt in range(retries + 1):
                attempts = attempt + 1
                try:
                    result = yield from self.rpc.call(
                        method,
                        *args,
                        extra_bytes=extra_bytes,
                        reply_extra_bytes=reply_extra_bytes,
                        timeout_s=timeout_s,
                        **kwargs,
                    )
                except RpcTimeout as exc:
                    self._c_rpc_timeouts.inc()
                    if attempt >= retries:
                        status = "timeout"
                        raise GuestRpcError(
                            f"{method} gave up after {attempt + 1} attempt(s): {exc}"
                        ) from None
                    self._c_rpc_retries.inc()
                    if self.tracer is not None:
                        self.tracer.instant(
                            "rpc_retry", pid=self._trace_pid,
                            tid=self._trace_tid, parent=self._span,
                            method=method, attempt=attempt + 1,
                        )
                    yield self.env.timeout(self.rpc_retry_backoff_s * (2 ** attempt))
                except RpcError as exc:
                    status = "remote_error"
                    raise _translate_remote_error(exc) from None
                else:
                    # The sync round trip succeeded; it is a synchronization
                    # point: harvest async-forwarded completions and surface
                    # the first deferred failure (tentpole semantics).
                    # No-ops unless async forwarding is active.
                    status = "ok"
                    if self._pending:
                        self._drain_pending()
                    if self._deferred_error is not None:
                        err, self._deferred_error = self._deferred_error, None
                        raise err
                    return result
        finally:
            if self.tracer is not None:
                self.tracer.complete(
                    f"rpc:{method}", t0, self.env.now, cat="rpc",
                    pid=self._trace_pid, tid=self._trace_tid,
                    parent=self._span, route="sync", status=status,
                    attempts=attempts, req_bytes=extra_bytes,
                    reply_bytes=reply_extra_bytes,
                )

    def _enqueue(self, method: str, args: tuple, extra_bytes: int = 0) -> Generator:
        """Forward an enqueue-only call per the active optimization flags:
        pipelined async forwarding, the batch buffer, or a sync RPC."""
        if self.flags.async_forward:
            yield from self._forward_async(method, args, extra_bytes)
        elif self.flags.batching:
            self._c_batched.inc()
            self._batch.append((method, args, extra_bytes))
            if len(self._batch) >= self.batch_flush_threshold:
                self._flush_now()
            if self.tracer is not None:
                self._call_span(method, "batched")
            yield self.env.timeout(self.costs.api_call_local_s)
        else:
            # without batching every enqueue is its own synchronous RPC
            yield from self._remote(method, *args, extra_bytes=extra_bytes)

    def _forward_async(self, method: str, args: tuple, extra_bytes: int) -> Generator:
        """Send an enqueue-only call immediately on the pipelined channel.

        The guest does not wait for the reply; the server starts executing
        (and enqueuing device work) while the function keeps running, so
        server dispatch and GPU time overlap host compute instead of being
        deferred to the next flush.  Ordering with batched flushes is
        preserved: anything sitting in the batch buffer leaves first, and
        the connection is FIFO.
        """
        if self._batch:
            self._flush_now()
        while len(self._pending) >= self.async_max_in_flight:
            # backpressure: absorb the oldest in-flight call before sending
            yield from self._absorb_oldest()
        self._c_async_forwarded.inc()
        pending = self.rpc.call_async(method, *args, extra_bytes=extra_bytes)
        if self.tracer is not None:
            # open span closed at harvest time — the span's extent is the
            # call's full pipelined lifetime (send -> completion observed)
            pending.span = self.tracer.begin(
                f"rpc:{method}", cat="rpc", pid=self._trace_pid,
                tid=self._trace_tid, parent=self._span, route="async",
                req_bytes=extra_bytes, msg_id=pending.msg_id,
            )
        self._pending.append(pending)
        yield self.env.timeout(self.costs.api_call_local_s)

    def _absorb_oldest(self) -> Generator:
        """Blocking harvest of the oldest in-flight async call (backpressure
        path).  Failures are deferred, not raised — this is not a
        synchronization point."""
        pending = self._pending.pop(0)
        timeout_s = self.rpc_timeout_s if self.rpc_timeout_s > 0 else None
        try:
            yield from pending.wait(timeout_s=timeout_s)
        except RpcTimeout:
            self._c_rpc_timeouts.inc()
            self._c_async_replies_lost.inc()
            self._end_async_span(pending, "lost")
            self._defer(GuestRpcError(
                f"async {pending.method} reply lost (msg {pending.msg_id})"
            ))
        except RpcError as exc:
            self._end_async_span(pending, "remote_error")
            self._defer(_translate_remote_error(exc))
        else:
            self._end_async_span(pending, "ok")

    def _drain_pending(self) -> None:
        """Harvest async completions at a synchronization point.

        The connection is FIFO per direction and the server dispatches
        sequentially, so by the time the sync reply arrived every earlier
        async reply has too — anything missing was lost to a fault
        (dropped reply, server crash) and is abandoned.
        """
        pending, self._pending = self._pending, []
        for p in pending:
            if p.arrived:
                try:
                    p.result()
                except RpcError as exc:
                    self._end_async_span(p, "remote_error")
                    self._defer(_translate_remote_error(exc))
                else:
                    self._end_async_span(p, "ok")
            else:
                p.abandon()
                self._c_async_replies_lost.inc()
                self._end_async_span(p, "lost")
                self._defer(GuestRpcError(
                    f"async {p.method} reply lost (msg {p.msg_id})"
                ))

    def _end_async_span(self, pending: PendingReply, status: str) -> None:
        if pending.span is not None:
            pending.span.end(status=status)
            pending.span = None

    def _defer(self, err: Exception) -> None:
        """Record a failed async-forwarded call for the next sync point."""
        self._c_async_deferred_errors.inc()
        if self._deferred_error is None:
            self._deferred_error = err

    def _flush(self) -> Generator:
        if self._batch:
            self._flush_now()
        if False:
            yield
        return None

    def _flush_now(self) -> None:
        batch, self._batch = self._batch, []
        if self.tracer is not None:
            self.tracer.instant(
                "batch_flush", pid=self._trace_pid, tid=self._trace_tid,
                parent=self._span, calls=len(batch),
            )
        # one-way: ordering is guaranteed by the FIFO connection and the
        # server's sequential dispatch; the next sync call observes it
        gen = self.rpc.call_batch(batch, oneway=True)
        # oneway batches complete synchronously on the client side; any
        # other exception is a lost batch and must reach the caller
        try:
            next(gen)
        except StopIteration:
            pass

    # ======================= CUDA runtime surface =======================

    # --- device management ---
    def cudaGetDeviceCount(self) -> Generator:
        self._intercept()
        if classify("cudaGetDeviceCount", self.flags) is ApiClass.LOCALIZABLE:
            if self._device_count is not None:
                yield from self._local("cudaGetDeviceCount")
                return self._device_count
        count = yield from self._remote("cudaGetDeviceCount")
        self._device_count = count
        return count

    def cudaGetDeviceProperties(self, device: int = 0) -> Generator:
        self._intercept()
        return (yield from self._remote("cudaGetDeviceProperties", device))

    def cudaSetDevice(self, device: int) -> Generator:
        self._intercept()
        if classify("cudaSetDevice", self.flags) is ApiClass.LOCALIZABLE:
            if device != 0:
                raise CudaError(cudaError.cudaErrorInvalidDevice, str(device))
            yield from self._local("cudaSetDevice")
            return None
        return (yield from self._remote("cudaSetDevice", device))

    # --- memory ---
    def cudaMalloc(self, size: int) -> Generator:
        self._intercept()
        va = yield from self._remote("cudaMalloc", int(size))
        self._device_allocs[va] = int(size)
        return va

    def cudaFree(self, ptr: int) -> Generator:
        self._intercept()
        if ptr not in self._device_allocs:
            raise CudaError(cudaError.cudaErrorInvalidValue, f"{ptr:#x} not allocated")
        yield from self._remote("cudaFree", int(ptr))
        del self._device_allocs[ptr]
        return None

    def memcpyH2D(self, dst: int, size: int, payload: Optional[np.ndarray] = None,
                  sync: bool = True, stream: int = 0) -> Generator:
        self._intercept()
        pay_bytes = int(payload.nbytes) if payload is not None else 0
        extra = max(0, int(size) - pay_bytes)
        args = (int(dst), int(size), payload, sync, stream)
        if not sync and classify("cudaMemcpyAsync", self.flags) is ApiClass.BATCHABLE:
            yield from self._enqueue("memcpyH2D", args, extra_bytes=extra)
            return None
        yield from self._remote("memcpyH2D", *args, extra_bytes=extra)
        return None

    def memcpyD2H(self, src: int, size: int, stream: int = 0) -> Generator:
        self._intercept()
        data = yield from self._remote(
            "memcpyD2H", int(src), int(size), stream,
            reply_extra_bytes=int(size),
        )
        return data

    def memcpyD2D(self, dst: int, src: int, size: int, sync: bool = True,
                  stream: int = 0) -> Generator:
        self._intercept()
        args = (int(dst), int(src), int(size), sync, stream)
        if not sync and classify("cudaMemcpyAsync", self.flags) is ApiClass.BATCHABLE:
            yield from self._enqueue("memcpyD2D", args)
            return None
        yield from self._remote("memcpyD2D", *args)
        return None

    def cudaMemset(self, ptr: int, value: int, size: int, sync: bool = True,
                   stream: int = 0) -> Generator:
        self._intercept()
        args = (int(ptr), int(value), int(size), sync, stream)
        if not sync and classify("cudaMemsetAsync", self.flags) is ApiClass.BATCHABLE:
            yield from self._enqueue("cudaMemset", args)
            return None
        yield from self._remote("cudaMemset", *args)
        return None

    def cudaMallocHost(self, size: int) -> Generator:
        self._intercept()
        if classify("cudaMallocHost", self.flags) is ApiClass.LOCALIZABLE:
            yield from self._local("cudaMallocHost")
            ptr = next(_local_ids)
            self._host_allocs[ptr] = int(size)
            return ptr
        # unoptimized DGSF still keeps host memory on the guest, but pays a
        # round trip to keep the server's view coherent
        yield from self._remote("pushCallConfiguration")  # cheap server no-op
        ptr = next(_local_ids)
        self._host_allocs[ptr] = int(size)
        return ptr

    def cudaFreeHost(self, ptr: int) -> Generator:
        self._intercept()
        if ptr not in self._host_allocs:
            raise CudaError(cudaError.cudaErrorInvalidValue, f"{ptr:#x}")
        if classify("cudaFreeHost", self.flags) is ApiClass.LOCALIZABLE:
            yield from self._local("cudaFreeHost")
        else:
            yield from self._remote("pushCallConfiguration")
        del self._host_allocs[ptr]
        return None

    def cudaPointerGetAttributes(self, ptr: int) -> Generator:
        self._intercept()
        if classify("cudaPointerGetAttributes", self.flags) is ApiClass.LOCALIZABLE:
            # "the guest library tracks the addresses returned by device
            # memory allocation functions" (§V-C)
            yield from self._local("cudaPointerGetAttributes")
            if ptr in self._device_allocs:
                return PointerAttributes(True, 0, self._device_allocs[ptr])
            if ptr in self._host_allocs:
                return PointerAttributes(False, -1, self._host_allocs[ptr])
            raise CudaError(cudaError.cudaErrorInvalidValue, f"{ptr:#x}")
        # unoptimized: ask the server (it only knows device pointers)
        if ptr in self._host_allocs:
            yield from self._remote("pushCallConfiguration")
            return PointerAttributes(False, -1, self._host_allocs[ptr])
        yield from self._remote("pushCallConfiguration")
        if ptr in self._device_allocs:
            return PointerAttributes(True, 0, self._device_allocs[ptr])
        raise CudaError(cudaError.cudaErrorInvalidValue, f"{ptr:#x}")

    # --- kernels ---
    def cudaGetFunction(self, name: str) -> Generator:
        self._intercept()
        token = self._kernel_tokens.get(name)
        if token is not None:
            yield from self._local("cudaGetFunction")
            return token
        token = yield from self._remote("cudaGetFunction", name)
        self._kernel_tokens[name] = token
        return token

    def pushCallConfiguration(self, grid=(1, 1, 1), block=(1, 1, 1),
                              stream: int = 0) -> Generator:
        """``__cudaPushCallConfiguration``: emitted before every launch."""
        self._intercept()
        if classify("__cudaPushCallConfiguration", self.flags) is ApiClass.LOCALIZABLE:
            # piggybacked onto the launch itself (§V-C)
            yield from self._local("pushCallConfiguration")
            self._push_config = (tuple(grid), tuple(block), stream)
            return None
        yield from self._remote("pushCallConfiguration")
        self._push_config = (tuple(grid), tuple(block), stream)
        return None

    def cudaLaunchKernel(self, token: int, grid=(1, 1, 1), block=(1, 1, 1),
                         args: tuple = (), stream: int = 0,
                         work: Optional[float] = None) -> Generator:
        self._intercept()
        self._push_config = None
        call_args = (int(token), tuple(grid), tuple(block), tuple(args), stream, work)
        if classify("cudaLaunchKernel", self.flags) is ApiClass.BATCHABLE:
            yield from self._enqueue("cudaLaunchKernel", call_args)
            return None
        yield from self._remote("cudaLaunchKernel", *call_args)
        return None

    # --- streams / events / sync ---
    def cudaStreamCreate(self) -> Generator:
        self._intercept()
        return (yield from self._remote("cudaStreamCreate"))

    def cudaStreamSynchronize(self, stream: int) -> Generator:
        self._intercept()
        yield from self._remote("cudaStreamSynchronize", stream)
        return None

    def cudaStreamDestroy(self, stream: int) -> Generator:
        self._intercept()
        yield from self._remote("cudaStreamDestroy", stream)
        return None

    def cudaEventCreate(self) -> Generator:
        self._intercept()
        return (yield from self._remote("cudaEventCreate"))

    def cudaEventRecord(self, event: int, stream: int = 0) -> Generator:
        self._intercept()
        if classify("cudaEventRecord", self.flags) is ApiClass.BATCHABLE:
            yield from self._enqueue("cudaEventRecord", (event, stream))
            return None
        yield from self._remote("cudaEventRecord", event, stream)
        return None

    def cudaEventSynchronize(self, event: int) -> Generator:
        self._intercept()
        yield from self._remote("cudaEventSynchronize", event)
        return None

    def cudaEventElapsedTime(self, start: int, end: int) -> Generator:
        self._intercept()
        return (yield from self._remote("cudaEventElapsedTime", start, end))

    def cudaMemGetInfo(self) -> Generator:
        self._intercept()
        if classify("cudaPointerGetAttributes", self.flags) is ApiClass.LOCALIZABLE:
            # the guest tracks its own allocations, and the budget is the
            # declared amount — answerable locally once known
            if getattr(self, "_mem_budget", None) is not None:
                yield from self._local("cudaMemGetInfo")
                used = sum(self._device_allocs.values())
                return (self._mem_budget - used, self._mem_budget)
        free, total = yield from self._remote("cudaMemGetInfo")
        self._mem_budget = total
        return (free, total)

    def cudaDeviceSynchronize(self) -> Generator:
        self._intercept()
        yield from self._remote("cudaDeviceSynchronize")
        return None

    # ======================= cuDNN surface =======================

    def cudnnCreate(self) -> Generator:
        self._intercept()
        return (yield from self._remote("cudnnCreate", self.flags.handle_pooling))

    def cudnnCreateDescriptor(self, kind: str) -> Generator:
        self._intercept()
        if classify("cudnnCreateDescriptor", self.flags) is ApiClass.LOCALIZABLE:
            # guest-side descriptor pool: reuse or mint locally (§V-C)
            yield from self._local("cudnnCreateDescriptor")
            pool = self._descriptor_pool.get(kind)
            if pool is None:
                raise CudaError(cudaError.cudaErrorInvalidValue, f"kind {kind!r}")
            if pool:
                token = pool.pop()
            else:
                token = next(_local_ids)
            self._local_descriptors[token] = (kind, {})
            return token
        return (yield from self._remote("cudnnDescriptorOp", kind, "create"))

    def cudnnSetDescriptor(self, desc: int, **settings) -> Generator:
        self._intercept()
        if classify("cudnnSetDescriptor", self.flags) is ApiClass.LOCALIZABLE:
            yield from self._local("cudnnSetDescriptor")
            if desc in self._local_descriptors:
                self._local_descriptors[desc][1].update(settings)
            return None
        yield from self._remote("cudnnDescriptorOp", "tensor", "set")
        return None

    def cudnnDestroyDescriptor(self, desc: int) -> Generator:
        self._intercept()
        if classify("cudnnDestroyDescriptor", self.flags) is ApiClass.LOCALIZABLE:
            yield from self._local("cudnnDestroyDescriptor")
            entry = self._local_descriptors.pop(desc, None)
            if entry is not None:
                self._descriptor_pool[entry[0]].append(desc)
            return None
        yield from self._remote("cudnnDescriptorOp", "tensor", "destroy")
        return None

    def cudnnOp(self, handle: int, op: str, work: float, sync: bool = False,
                stream: int = 0) -> Generator:
        self._intercept()
        args = (int(handle), op, float(work), sync, stream)
        if not sync and classify("cudnnOpAsync", self.flags) is ApiClass.BATCHABLE:
            yield from self._enqueue("cudnnOp", args)
            return None
        yield from self._remote("cudnnOp", *args)
        return None

    # ======================= cuBLAS surface =======================

    def cublasCreate(self) -> Generator:
        self._intercept()
        return (yield from self._remote("cublasCreate", self.flags.handle_pooling))

    def cublasOp(self, handle: int, op: str, work: float, sync: bool = False,
                 stream: int = 0) -> Generator:
        self._intercept()
        args = (int(handle), op, float(work), sync, stream)
        if not sync and classify("cublasOpAsync", self.flags) is ApiClass.BATCHABLE:
            yield from self._enqueue("cublasOp", args)
            return None
        yield from self._remote("cublasOp", *args)
        return None

    # ======================= LLM decode surface =======================
    # Serving engines drive the server-side decode loop through these
    # remoted calls; none are idempotent (submit/step mutate engine
    # state), so a crash mid-call surfaces to the platform for retry.

    def llmConfigure(self, **engine_kwargs) -> Generator:
        self._intercept()
        return (yield from self._remote("llmConfigure", **engine_kwargs))

    def llmSubmit(self, req_id: int, prompt_tokens: int,
                  output_tokens: int) -> Generator:
        self._intercept()
        return (yield from self._remote(
            "llmSubmit", int(req_id), int(prompt_tokens), int(output_tokens)
        ))

    def llmStep(self) -> Generator:
        self._intercept()
        return (yield from self._remote("llmStep"))

    def llmStats(self) -> Generator:
        self._intercept()
        return (yield from self._remote("llmStats"))


class GuestGpuBundle:
    """What a DGSF function receives as its GPU: the guest library plus
    bookkeeping used by the deployment glue."""

    def __init__(self, guest: GuestLibrary, api_server, connection, rpc_server):
        self.guest = guest
        self.api_server = api_server
        self.connection = connection
        self.rpc_server = rpc_server

    @property
    def gpu(self) -> GuestLibrary:
        return self.guest
