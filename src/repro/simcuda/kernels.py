"""Kernel definitions and the per-name registry.

A :class:`KernelDef` couples a *timing model* (how many seconds of
standalone SM time a launch consumes) with an optional *payload function*
that really computes on the numpy buffers backing device memory.  The six
paper workloads mostly use trace-calibrated timings, while K-means and the
synthetic migration microbenchmark use real payload kernels so tests can
verify data correctness end-to-end (including across migration).

Payloads are skipped when they provably cannot change a byte.  A kernel
may declare ``zero_args``: the indices of every device-pointer arg its
payload reads or writes, a promise that all-zero memory there stays
all-zero.  When every declared pointer lands in a demand-zero allocation
(see :mod:`repro.simcuda.phys`), the launch keeps its stream op, device
occupancy and timing but does not run the numpy payload.  This is exact,
not an approximation: the skipped call would have stored only zeros over
zeros, and the declared payloads are total on any window and any integer
sizes, so skipping cannot hide an error either (a pointer that does not
translate runs the payload, which raises as before).  The paper's
trace-driven workloads upload ``payload=None`` and never write device
memory, so their K-means launches all take this path.  ``axpy`` is not declared (a non-finite ``a`` turns
``0 * x`` into NaN), nor are ``fill`` and ``increment`` (they store
nonzero bytes).

Kernel *function pointers* are per-context (see
:meth:`repro.simcuda.context.CudaContext.get_function`) — the property
that forces DGSF to re-resolve kernels after migrating an API server to a
different GPU (paper §V-B, "Kernel launches").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.simcuda.types import Dim3

__all__ = ["KernelDef", "KernelRegistry", "builtin_registry", "LaunchParams"]


@dataclass(frozen=True)
class LaunchParams:
    """Launch configuration + arguments as seen by timing/payload models."""

    grid: Dim3
    block: Dim3
    args: tuple

    @property
    def threads(self) -> int:
        return self.grid.count * self.block.count


# A timing model maps launch params to seconds of standalone SM work.
TimingModel = Callable[[LaunchParams], float]
# A payload function gets (resolve, params) where resolve(ptr, nbytes)
# returns a writable numpy uint8 view of device memory.
PayloadFn = Callable[[Callable[[int, int], np.ndarray], LaunchParams], None]


@dataclass(frozen=True)
class KernelDef:
    name: str
    timing: TimingModel
    payload: Optional[PayloadFn] = None
    #: SM occupancy demand of one launch (1.0 = can saturate the GPU).
    demand: float = 1.0
    #: indices of every device-pointer arg the payload reads or writes,
    #: declared only when all-zero memory there stays all-zero (see above)
    zero_args: tuple[int, ...] = ()


class KernelRegistry:
    """Name → :class:`KernelDef`; shared by guest and server sides."""

    def __init__(self):
        self._defs: dict[str, KernelDef] = {}

    def register(self, kernel: KernelDef) -> None:
        if kernel.name in self._defs:
            raise ConfigurationError(f"kernel {kernel.name!r} already registered")
        self._defs[kernel.name] = kernel

    def get(self, name: str) -> KernelDef:
        try:
            return self._defs[name]
        except KeyError:
            raise ConfigurationError(f"unknown kernel {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def names(self) -> list[str]:
        return sorted(self._defs)


# --------------------------------------------------------------------------
# Built-in kernels
# --------------------------------------------------------------------------

def _fixed_time(params: LaunchParams) -> float:
    """First arg is the kernel's standalone duration in seconds."""
    return float(params.args[0])


def _view(window: np.ndarray, dtype) -> np.ndarray:
    """``window`` as ``dtype``, clipped to whole elements (a payload window
    cut short by the allocation's real bytes may end mid-element)."""
    size = np.dtype(dtype).itemsize
    return window[: len(window) // size * size].view(dtype)


def _payload_fill(resolve, params: LaunchParams) -> None:
    """args: (_, ptr, nbytes, value) — fill device bytes with value."""
    _, ptr, nbytes, value = params.args[:4]
    view = resolve(int(ptr), int(nbytes))
    view[:] = np.uint8(value & 0xFF)


def _payload_increment(resolve, params: LaunchParams) -> None:
    """args: (_, ptr, nbytes) — add 1 (mod 256) to each device byte.

    Used by the migration microbenchmark: running it before and after a
    migration proves the data really moved and pointers stayed valid.
    """
    _, ptr, nbytes = params.args[:3]
    view = resolve(int(ptr), int(nbytes))
    view += np.uint8(1)


def _payload_axpy(resolve, params: LaunchParams) -> None:
    """args: (_, a, x_ptr, y_ptr, n_f32) — y = a*x + y on float32 views."""
    _, a, x_ptr, y_ptr, n = params.args[:5]
    x = _view(resolve(int(x_ptr), int(n) * 4), np.float32)
    y = _view(resolve(int(y_ptr), int(n) * 4), np.float32)
    m = min(len(x), len(y))
    y[:m] += np.float32(a) * x[:m]


#: real-computation cap for the K-means payloads: enough points for the
#: data-correctness tests/examples without dominating large trace runs
_KMEANS_PAYLOAD_POINTS = 2048


def _kmeans_windows(resolve, params: LaunchParams):
    """(pts, cents, asn) views for the K-means payloads, or None when a
    window holds no whole point, centroid or assignment.

    Operates on however many points fit in the materialized payload
    window (capped); the timing model charges for the declared size.
    """
    _, pts_ptr, cent_ptr, asn_ptr, n, k, d = params.args[:7]
    n, k, d = min(int(n), _KMEANS_PAYLOAD_POINTS), int(k), int(d)
    pts = _view(resolve(int(pts_ptr), n * d * 4), np.float32)
    cents = _view(resolve(int(cent_ptr), k * d * 4), np.float32)
    if d <= 0:
        return None
    n_avail = len(pts) // d
    k_avail = len(cents) // d
    if n_avail == 0 or k_avail == 0:
        return None
    asn = _view(resolve(int(asn_ptr), n_avail * 4), np.int32)
    # only points that have an assignment slot take part
    n_avail = min(n_avail, len(asn))
    if n_avail == 0:
        return None
    pts = pts[: n_avail * d].reshape(n_avail, d)
    cents = cents[: k_avail * d].reshape(k_avail, d)
    return pts, cents, asn[:n_avail]


def _payload_kmeans_assign(resolve, params: LaunchParams) -> None:
    """args: (_, pts_ptr, cent_ptr, asn_ptr, n, k, d) — nearest-centroid."""
    windows = _kmeans_windows(resolve, params)
    if windows is None:
        return
    pts, cents, asn = windows
    # Vectorized distance computation (guide: no per-point Python loops).
    d2 = ((pts[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    asn[:] = np.argmin(d2, axis=1).astype(np.int32)


def _payload_kmeans_update(resolve, params: LaunchParams) -> None:
    """args: (_, pts_ptr, cent_ptr, asn_ptr, n, k, d) — recompute centroids."""
    windows = _kmeans_windows(resolve, params)
    if windows is None:
        return
    pts, cents, asn = windows
    for c in range(len(cents)):
        members = pts[asn == c]
        if len(members):
            cents[c] = members.mean(axis=0)


def _payload_gemm(resolve, params: LaunchParams) -> None:
    """args: (_, a_ptr, b_ptr, c_ptr, m, n, k) — C = A @ B on the window."""
    _, a_ptr, b_ptr, c_ptr, m, n, k = params.args[:7]
    m, n, k = int(m), int(n), int(k)
    a = _view(resolve(int(a_ptr), m * k * 4), np.float32)
    b = _view(resolve(int(b_ptr), k * n * 4), np.float32)
    c = _view(resolve(int(c_ptr), m * n * 4), np.float32)
    if m <= 0 or n <= 0 or k <= 0:
        return
    if len(a) < m * k or len(b) < k * n or len(c) < m * n:
        return  # problem larger than the materialized window: timing only
    a = a[: m * k].reshape(m, k)
    b = b[: k * n].reshape(k, n)
    c[: m * n] = (a @ b).ravel()


def builtin_registry() -> KernelRegistry:
    """Registry with the kernels used by workloads, tests and benches."""
    reg = KernelRegistry()
    reg.register(KernelDef("timed", timing=_fixed_time))
    reg.register(KernelDef("timed_light", timing=_fixed_time, demand=0.3))
    reg.register(KernelDef("fill", timing=_fixed_time, payload=_payload_fill))
    reg.register(KernelDef("increment", timing=_fixed_time, payload=_payload_increment))
    reg.register(KernelDef("axpy", timing=_fixed_time, payload=_payload_axpy))
    # (_, in/out ptr, in/out ptr, in/out ptr, sizes...): zeros in, zeros out
    ptrs = (1, 2, 3)
    reg.register(KernelDef("kmeans_assign", timing=_fixed_time,
                           payload=_payload_kmeans_assign, zero_args=ptrs))
    reg.register(KernelDef("kmeans_update", timing=_fixed_time,
                           payload=_payload_kmeans_update, zero_args=ptrs))
    reg.register(KernelDef("gemm", timing=_fixed_time, payload=_payload_gemm,
                           zero_args=ptrs))
    return reg
