"""Physical device memory allocations (the ``cuMemCreate`` object).

A :class:`PhysicalAllocation` is a chunk of one GPU's memory.  It carries
a real numpy byte buffer so data written through the simulated APIs can be
read back and verified — including after a migration copies the allocation
to another GPU.  Buffers are size-capped (see
:attr:`repro.simcuda.costs.CostModel.payload_cap_bytes`): the declared
``size`` drives memory accounting and copy timing, while the backing
buffer holds ``min(size, cap)`` real bytes.

Like an OS zero page, a fresh allocation is *demand-zero*: its
:attr:`~PhysicalAllocation.demand_zero` flag promises every real byte is
zero until something stores a nonzero one.  The flag is conservative —
``True`` guarantees all-zero bytes, ``False`` promises nothing — which is
what lets :meth:`repro.simcuda.context.CudaContext.launch_kernel` skip
payloads that provably cannot change all-zero memory.
"""

from __future__ import annotations

import itertools
import numpy as np

from repro.simcuda.errors import CudaError, CUresult

__all__ = ["PhysicalAllocation"]

_ids = itertools.count(1)


class PhysicalAllocation:
    """A physical chunk of device memory on one GPU."""

    __slots__ = ("handle", "device_id", "size", "data", "released", "demand_zero")

    def __init__(self, device_id: int, size: int, payload_cap: int):
        if size <= 0:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_VALUE, "allocation size must be > 0")
        self.handle = next(_ids)
        self.device_id = device_id
        self.size = int(size)
        self.data = np.zeros(min(self.size, payload_cap), dtype=np.uint8)
        self.released = False
        #: every real byte is known to be zero (see the module docstring)
        self.demand_zero = True

    @property
    def payload_bytes(self) -> int:
        """Number of *real* bytes backing this allocation."""
        return int(self.data.nbytes)

    def write(self, offset: int, buf: np.ndarray) -> None:
        """Write real bytes at ``offset`` (clipped to the payload window)."""
        self._check_live()
        buf = np.ascontiguousarray(buf).view(np.uint8).ravel()
        if offset >= self.payload_bytes:
            return  # beyond the materialized window: accounted, not stored
        n = min(len(buf), self.payload_bytes - offset)
        if self.demand_zero and buf[:n].any():
            self.demand_zero = False
        self.data[offset : offset + n] = buf[:n]

    def read(self, offset: int, length: int) -> np.ndarray:
        """Read up to ``length`` real bytes starting at ``offset``."""
        self._check_live()
        if offset >= self.payload_bytes:
            return np.zeros(0, dtype=np.uint8)
        end = min(offset + length, self.payload_bytes)
        return self.data[offset:end].copy()

    def copy_payload_from(self, other: "PhysicalAllocation") -> None:
        """Clone the materialized bytes of ``other`` (migration data move)."""
        self._check_live()
        other._check_live()
        n = min(self.payload_bytes, other.payload_bytes)
        self.data[:n] = other.data[:n]
        # bytes past ``n`` keep their old contents (and old state)
        whole = n == self.payload_bytes
        self.demand_zero = other.demand_zero and (whole or self.demand_zero)

    def release(self) -> None:
        if self.released:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, "double release")
        self.released = True
        self.data = np.zeros(0, dtype=np.uint8)

    def _check_live(self) -> None:
        if self.released:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, "use after release")

    def __repr__(self) -> str:
        return (
            f"<PhysAlloc #{self.handle} dev={self.device_id} "
            f"size={self.size} {'released' if self.released else 'live'}>"
        )
