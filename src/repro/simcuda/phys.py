"""Physical device memory allocations (the ``cuMemCreate`` object).

A :class:`PhysicalAllocation` is a chunk of one GPU's memory.  It can
carry a real numpy byte buffer so data written through the simulated APIs
can be read back and verified — including after a migration copies the
allocation to another GPU.  Buffers are size-capped (see
:attr:`repro.simcuda.costs.CostModel.payload_cap_bytes`): the declared
``size`` drives memory accounting and copy timing, while the payload
window holds ``min(size, cap)`` real bytes.

Like an OS zero page, a fresh allocation is *demand-zero*: its
:attr:`~PhysicalAllocation.demand_zero` flag promises every real byte is
zero until something stores a nonzero one.  The flag is conservative —
``True`` guarantees all-zero bytes, ``False`` promises nothing — which is
what lets :meth:`repro.simcuda.context.CudaContext.launch_kernel` skip
payloads that provably cannot change all-zero memory.

Demand-zero also means *no backing buffer*: the window is materialised
(zero-filled) only on the first nonzero store, or when a caller asks for
:attr:`~PhysicalAllocation.data` itself.  Until then reads answer zeros,
all-zero stores and zero-to-zero copies store nothing, and the
allocation costs no host memory however large its window.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from repro.simcuda.errors import CudaError, CUresult

__all__ = ["PhysicalAllocation"]

_ids = itertools.count(1)


class PhysicalAllocation:
    """A physical chunk of device memory on one GPU."""

    __slots__ = ("handle", "device_id", "size", "released", "demand_zero",
                 "_window", "_data")

    def __init__(self, device_id: int, size: int, payload_cap: int):
        if size <= 0:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_VALUE, "allocation size must be > 0")
        self.handle = next(_ids)
        self.device_id = device_id
        self.size = int(size)
        self._window = min(self.size, int(payload_cap))
        #: the backing buffer, or None while unmaterialised (all zeros)
        self._data: Optional[np.ndarray] = None
        self.released = False
        #: every real byte is known to be zero (see the module docstring)
        self.demand_zero = True

    @property
    def data(self) -> np.ndarray:
        """The payload window's bytes, materialised on first access."""
        if self._data is None:
            self._data = np.zeros(self._window, dtype=np.uint8)
        return self._data

    @property
    def materialized(self) -> bool:
        """True once a backing buffer exists (see the module docstring)."""
        return self._data is not None

    @property
    def payload_bytes(self) -> int:
        """Number of *real* bytes backing this allocation."""
        return self._window

    def write(self, offset: int, buf: np.ndarray) -> None:
        """Write real bytes at ``offset`` (clipped to the payload window)."""
        self._check_live()
        buf = np.ascontiguousarray(buf).view(np.uint8).ravel()
        if offset >= self._window:
            return  # beyond the materialized window: accounted, not stored
        n = min(len(buf), self._window - offset)
        if self._data is None:
            if not buf[:n].any():
                return  # zeros over zeros: nothing to store
            self.demand_zero = False
        elif self.demand_zero and buf[:n].any():
            self.demand_zero = False
        self.data[offset : offset + n] = buf[:n]

    def fill(self, offset: int, length: int, byte: int) -> None:
        """Set up to ``length`` real bytes at ``offset`` to ``byte``
        (clipped to the payload window): the bytes of a memset.  A zero
        fill of unmaterialised memory stores and allocates nothing."""
        self._check_live()
        n = min(length, self._window - offset)
        if n <= 0 or (byte == 0 and self._data is None):
            return
        if byte:
            self.demand_zero = False
        self.data[offset : offset + n] = byte

    def read(self, offset: int, length: int) -> np.ndarray:
        """Read up to ``length`` real bytes starting at ``offset``."""
        self._check_live()
        if offset >= self._window:
            return np.zeros(0, dtype=np.uint8)
        end = min(offset + length, self._window)
        if self._data is None:
            return np.zeros(max(0, end - offset), dtype=np.uint8)
        return self._data[offset:end].copy()

    def copy_payload_from(self, other: "PhysicalAllocation") -> None:
        """Clone the materialized bytes of ``other`` (migration data move)."""
        self._check_live()
        other._check_live()
        n = min(self._window, other._window)
        if other._data is not None:
            self.data[:n] = other._data[:n]
        elif self._data is not None:
            self._data[:n] = 0
        # bytes past ``n`` keep their old contents (and old state)
        whole = n == self._window
        self.demand_zero = other.demand_zero and (whole or self.demand_zero)

    def release(self) -> None:
        if self.released:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, "double release")
        self.released = True
        self._window = 0
        self._data = None

    def _check_live(self) -> None:
        if self.released:
            raise CudaError(CUresult.CUDA_ERROR_INVALID_HANDLE, "use after release")

    def __repr__(self) -> str:
        return (
            f"<PhysAlloc #{self.handle} dev={self.device_id} "
            f"size={self.size} {'released' if self.released else 'live'}>"
        )
