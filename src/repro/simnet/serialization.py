"""Byte-size accounting for remoted API payloads.

The simulator never pickles anything across its in-process "network" — it
only needs to know *how many bytes* a message would occupy on the wire so
the NIC model can charge serialization time.  ``payload_size`` estimates
that from the Python value, mirroring a compact binary RPC encoding
(fixed-width scalars, length-prefixed buffers).
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["payload_size", "register_wire_type", "MESSAGE_HEADER_BYTES"]

#: Per-message framing overhead: message id, kind, method id, lengths.
MESSAGE_HEADER_BYTES = 64

_SCALAR_BYTES = 8
_CONTAINER_OVERHEAD = 8  # length prefix


def payload_size(value: Any) -> int:
    """Estimated on-the-wire size of ``value`` in bytes (excl. header).

    Numpy arrays count their buffer size; containers add a length prefix
    and sum their elements; scalars are fixed-width.  Unknown objects that
    declare ``wire_size`` (e.g. protocol messages) are asked directly.
    """
    # Fast path, keyed on the exact type: the common RPC argument shapes
    # (tuples of scalars) cost one call instead of one per element.
    # Subclasses and everything else take the isinstance chain below.
    kind = type(value)
    fixed = _FIXED_BYTES.get(kind)
    if fixed is not None:
        return fixed
    if kind is tuple or kind is list:
        total = _CONTAINER_OVERHEAD
        for item in value:
            total += _FIXED_BYTES.get(type(item)) or payload_size(item)
        return total
    if kind is str:
        return _CONTAINER_OVERHEAD + len(value.encode("utf-8"))
    if kind is dict:
        return _CONTAINER_OVERHEAD + sum(
            payload_size(k) + payload_size(v) for k, v in value.items()
        )
    if kind is bytes:
        return _CONTAINER_OVERHEAD + len(value)
    if kind is np.ndarray:
        return _CONTAINER_OVERHEAD + int(value.nbytes)
    if kind in _WIRE_TYPES:
        return value.wire_size()
    return _general_size(value)


#: exact type -> fixed wire size (every entry is nonzero, so ``or`` falls
#: through only on a miss)
_FIXED_BYTES = {
    type(None): 1,
    bool: _SCALAR_BYTES,
    int: _SCALAR_BYTES,
    float: _SCALAR_BYTES,
}


#: exact types whose ``wire_size()`` method answers for them (protocol
#: messages; see :func:`register_wire_type`)
_WIRE_TYPES: set = set()


def register_wire_type(cls: type) -> type:
    """Size exact instances of ``cls`` by their ``wire_size()`` method on
    :func:`payload_size`'s fast path.  The answer is the one the general
    walk would give, so ``cls`` must not subclass a type the walk sizes
    structurally (scalars, strings, buffers, arrays, containers)."""
    _WIRE_TYPES.add(cls)
    return cls


def _general_size(value: Any) -> int:
    """:func:`payload_size` for any value, by ``isinstance``."""
    if isinstance(value, (bool, int, float)):
        return _SCALAR_BYTES
    if isinstance(value, str):
        return _CONTAINER_OVERHEAD + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return _CONTAINER_OVERHEAD + len(value)
    if isinstance(value, np.ndarray):
        return _CONTAINER_OVERHEAD + int(value.nbytes)
    if isinstance(value, np.generic):
        return _SCALAR_BYTES
    if isinstance(value, dict):
        return _CONTAINER_OVERHEAD + sum(
            payload_size(k) + payload_size(v) for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return _CONTAINER_OVERHEAD + sum(payload_size(v) for v in value)
    wire = getattr(value, "wire_size", None)
    if wire is not None:
        return int(wire() if callable(wire) else wire)
    # Conservative default for opaque handles and small structs.
    return 32
