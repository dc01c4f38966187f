"""NIC serialization model and per-path network profiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.sim.core import Environment

__all__ = ["NIC", "NetworkProfile"]


class NIC:
    """FIFO transmitter with finite bandwidth.

    Messages leave the NIC back-to-back: a message of ``size`` bytes
    occupies the wire for ``size / bandwidth`` seconds starting when the
    previous message has fully left.  ``transmit`` is bookkeeping only (no
    blocking): it returns the delay from *now* until the last byte is on
    the wire, which callers add to propagation latency for delivery time.
    """

    def __init__(self, env: Environment, bandwidth_bps: float):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self._free_at = 0.0
        #: cumulative bytes ever transmitted (for stats)
        self.bytes_sent = 0

    def transmit(self, size_bytes: int, wire_bytes: Optional[int] = None) -> float:
        """Send ``size_bytes``; return seconds until the last byte is out.

        ``wire_bytes`` (default ``size_bytes``) is what the wire is occupied
        for: a derated path charges more wire time than it carries bytes,
        but :attr:`bytes_sent` counts only the bytes really sent.
        """
        if wire_bytes is None:
            wire_bytes = size_bytes
        if size_bytes < 0 or wire_bytes < 0:
            raise ValueError("size must be non-negative")
        now = self.env.now
        start = max(now, self._free_at)
        duration = (wire_bytes * 8.0) / self.bandwidth_bps
        self._free_at = start + duration
        self.bytes_sent += size_bytes
        return self._free_at - now

    @property
    def busy_until(self) -> float:
        return self._free_at


@dataclass
class NetworkProfile:
    """Latency/bandwidth characteristics of one communication path.

    ``jitter_stddev``/``bandwidth_factor_range`` model AWS Lambda's noisier
    network (paper §VIII-B: NLP and image classification "spike" on Lambda
    because of "lower bandwidth and larger variance in the network").
    """

    #: one-way propagation latency in seconds
    latency_s: float = 75e-6
    #: multiplicative bandwidth derating applied on top of the NIC (1.0 = none)
    bandwidth_factor: float = 1.0
    #: stddev of lognormal-ish latency jitter (0 disables)
    jitter_stddev: float = 0.0
    #: if set, each transfer's effective bandwidth factor is drawn uniformly
    #: from this (lo, hi) range — models variable Lambda egress throughput
    bandwidth_factor_range: Optional[tuple[float, float]] = None

    def sample_latency(self, rng: Optional[np.random.Generator]) -> float:
        if self.jitter_stddev <= 0 or rng is None:
            return self.latency_s
        return float(self.latency_s + abs(rng.normal(0.0, self.jitter_stddev)))

    def sample_bandwidth_factor(self, rng: Optional[np.random.Generator]) -> float:
        if self.bandwidth_factor_range is None or rng is None:
            return self.bandwidth_factor
        lo, hi = self.bandwidth_factor_range
        return float(rng.uniform(lo, hi))
