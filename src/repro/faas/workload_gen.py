"""Arrival processes for the mixed-workload experiments.

The paper (§VIII-D) drives the GPU server with three arrival patterns:

* exponential gaps with rate 2 — "a function is launched on average every
  two seconds" (heavy load),
* exponential gaps with rate 3 — light load,
* bursts — "launch all six workloads at once (a burst) ten times, with an
  interval of two seconds between each burst".

Workload identity is interleaved "in a random (but consistent) order":
we shuffle with a seeded stream so every configuration under comparison
sees the identical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalPlan",
    "exponential_gap_arrivals",
    "burst_arrivals",
    "uniform_arrivals",
    "interleave_workloads",
    "schedule_arrivals",
]


def schedule_arrivals(env, plan) -> list:
    """Pre-create the arrival timeouts for ``plan`` in one kernel batch.

    Returns a list aligned with the plan's entries: a ``Timeout`` firing
    at the entry's launch time for every entry strictly in the future,
    and ``None`` for entries due now or in the past (the driver proceeds
    without waiting, exactly like the old per-entry
    ``if t > env.now: yield env.timeout(...)`` pattern).

    Batching goes through :meth:`Environment.timeout_batch`, so a
    million-entry plan costs one Python call instead of a million — see
    :mod:`repro.experiments.kernel_ablation`.  Timeouts are created in plan order, so
    eid assignment (and therefore same-time tie-breaking) is
    deterministic for a given plan.
    """
    now = env.now
    delays = [t - now for t, _ in plan if t > now]
    batch = iter(env.timeout_batch(delays))
    return [next(batch) if t > now else None for t, _ in plan]


@dataclass(frozen=True)
class ArrivalPlan:
    """A fully materialized invocation schedule."""

    #: (launch_time_s, workload_name) sorted by launch time
    entries: tuple[tuple[float, str], ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def names(self) -> list[str]:
        return [name for _, name in self.entries]

    @property
    def times(self) -> np.ndarray:
        return np.asarray([t for t, _ in self.entries])


def interleave_workloads(
    workload_names: list[str], copies: int, rng: np.random.Generator
) -> list[str]:
    """``copies`` instances of each workload, shuffled reproducibly."""
    if copies <= 0:
        raise ConfigurationError("copies must be positive")
    sequence = [name for name in workload_names for _ in range(copies)]
    rng.shuffle(sequence)
    return sequence


def exponential_gap_arrivals(
    names: list[str], mean_gap_s: float, rng: np.random.Generator
) -> ArrivalPlan:
    """Launch times with i.i.d. exponential gaps (mean ``mean_gap_s``)."""
    if mean_gap_s <= 0:
        raise ConfigurationError("mean gap must be positive")
    gaps = rng.exponential(mean_gap_s, size=len(names))
    times = np.concatenate([[0.0], np.cumsum(gaps)[:-1]])
    return ArrivalPlan(tuple(zip(times.tolist(), names)))


def uniform_arrivals(names: list[str], gap_s: float) -> ArrivalPlan:
    """Fixed-interval launches (paper's 3-second interval scenario)."""
    if gap_s < 0:
        raise ConfigurationError("gap must be non-negative")
    return ArrivalPlan(tuple((i * gap_s, name) for i, name in enumerate(names)))


def burst_arrivals(
    workload_names: list[str], bursts: int, burst_gap_s: float
) -> ArrivalPlan:
    """``bursts`` back-to-back launches of every workload, gap between bursts."""
    if bursts <= 0:
        raise ConfigurationError("bursts must be positive")
    entries = []
    for b in range(bursts):
        t = b * burst_gap_s
        for name in workload_names:
            entries.append((t, name))
    return ArrivalPlan(tuple(entries))
