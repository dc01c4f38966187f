"""Statistics and result shaping shared by the benchmark and its tests."""

from __future__ import annotations

import re
from typing import Optional

__all__ = [
    "NAME_RE",
    "TAIL_BEYOND",
    "tail_rank",
    "tail_value",
    "failure_counts",
]

#: metric and workload names: letters, digits, ``_``, ``.`` and ``-``
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

#: the reported tail is the highest percentile with at least this many
#: samples beyond it
TAIL_BEYOND = 10


def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> Optional[tuple[int, float]]:
    """``(index, percentile)`` of the tail order statistic of ``n`` samples.

    The tail is the highest sample with at least ``beyond`` samples above
    it: 0-based index ``n - beyond - 1`` of the sorted samples, which is
    the ``100 * (index + 1) / n`` percentile.  None when ``n <= beyond``.
    """
    if n <= beyond:
        return None
    index = n - beyond - 1
    return index, 100.0 * (index + 1) / n


def tail_value(values, beyond: int = TAIL_BEYOND) -> Optional[tuple[float, float, int]]:
    """``(value, percentile, n)`` of the tail of ``values``, or None."""
    rank = tail_rank(len(values), beyond)
    if rank is None:
        return None
    index, pct = rank
    return sorted(values)[index], pct, len(values)


def failure_counts(attempted: int, completed: int, problems) -> tuple[int, float]:
    """``(failed, failed_frac)`` over simulated operations.

    Operations that did not complete fail; a run with any correctness
    problem counts every attempted operation as failed.
    """
    if attempted <= 0:
        raise ValueError("attempted must be positive")
    failed = attempted if problems else attempted - completed
    return failed, failed / attempted

