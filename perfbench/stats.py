"""Arithmetic the benchmark reports with: percentiles, self time, the tally.

Kept free of the library so the benchmark's own tests can pin it.
"""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it (q in (0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the time its children cover.

    spans is a sequence of (start, end, parent) with parent the index of
    the enclosing span or -1. Child intervals are clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
        out.append((end - start) - covered(kids))
    return out


class Tally:
    """Operations attempted and failed; every check and timed call is one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.failures: list[str] = []

    def op(self, name: str, error: BaseException | None = None) -> None:
        """A timed library call; `error` is what it raised, if anything."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failures.append(f"{name}: {type(error).__name__}: {error}")

    def check(self, name: str, problems: list[str]) -> None:
        """A correctness check; it fails when it reports any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.checks_failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems[:3]))

    @property
    def correct(self) -> bool:
        """True when no check failed on the operations that ran."""
        return self.checks_failed == 0
