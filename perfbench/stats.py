"""Exact order statistics over raw client-side samples.

Percentiles here come from the sorted samples themselves, never from a
bucketed histogram, so a reported tail can never exceed the observed
maximum.  A tail percentile is only *supported* when at least
``MIN_BEYOND`` samples lie strictly above its rank; callers report the
sample count next to every percentile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: List[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    Nearest rank: the smallest sample with at least ``q`` percent of the
    samples at or below it, i.e. the ``ceil(q/100 * n)``-th smallest.  It
    is always one of the observed samples.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank must lie in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th."""
    return count - max(1, math.ceil(q / 100.0 * count))


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples support reporting the ``q``-th percentile."""
    return count > 0 and beyond(count, q) >= MIN_BEYOND


@dataclass
class OpCounts:
    """Every attempted operation of one kind, by outcome."""

    attempted: int = 0
    ok: int = 0
    #: Failures keyed by kind: a ``ServiceError`` kind, ``"shed"`` for an
    #: admission rejection, ``"timeout"`` or ``"connection"``.
    failed: Dict[str, int] = field(default_factory=dict)

    def fail(self, kind: str) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + 1

    @property
    def failed_total(self) -> int:
        return sum(self.failed.values())


@dataclass
class LatencySample:
    """Raw latencies (milliseconds) of successful operations of one kind."""

    values_ms: List[float] = field(default_factory=list)

    def add(self, ms: float) -> None:
        self.values_ms.append(ms)

    def __len__(self) -> int:
        return len(self.values_ms)

    def p(self, q: float) -> Optional[float]:
        return percentile(self.values_ms, q) if self.values_ms else None

    def summary(self, tail: float = 95.0) -> dict:
        """Median, the tail percentile if supported, and the sample count."""
        n = len(self.values_ms)
        out = {"n": n, "p50": self.p(50.0), "max": max(self.values_ms, default=None)}
        out[f"p{tail:g}"] = self.p(tail) if supported(n, tail) else None
        return out


def self_check() -> None:
    """Pin the percentile rule against hand-computed samples."""
    sample = [7.0, 1.0, 3.0, 9.0, 5.0]  # sorted: 1 3 5 7 9
    expected = {20.0: 1.0, 40.0: 3.0, 50.0: 5.0, 60.0: 5.0, 80.0: 7.0, 95.0: 9.0, 100.0: 9.0}
    for q, value in expected.items():
        got = percentile(sample, q)
        if got != value:
            raise AssertionError(f"p{q:g} of {sample} is {value}, got {got}")
    # 200 samples 1..200: p95 is the 190th smallest, ten samples lie above.
    ramp = [float(i) for i in range(200, 0, -1)]
    if percentile(ramp, 95.0) != 190.0 or beyond(200, 95.0) != 10:
        raise AssertionError("p95 of 1..200 must be 190 with ten samples beyond")
    if not supported(200, 95.0) or supported(199, 95.0):
        raise AssertionError("p95 needs exactly 200 samples to have ten beyond")
    if percentile(ramp, 95.0) > max(ramp):
        raise AssertionError("a percentile may never exceed the maximum")
