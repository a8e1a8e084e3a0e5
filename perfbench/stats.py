"""Arithmetic the benchmark reports with: medians, the tail percentile,
span self time and failure counting.  Pure Python, so it can be imported
before the BLAS thread environment is pinned."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import NamedTuple

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10


class Tail(NamedTuple):
    value: float
    percentile: float
    n: int


def median(samples) -> float:
    return float(statistics.median(samples))


def geomean(samples) -> float:
    """Geometric mean: each kind of operation weighs the same on a log scale,
    so it does not jump between clusters of fast and slow operations the way
    the median of a mixed workload does."""
    return float(statistics.geometric_mean(samples))


def tail(samples, beyond: int = TAIL_BEYOND) -> Tail | None:
    """Highest nearest-rank percentile with at least `beyond` samples above
    it, or None when that percentile would fall below the median (fewer
    than 2*beyond samples), where it is no tail.

    With n sorted samples the value at rank r (1-based) has n - r samples
    beyond it, so the rank is n - beyond and the percentile 100*r/n.
    """
    xs = sorted(samples)
    rank = len(xs) - beyond
    if 2 * rank < len(xs):
        return None
    return Tail(float(xs[rank - 1]), 100.0 * rank / len(xs), len(xs))


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, edge = 0.0, s.start
        for a, b in sorted((spans[k].start, spans[k].end) for k in kids):
            a, b = max(a, edge), min(b, s.end)
            if b > a:
                covered += b - a
                edge = b
        out.append(s.end - s.start - covered)
    return out


def sep_violation(value, ceiling: float) -> str | None:
    """Why a SEP value is unusable, or None: it must be a finite number in
    [0, ceiling]."""
    if not isinstance(value, float) or not math.isfinite(value):
        return f"non-finite SEP {value!r}"
    if not 0.0 <= value <= ceiling:
        return f"SEP {value!r} outside [0, {ceiling!r}]"
    return None


@dataclass
class Tally:
    """Operations attempted and failed.

    An operation fails once, whatever number of checks it fails.  A failure
    found by a consistency check (a non-monotone curve, a disagreement with
    an independent computation, outputs that differ between repeats) also
    makes the run incorrect: the program returned a plausible value that is
    wrong.  A failure the program made visible itself (an exception, a
    non-finite or out-of-range value, a nonzero exit code) only counts.
    """

    attempted: int = 0
    failures: dict = field(default_factory=dict)
    inconsistencies: list = field(default_factory=list)

    def fail(self, key, reason: str) -> None:
        self.failures.setdefault(key, reason)

    def inconsistent(self, key, reason: str) -> None:
        self.fail(key, reason)
        self.inconsistencies.append((key, reason))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self) -> bool:
        return not self.inconsistencies
