"""The benchmark's arithmetic: percentiles, ratios, ladders, self time.

Everything here is pure (no simulator imports), so the unit tests in
``perfbench/tests`` pin each rule down on hand-made inputs.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: Percentiles a latency report may name, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)

#: A tail percentile needs at least this many samples strictly beyond it.
MIN_BEYOND = 10


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` among ``count`` samples, computed
    exactly (``99.9 / 100 * 10000`` is not 9990 in floating point)."""
    return max(1, math.ceil(Fraction(str(pct)) * count / 100))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of ``samples`` (``pct`` in 0..100]."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the nearest-rank ``pct`` of ``count``."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> float:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it (50 when none qualifies)."""
    best = PERCENTILES[0]
    for pct in PERCENTILES:
        if beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def require_tail(count: int, pct: float) -> None:
    """Refuse to report ``pct`` from too few samples."""
    if tail_percentile(count) < pct:
        raise ValueError(
            f"p{pct:g} needs {MIN_BEYOND} samples beyond it; "
            f"{count} samples leave {beyond(count, pct)}")


def failed_ratio(ok: int, failed: int = 0, maybe: int = 0,
                 shed: int = 0) -> float:
    """Failed, timed-out/maybe and shed operations over those attempted.

    Every attempted operation lands in exactly one of the four outcome
    counts, so the denominator is their sum.
    """
    attempted = ok + failed + maybe + shed
    if attempted <= 0:
        raise ValueError("no operations attempted")
    return (failed + maybe + shed) / attempted


def max_passing_rate(ladder, passes) -> float:
    """The highest rung of an ascending ``ladder`` that ``passes(rate)``.

    The ladder is walked upwards and the walk stops at the first failing
    rung: a queue past saturation does not recover at a higher rate, so a
    later pass would be noise.  Returns 0.0 when the first rung fails.
    """
    rates = list(ladder)
    if rates != sorted(rates) or len(set(rates)) != len(rates):
        raise ValueError(f"ladder must be strictly ascending: {rates}")
    best = 0.0
    for rate in rates:
        if not passes(rate):
            break
        best = float(rate)
    return best


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its children's.

    ``spans`` is a sequence of ``(name, start, end, parent)`` tuples where
    ``parent`` is the index of the enclosing span or -1.  Spans nest
    strictly (synchronous calls), so the children of one span cover
    disjoint parts of its interval and their durations simply add up.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
