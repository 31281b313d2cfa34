"""Statistics of the perfbench driver: medians, quartiles, the tail rule,
span self time, histogram quantiles and the error rate.

Pure functions over plain lists, so test_stats.py can pin each rule.
"""

import math
import statistics
from fractions import Fraction

# Candidate tail percentiles, highest first. A run reports the highest one
# that has at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def tail(values):
    """(percentile, value) of the highest ladder percentile with at least
    TAIL_BEYOND samples strictly beyond its nearest-rank position, or None
    when the sample is too small for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        # 1-based nearest rank, in exact arithmetic (99.9% of 10000 is
        # 9990, not 9991 as the float product would round up to).
        rank = math.ceil(Fraction(str(pct)) * n / 100)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return None


def error_rate(attempted, failed):
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if failed < 0 or failed > attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, end = 0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover. `spans` holds [name, parent_index, start, end] rows
    (parent -1 for a root). Returns a list parallel to `spans`."""
    children = [[] for _ in spans]
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        kids = [(spans[c][2], spans[c][3]) for c in children[i]]
        out.append((end - start) - _covered(kids, start, end))
    return out


def siblings_overlap(spans):
    """True when two children of one span overlap in time (parallel work),
    in which case self times no longer add up to the parent."""
    by_parent = {}
    for _, parent, start, end in spans:
        if parent >= 0:
            by_parent.setdefault(parent, []).append((start, end))
    for intervals in by_parent.values():
        intervals.sort()
        for (_, end_a), (start_b, _) in zip(intervals, intervals[1:]):
            if start_b < end_a:
                return True
    return False


def self_time_by_name(spans):
    """Total self time per span name."""
    totals = {}
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0) + own
    return totals


def histogram_quantile(buckets, q):
    """Quantile q of a log2-bucket histogram given as [[lower, count], ...]
    where bucket `lower` covers [lower, 2*lower) (and 0 covers [0, 1)),
    interpolated linearly inside the bucket. None when empty."""
    total = sum(count for _, count in buckets)
    if total == 0:
        return None
    target = q * total
    seen = 0
    for lower, count in sorted(buckets):
        if seen + count >= target:
            upper = 2 * lower if lower > 0 else 1
            return lower + (upper - lower) * (target - seen) / count
        seen += count
    raise AssertionError("unreachable: target within total")
