"""Sample summaries: median + quartiles + n, and the percentile rule."""

from __future__ import annotations

import statistics

#: Percentiles a tail metric may fall back through, highest first.
TAIL_STEPS = (99, 95, 90, 75, 50)

#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between ranks."""
    s = sorted(samples)
    if not s:
        raise ValueError("no samples")
    pos = q / 100.0 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def usable_percentile(n: int, want: int) -> int:
    """The highest step not above ``want`` that has at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it; the median otherwise."""
    for p in TAIL_STEPS:
        if p <= want and n * (100 - p) / 100.0 >= MIN_BEYOND:
            return p
    return 50


def tail(samples: list[float], want: int) -> tuple[float, int]:
    """``(value, percentile actually used)`` under the percentile rule."""
    p = usable_percentile(len(samples), want)
    return percentile(samples, p), p


def quartiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def summarize(samples: list[float]) -> dict:
    """min / median / quartiles / IQR / n of one metric's samples."""
    q1, q3 = quartiles(samples)
    return {
        "n": len(samples),
        "min": min(samples),
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
    }
