"""Summary statistics used by the benchmark: medians, tail percentiles, checkpoint steps."""

from __future__ import annotations

import os
import re
import statistics

# Candidate tail percentiles, in hundredths of a percent so the
# "at least ten samples beyond" test is exact integer arithmetic.
_TAIL_LADDER = (5000, 7500, 9000, 9500, 9800, 9900, 9950, 9990, 9995, 9999)
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Linear-interpolated percentile ``p`` (0-100) of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least ten of ``n`` samples beyond it.

    Returns None when even the median leaves fewer than ten samples above.
    """
    best = None
    for q in _TAIL_LADDER:
        if n * (10000 - q) >= MIN_BEYOND * 10000:
            best = q / 100.0
    return best


def tail(values):
    """(percentile, value, sample count) of the tail rule, or None if too few samples."""
    p = tail_percentile(len(values))
    if p is None:
        return None
    return p, percentile(values, p), len(values)


_CKPT_NAME = re.compile(r"ckpt_(\d+)\.ma3c$")


def checkpoint_step(path):
    """Global step recorded in a ``ckpt_<step>.ma3c`` file name."""
    m = _CKPT_NAME.search(os.path.basename(path))
    if m is None:
        raise ValueError(f"not a checkpoint file name: {path}")
    return int(m.group(1))

