"""Percentiles, summaries and the control leg shared by ``run.py`` and the worker."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time

#: Candidate tail percentiles, lowest first.
TAIL_CANDIDATES = (0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(q * n - 1e-9))  # 0.9 * 100 must not round up to 91


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    ``q`` of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(q, len(ordered)) - 1]


def tail_percentile(values) -> tuple[float, float]:
    """``(q, value)`` for the highest candidate percentile that has at least
    ``MIN_BEYOND`` samples above its rank; the median when none has."""
    n = len(values)
    chosen = 0.5
    for q in TAIL_CANDIDATES:
        if n - _rank(q, n) >= MIN_BEYOND:
            chosen = q
    return chosen, percentile(values, chosen)


def summary(values) -> dict:
    """Median and quartiles of repeated measurements."""
    values = list(values)
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def control() -> float:
    """Seconds for a fixed mix of interpreter, NumPy and hashing work.

    The control leg: it touches no library code, so it moves only with the
    machine's speed.  The worker rescales its batch and sweep times by the
    control legs that bracket them (see ``README.md``).
    """
    import numpy as np

    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(60_000):
        table[i % 977] = table.get(i % 977, 0) + i
    values = np.random.default_rng(0).random(200_000)
    for _ in range(6):
        values = np.sort(values)[::-1].copy()
    blob = json.dumps({"rows": values[:20_000].tolist(), "table": table}).encode()
    hashlib.sha256(blob).hexdigest()
    return time.perf_counter() - start
