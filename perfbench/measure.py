"""Small measurement helpers shared by the runner, the worker and the tests."""

from __future__ import annotations

import math
import os
import platform
from importlib import metadata, util

# Candidate percentiles for the tail of a latency sample, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def hd_percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a Beta-weighted mean of
    all order statistics.  Unlike one order statistic it does not jump when
    per-operation noise reorders samples on either side of a gap, which a
    fixed panel of unequal operations has."""
    from scipy.special import betainc

    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    a, b = p / 100.0 * (n + 1), (1.0 - p / 100.0) * (n + 1)
    cdf = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def _rank(n: int, p: float) -> int:
    # the tolerance keeps float rounding of p*n/100 from adding a rank
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int):
    """The highest candidate percentile with at least ten samples beyond it,
    or None when even the median has fewer."""
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def environment_stamp() -> dict:
    """What makes numbers comparable: cores, interpreter, numeric stack, and
    whether gmpy2 (the fast rational LP backend) is importable."""
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "gmpy2": util.find_spec("gmpy2") is not None,
    }
