"""Host speed reference: a fixed piece of work timed between measurements.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within minutes as other tenants come and go; the process
stays on the CPU but runs slower, so CPU time drifts with wall time.  The
benchmark therefore times ``reference_work`` before and after each
measurement and reports the measurement scaled to a host on which that work
takes ``REFERENCE_S`` seconds (``scaled``).  The reference work mixes the
kinds of work a scan does (interpreter arithmetic, SciPy root solves with a
Python callback, NumPy passes over small arrays, and Philox draws over
arrays larger than the caches, as the Monte Carlo simulator makes) and does
not depend on scsqkd, so a change to the program moves the scaled time as
much as the wall time.  The mix matters: scaled by the interpreter and
small-array part alone, the Monte Carlo scans of ``mc-validate`` spread
about twice as much as with the large-array part added.
"""
from __future__ import annotations

import math
import time

# Seconds the reference work takes on the host the benchmark reports for;
# about its time on a 2-core x86-64 container.
REFERENCE_S = 0.15


def reference_work() -> float:
    """Wall time of one fixed, deterministic piece of work, in seconds."""
    import numpy as np
    from scipy.optimize import brentq

    small = np.linspace(1e-3, 1.0, 1 << 13)
    medium = np.linspace(1.0, 2.0, 1 << 15)
    rng = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    start = time.perf_counter()
    total = 0.0
    for i in range(1, 100000):
        total += math.log(i) * 0.5 ** (i % 7)
    for k in range(750):
        total += brentq(lambda t, k=k: t * t * t - k - 1.0, 0.0, 100.0)
    for _ in range(150):
        total += float(np.sum(np.exp(-small) * np.log1p(small)))
    for _ in range(300):
        total += float(np.sqrt(medium).sum())
    u, v = rng.random(1 << 20), rng.random(1 << 20)
    total += float(np.count_nonzero((u < 0.3) ^ (v >= 0.7)))
    total += float(np.cos(u * (2.0 * np.pi)).sum())
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise RuntimeError("reference work gave a non-finite result")
    return elapsed


def scaled(times: list[float], reference: list[float]) -> list[float]:
    """Each time scaled by the mean of the reference times around it.

    ``reference`` holds one more entry than ``times``: reference[i] was
    taken just before times[i] and reference[i + 1] just after it.
    """
    if len(reference) != len(times) + 1:
        raise ValueError("need one reference time before and after each time")
    return [t * 2.0 * REFERENCE_S / (before + after)
            for t, before, after in zip(times, reference, reference[1:])]
