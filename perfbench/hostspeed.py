"""A fixed reference loop that tells how fast the host runs right now.

The benchmark shares a few vCPUs of a host with other tenants.  As they
come and go, the same operation runs up to 75% slower, for a few seconds
or for minutes at a time, and process CPU time slows with it.  So the
benchmark times this loop, which never touches ``bnsl``, after its set-up
and after every timed operation, and scales each time by how much slower
or faster than usual the loop ran around it:

    scaled = seconds * (REFERENCE_S / reference_seconds) ** ELASTICITY

The host has more than one kind of slow spell.  In some, every workload
slows as much as the loop; in others the loop slows by up to 1.7 times
while the pipelines hardly slow at all.  No single power fits both, so
the benchmark takes the square root of the loop's slowdown.  That halves
the error, in log terms, in either kind of spell.  README.md gives the
measurements.  The loop's inputs are fixed, and ``--seed`` does not reach
it.
"""

from __future__ import annotations

import time

# The loop's typical time on the machine of the reference figures in
# README.md (2 vCPUs, Intel Xeon at 2.1 GHz), so that a scaled time there
# reads about as a plain one.
REFERENCE_S = 0.17
ELASTICITY = 0.5

_ROWS = 20000
_PY_STEPS = 900_000
_NP_PASSES = 180
_columns = None


def reference_seconds() -> float:
    """Run the reference loop once and return its wall seconds."""
    global _columns
    import numpy as np
    if _columns is None:
        _columns = np.random.default_rng(0).integers(0, 4, size=(8, _ROWS))
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(_PY_STEPS):
        k = i % 1000
        counts[k] = counts.get(k, 0) + i
    for j in range(_NP_PASSES):
        joint = np.bincount(_columns[j % 8] * 4 + _columns[(j + 3) % 8], minlength=16)
        p = joint / joint.sum()
        float(np.sum(p * np.log(p + 1e-12)))
    return time.perf_counter() - t0


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` scaled to a host that runs the loop in ``REFERENCE_S``;
    ``reference`` is the loop's time around them."""
    return seconds * (REFERENCE_S / reference) ** ELASTICITY


def scaled_series(seconds: list[float | None], refs: list[float]) -> list[float | None]:
    """Scale back-to-back timings; ``None`` (a failed operation) stays ``None``.

    ``refs[i]`` and ``refs[i + 1]`` are the loop's times just before and
    just after timing ``i``.  Each timing is scaled by the mean of the loops
    from one timing before it to one after it, ``refs[i - 1:i + 3]``.  The
    host's speed drifts over seconds, and four samples of it follow that
    drift with less of the loop's own jitter than two.
    """
    if len(refs) != len(seconds) + 1:
        raise ValueError("need one reference time more than timings")
    out: list[float | None] = []
    for i, s in enumerate(seconds):
        window = refs[max(i - 1, 0):i + 3]
        out.append(None if s is None else scaled(s, sum(window) / len(window)))
    return out
