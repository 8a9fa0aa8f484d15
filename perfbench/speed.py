"""Reference-speed normalisation of wall-clock times.

On a shared machine the speed of the same single-threaded code drifts over
minutes as neighbours load the shared cores: a fixed interpreter loop timed
in 10 to 60 second windows on a 2-core sandbox varied by an interquartile
range of about 20% of its median, at any window length, so longer runs do
not average the drift away.  The timed loop therefore interleaves a fixed
reference workload (about 3 ms of interpreter arithmetic, scalar numpy
indexing of the kind a pivot loop does, and small vector operations; about
5% of the loop's time) and scales each operation's wall time by
``NOMINAL_REF_S / reference time measured around it``.  The figures stay
wall-clock times, expressed at the reference speed; the raw ones are printed
beside them.  The reference does not call cfcert, so a change to cfcert
cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_REF_S = 0.003  # reference time on a 2-core sandbox at typical load
REF_SHARE = 0.05  # share of the loop spent on reference samples

_TABLEAU = np.linspace(1.0, 2.0, 360).reshape(12, 30)


def reference_seconds() -> float:
    """Wall time of one fixed reference workload."""
    start = time.perf_counter()
    acc = 0
    for i in range(12000):
        acc += i * i % 7
    for _ in range(7):
        tab = _TABLEAU.copy()
        for i in range(1, 12):
            f = tab[i, 0] / tab[0, 0]
            for j in range(30):
                tab[i, j] -= f * tab[0, j]
    v = np.ones(16)
    for _ in range(300):
        v = np.maximum(0.99 * v + 0.01, 0.0)
    return time.perf_counter() - start


def sample(budget_s: float) -> list[float]:
    """Reference samples: at least one, then more until ``budget_s`` is spent."""
    out = [reference_seconds()]
    while sum(out) < budget_s:
        out.append(reference_seconds())
    return out


def scale(before: list[float], after: list[float]) -> float:
    """Factor that brings a wall time measured between two sample gaps to
    the reference speed."""
    return NOMINAL_REF_S / statistics.median(before + after)
