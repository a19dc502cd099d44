"""A fixed reference computation that times the host, not the program.

The shared host this benchmark was written on changes speed by up to 60%
within tens of seconds (see NOTES.md), and a single-process unit slows down
with it.  `measure()` runs a fixed computation that does not touch spikybp
right before and right after each timed unit; a unit's time divided by the
mean of the two reference times is the unit's time in reference units, and
the host's drift cancels in that ratio while a change to the program does
not.

The mix follows the workloads: a Python loop of small numpy calls (as in the
simplex and the l0 pair loop) and elementwise passes over a 3 x 20000 array
(as in the theorem-a sampling and d=1 search).  It calls no BLAS routine
large enough to start BLAS threads, so the package's thread settings do not
reach it.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

_GEN = np.random.default_rng(20260)
_PAIRS = _GEN.standard_normal((3, 96))
_WIDE = _GEN.standard_normal((3, 20000))
_Y = _PAIRS[:, 0] + 0.5 * _PAIRS[:, 1]


def _work() -> float:
    acc = 0.0
    for a, b in itertools.combinations(range(_PAIRS.shape[1]), 2):
        sub = _PAIRS[:, (a, b)]
        t = np.linalg.solve(sub.T @ sub, sub.T @ _Y)
        acc += float(t[0])
    for k in range(24):
        w = np.abs(_WIDE + k)
        acc += float(np.sort(w, axis=1)[:, -1].sum() + np.einsum("ij,ij->j", w, w).max())
    return acc


def measure() -> tuple[float, float]:
    """Wall and CPU seconds of one reference computation."""
    c0, t0 = time.process_time(), time.perf_counter()
    _work()
    return time.perf_counter() - t0, time.process_time() - c0
