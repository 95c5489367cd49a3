"""A fixed piece of reference work, timed next to every job, that tells
how fast the host runs at that moment.

On a shared virtual machine the same code can run 1.5 to 1.8 times
slower for a minute or more while other tenants load the host, and
user CPU time slows with wall time, so neither clock alone separates a
slower program from a busier host.  The reference work calls nothing in
umtree and is the same for every release, so its time measures the host
alone.  The work mixes what umtree spends its time on: frozenset unions
and dict updates, big-integer arithmetic, float formatting, and numpy
gathers over matrices inside and outside the second-level cache.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

# About the median time of probe() on a quiet 2-vCPU Xeon VM.  A time divided by
# the slowdown (probe time / REF_PROBE_S) reads in seconds of such a
# host.  The constant only scales results; it does not change their
# spread or any ratio between two commits.
REF_PROBE_S = 0.0029

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((400, 400))  # 1.3 MB: fits the second-level cache
_LARGE = _RNG.random((900, 900))  # 6.5 MB: does not
_SETS = [frozenset(range(i % 11, i % 11 + 1 + i % 5)) for i in range(40)]


def _work():
    seen = {}
    for a in _SETS:
        for b in _SETS:
            u = a | b
            seen[u] = seen.get(u, 0) + len(u)
    x = 0
    for k in range(400):
        x = x * 7 + k
    json.dumps([round(v / 3, 6) for v in range(300)])
    for m, reps in ((_SMALL, 3), (_LARGE, 1)):
        idx = np.arange(0, len(m), 2)
        for _ in range(reps):
            m[np.ix_(idx, idx)].min()


def probe() -> float:
    """Seconds taken by one round of the reference work.

    An untimed round runs first, so that the timed one finds its data in
    cache whatever the program did before: the probe then tracks the
    host, not the program's memory footprint.
    """
    _work()
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
