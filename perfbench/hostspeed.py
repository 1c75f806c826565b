"""Host speed probe: a fixed pure-Python kernel timed next to every op.

The host's speed changes by up to 1.6x, in spells of a fraction of a
second to minutes, and a spell can cover a whole run (see the README).
The benchmark therefore times this probe right before and right after
each op and each set-up, and scales the op's time by REF_S over the mean
of the two probe times: every timing is reported at the host speed at
which the probe takes REF_S.  The probe shares no code with chipfire, so
a change to chipfire moves the scaled times and a change of host speed
does not.

The two CPUs of the host slow down in spells of their own, so a probe
only speaks for the CPU it ran on.  ``pin`` therefore keeps the run, and
the children it starts, on one CPU.

The kernel is Dhar burning from one vertex over a fixed 24-vertex ladder,
for a fixed set of divisors: lists of small ints, indexing, loops and
function calls, like chipfire's own inner loops.
"""

from __future__ import annotations

import os
import random
import time

REF_S = 0.18e-3  # about the probe's time in a fast spell on the 2-core host of the README
REPEATS = 6


def _ladder(n):
    m = n // 2
    adj = [[] for _ in range(n)]
    for i in range(m - 1):
        for a, b in ((i, i + 1), (m + i, m + i + 1)):
            adj[a].append(b)
            adj[b].append(a)
    for i in range(m):
        adj[i].append(m + i)
        adj[m + i].append(i)
    return adj


_ADJ = _ladder(24)
_DIVISORS = [[random.Random(7 + k).randint(0, 2) for _ in range(24)] for k in range(12)]


def _burn(vals):
    burnt = [False] * len(vals)
    inflow = [0] * len(vals)
    burnt[0] = True
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in _ADJ[u]:
                if not burnt[w]:
                    inflow[w] += 1
                    if inflow[w] > vals[w]:
                        burnt[w] = True
                        nxt.append(w)
        frontier = nxt
    return sum(burnt)


def probe() -> float:
    """Seconds the kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        for vals in _DIVISORS:
            _burn(vals)
    return time.perf_counter() - t0


def slowness(before: float, after: float) -> float:
    """How much slower than nominal the host ran between two probes."""
    return (before + after) / 2 / REF_S


def pin() -> None:
    """Keep this process and its future children on one allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
