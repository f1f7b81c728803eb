"""A fixed reference computation that gauges the host's speed of the moment.

On a shared host the same CLI call runs up to 1.4x slower from one round
to the next, and for minutes at a time, because other tenants load the
cores, caches and memory the benchmark runs on; process CPU time drifts
with wall time, so it does not remove this.  worker.py times passes of
``reference`` before and after every CLI call, and ``rescaled_seconds``
divides each call's time by the reference time around it: a slower host
slows both.

The reference imitates the kinds of work the program does, in code of the
benchmark's own (it never calls the program, so no change to the program
moves it): small float grids with shifts and minima; a union-find over
tuple cells in sets and dicts; exact rational arithmetic; small SVDs and
symmetric eigenproblems.  Interpreter speed and memory speed drift apart
on this host, so a workload whose time goes to fresh resolution-512 level
grids (page faults and memory traffic) adds passes over grids of that
size, and the others leave them out, which keeps the reference's
resident set below theirs.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# about the median times of the two parts of a pass between CLI calls on a
# shared 2-core Xeon at 2.1 GHz (Python 3.11, numpy 2.4): a rate measured
# against the reference is reported in operations per second of a host
# that runs a pass in NOMINAL_S + large_grids * NOMINAL_LARGE_GRID_S
NOMINAL_S = 0.020
NOMINAL_LARGE_GRID_S = 0.007

_SMALL = np.sin(np.arange(96 * 36) * 1.7).reshape(96, 6, 6)


def _grid(rows: int, cols: int, phase: float) -> int:
    ts = np.linspace(0.0, 1.0, rows)
    psis = np.linspace(phase, 2.0 * np.pi, cols, endpoint=False)
    values = (ts * (1.0 - ts))[:, None] * np.sin(psis)[None, :]
    shifted = np.roll(values, -1, axis=1)
    lo = np.minimum(np.minimum(values[:-1], shifted[:-1]),
                    np.minimum(values[1:], shifted[1:]))
    return int(np.count_nonzero(lo < 0.1))


def _union_find() -> int:
    cells = {(i, (7 * i + j) % 97) for i in range(40) for j in range(30)}
    parent = {c: c for c in cells}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in sorted(cells):
        for nb in ((i - 1, j), (i, (j - 1) % 97)):
            if nb in cells:
                parent[find(nb)] = find((i, j))
    return sum(1 for c in cells if find(c) == c)


def _rationals() -> int:
    total = 0
    for k in range(1, 60):
        acc = Fraction(0)
        for m in range(1, 12):
            acc += Fraction((k * m) % 13 - 6, m + k) * Fraction(m, 7)
        total += acc.numerator % 101
    return total


def _linalg() -> float:
    out = 0.0
    for a in _SMALL:
        out += float(np.linalg.svd(a, compute_uv=False)[0])
        out += float(np.linalg.eigvalsh(a + a.T)[-1])
    return out


def reference(large_grids: int = 0) -> float:
    """Seconds taken by one pass of the reference computation, with
    large_grids passes over fresh 513 x 512 grids."""
    started = time.perf_counter()
    for k in range(48):
        _grid(65, 64, k / 48)
    _union_find()
    _rationals()
    _rationals()
    _linalg()
    for k in range(large_grids):
        _grid(513, 512, k / 8)
    return time.perf_counter() - started


def rescaled_seconds(rnd: dict, large_grids: int = 0) -> float:
    """A worker round's CLI time in seconds of a host that runs a pass of
    the reference in its nominal time: each call's time scaled by that
    time over the mean pass time of the two gaps around the call."""
    nominal = NOMINAL_S + large_grids * NOMINAL_LARGE_GRID_S
    gaps = rnd["reference_s"]
    return sum(seconds * nominal * 2.0 / (before + after)
               for (_, seconds), before, after in zip(rnd["calls"], gaps, gaps[1:]))
