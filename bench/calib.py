"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared machines whose CPU speed drifts: on a shared
2-core Xeon VM (2.0 GHz) a fixed pure-Python loop took 1.7x longer in slow
spells than in fast ones, and such spells lasted from seconds to whole
one-minute runs, with CPU time tracking wall time (so not steal).  The worker
therefore runs one fixed calibration `unit()` between jobs, and every job
time is scaled by REF_UNIT_S / (the mean time of the two units that bracket
that job): the end-to-end times read as seconds on a machine where one unit
takes REF_UNIT_S.  The speed changes within a second, so the nearest units
track it best: medians over 0.5 s or 1 s windows left 1.5-2x the spread
between runs.  A change to fproot moves job times and leaves the units alone;
a slow spell moves both.

The unit is exact `Fraction` Gauss elimination plus dict and list work, like
the bulk of fproot (`fractions` and `exactlin`), and uses nothing from
fproot, so no change to the program can change it.  `setup_s` is scaled by
its own, import-like calibration (setup_child.py) to REF_EXEC_S: the import
slowed by only about a third as much as `unit()` did.
"""

from __future__ import annotations

import bisect
import time
from fractions import Fraction

REF_UNIT_S = 0.003      # one unit on the reference machine (2.0 GHz Xeon VM)
REF_EXEC_S = 0.009      # one setup_child.py exec unit there


def unit():
    """One calibration unit (about 3 ms); returns its wall time."""
    start = time.perf_counter()
    n = 7
    m = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4)
          for j in range(n + 1)] for i in range(n)]
    r = 0
    for c in range(n + 1):
        p = next((i for i in range(r, n) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    d = {}
    for k in range(2000):
        d[k % 37, k % 11] = d.get((k % 37, k % 11), 0) + k
    return time.perf_counter() - start


class Speed:
    """Scale factors from unit samples [(t, unit_s)] taken in time order."""

    def __init__(self, samples):
        self.t = [t for t, _ in samples]
        self.u = [u for _, u in samples]

    def factor(self, t):
        """REF_UNIT_S over the mean of the last unit before t and the first
        after it (the one there is, at either end of the run)."""
        k = bisect.bisect_left(self.t, t)
        near = self.u[max(k - 1, 0):k + 1]
        return REF_UNIT_S * len(near) / sum(near)
