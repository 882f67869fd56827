"""One-dimensional global maximization on the open unit interval.

Dense grid scan followed by golden-section refinement.  Unimodality is
never assumed: several distinct local grid maxima are refined and the
best refined point wins.  The scan can stop short of 1 (``hi``), so a
caller whose objective is trusted only on a prefix of ``GRID`` uses the
same optimizer.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Interior points of the grid scan.
GRID_POINTS = 4096

#: The scanned grid: ``GRID_POINTS`` equispaced interior points of (0, 1).
GRID = np.linspace(0.0, 1.0, GRID_POINTS + 2)[1:-1]
GRID.setflags(write=False)

#: Highest local grid maxima refined by golden section.
RESTARTS = 3


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-12
) -> Tuple[float, float]:
    """Maximize a scalar function on [lo, hi] by golden-section search.

    Stops once the bracket is at most ``xtol`` wide, or once it spans so
    few floats that the interior points no longer split it.
    """
    a, b = float(lo), float(hi)
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > xtol and a < x1 < x2 < b:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = f(x1)
    x = 0.5 * (a + b)
    return x, f(x)


def maximize_on_unit_interval(
    f: Callable, xtol: float = 1e-12, hi: float = 1.0
) -> Tuple[float, float]:
    """Global maximum of ``f`` on (0, hi), with ``GRID[0] < hi <= 1``.

    ``f`` must accept both a float and a 1-d ndarray.  The grid scan uses
    the points of ``GRID`` below ``hi``; the ``RESTARTS`` highest
    candidates among the local grid maxima and the scanned endpoints are
    refined by golden section, which guards against picking a secondary
    hump; equal grid values are ranked by lower index.  The bracket of
    the last scanned point ends halfway to ``hi``.

    Returns ``(x_star, value)``.
    """
    ts = GRID[GRID < hi]
    vals = np.asarray(f(ts), dtype=float)
    n = len(ts)

    peak = np.ones(n, dtype=bool)
    peak[1:-1] = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    candidates = np.nonzero(peak)[0]
    top = candidates[np.argsort(-vals[candidates], kind="stable")[:RESTARTS]]

    best_x = float(ts[int(np.argmax(vals))])
    best_v = float(np.max(vals))
    for i in top:
        lo = ts[i - 1] if i > 0 else 0.5 * ts[0]
        up = ts[i + 1] if i < n - 1 else 0.5 * (hi + ts[-1])
        x, v = golden_section_max(lambda t: float(f(t)), float(lo), float(up), xtol)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v
