"""One-dimensional global maximization on the open unit interval.

Dense grid scan followed by golden-section refinement.  Unimodality is
never assumed: several distinct local grid maxima are refined and the
best refined point wins.  The scan can stop short of 1 (``hi``), so a
caller whose objective is trusted only on a prefix of ``GRID`` uses the
same optimizer.  ``maximize_on_unit_interval`` is the scan followed by
``refine_grid_maxima``; a caller that already holds the scanned values
passes them to the refinement directly.
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


def refine_grid_maxima(
    f: Callable, vals: np.ndarray, xtol: float = 1e-12, hi: float = 1.0
) -> Tuple[float, float]:
    """Refine the scanned values ``vals = f(GRID[GRID < hi])`` by golden section.

    Candidates are the local grid maxima: an interior point at least as
    high as both neighbours, the first point if ``vals[0] >= vals[1]``
    and the last if ``vals[-1] >= vals[-2]``.  An endpoint whose
    neighbour is higher can hide a higher value only within one grid
    step of the interval's end, the same risk the scan already takes
    between any two grid points, so it is not refined.  The
    ``RESTARTS`` highest candidates are refined, which guards against
    picking a secondary hump; equal grid values are ranked by lower
    index.  The bracket of the first point starts halfway to 0 and that
    of the last point ends halfway to ``hi``.  ``f`` is called on floats
    only.

    Returns ``(x_star, value)``: the best refined point, or the best grid
    point if no refinement beats it.
    """
    n = len(vals)
    ts = GRID[:n]
    peak = np.ones(n, dtype=bool)
    peak[1:-1] = (vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])
    if n > 1:
        peak[0] = vals[0] >= vals[1]
        peak[-1] = vals[-1] >= vals[-2]
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


def maximize_on_unit_interval(
    f: Callable, xtol: float = 1e-12, hi: float = 1.0
) -> Tuple[float, float]:
    """Global maximum of ``f`` on (0, hi), with ``GRID[0] < hi <= 1``.

    ``f`` must accept both a float and a 1-d ndarray.  Scans ``f`` on the
    points of ``GRID`` below ``hi`` in one array call and refines the
    local grid maxima with ``refine_grid_maxima``.

    Returns ``(x_star, value)``.
    """
    vals = np.asarray(f(GRID[GRID < hi]), dtype=float)
    return refine_grid_maxima(f, vals, xtol, hi)
