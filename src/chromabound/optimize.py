"""One-dimensional global maximization on the open unit interval.

Dense grid scan followed by a bracketed refinement of the local grid
maxima: Brent's parabolic steps with a golden-section fallback, in
``golden_section_max`` (the name is older than the parabolic steps).
Unimodality is never assumed: several distinct local grid maxima are
refined and the best refined point wins.  Every search scans all of
``GRID``: ``maximize_on_unit_interval`` is the scan followed by
``refine_grid_maxima``; a caller that already holds the scanned values
passes them to the refinement directly.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

#: The golden-section fraction (3 - sqrt(5)) / 2 of Brent's fallback step.
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0

#: Interior points of the grid scan.
GRID_POINTS = 4096

#: The scanned grid: ``GRID_POINTS`` equispaced interior points of (0, 1).
GRID = np.linspace(0.0, 1.0, GRID_POINTS + 2)[1:-1]
GRID.setflags(write=False)

#: Highest local grid maxima refined.
RESTARTS = 3


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-12
) -> Tuple[float, float]:
    """Maximize a scalar function on [lo, hi] by Brent's method.

    Brent, *Algorithms for Minimization without Derivatives* (1973),
    ch. 5: each step fits a parabola through the three best points and
    moves to its vertex, and takes a golden-section step into the larger
    side of the bracket whenever the parabola is rejected (vertex outside
    the bracket, or a step not below half the step before last).  No step
    is shorter than ``xtol / 3``, so once the parabola settles the points
    on either side of the best close the bracket.  Every evaluation
    lies strictly inside (lo, hi).

    Stops once the bracket is at most ``xtol`` wide, or once it spans so
    few floats that the next point would not split it.  Returns the best
    point evaluated and ``f`` there.
    """
    a, b = float(lo), float(hi)
    x = w = v = a + _CGOLD * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0  # the last step, and the step (or golden segment) before it
    while b - a > xtol:
        mid = 0.5 * (a + b)
        tol1 = max(xtol / 3.0, math.ulp(x))  # the shortest step
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                parabolic = True
                e, d = d, p / q
                if (x + d) - a < 2.0 * tol1 or b - (x + d) < 2.0 * tol1:
                    d = tol1 if x <= mid else -tol1
        if not parabolic:
            e = (a - x) if x >= mid else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        if not a < u < b:
            break
        fu = f(u)
        if fu > fx:  # a tie keeps the earlier point
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu > fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu > fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def refine_grid_maxima(
    f: Callable, vals: np.ndarray, xtol: float = 1e-12
) -> Tuple[float, float]:
    """Refine the scanned values ``vals = f(GRID)`` by Brent's method.

    Candidates are the local grid maxima: an interior point at least as
    high as both neighbours, the first point if ``vals[0] >= vals[1]``
    and the last if ``vals[-1] >= vals[-2]``.  An endpoint whose
    neighbour is higher can hide a higher value only within one grid
    step of the interval's end, the same risk the scan already takes
    between any two grid points, so it is not refined.  The
    ``RESTARTS`` highest candidates are refined, which guards against
    picking a secondary hump; equal grid values are ranked by lower
    index.  Each candidate ``GRID[i]`` is refined by ``golden_section_max``
    on ``[GRID[i-1], GRID[i+1]]``, down to ``xtol``; the bracket of the
    first point starts halfway to 0 and that of the last point ends
    halfway to 1.  ``f`` is called on floats only.

    Returns ``(x_star, value)``: the best refined point, or the best grid
    point if no refinement beats it.
    """
    padded = np.concatenate(([-np.inf], vals, [-np.inf]))
    peak = (vals >= padded[:-2]) & (vals >= padded[2:])
    candidates = np.nonzero(peak)[0]
    top = candidates[np.argsort(-vals[candidates], kind="stable")[:RESTARTS]]

    best_x = float(GRID[int(np.argmax(vals))])
    best_v = float(np.max(vals))
    for i in top:
        lo = GRID[i - 1] if i > 0 else 0.5 * GRID[0]
        up = GRID[i + 1] if i < GRID_POINTS - 1 else 0.5 * (1.0 + GRID[-1])
        x, v = golden_section_max(lambda t: float(f(t)), float(lo), float(up), xtol)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v


def maximize_on_unit_interval(f: Callable, xtol: float = 1e-12) -> Tuple[float, float]:
    """Global maximum of ``f`` on (0, 1).

    ``f`` must accept both a float and a 1-d ndarray.  Scans ``f`` on
    ``GRID`` in one array call and refines the local grid maxima with
    ``refine_grid_maxima``.

    Returns ``(x_star, value)``.
    """
    return refine_grid_maxima(f, np.asarray(f(GRID), dtype=float), xtol)
