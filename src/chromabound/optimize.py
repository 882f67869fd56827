"""One-dimensional global maximization on the open unit interval by grid scan.

A dense scan of ``GRID`` followed by a bracketed refinement of the local
grid maxima by Brent's method, ``golden_section_max`` (from ``brent``,
re-exported here; the name is older than the parabolic steps).
Unimodality is never assumed: several distinct local grid maxima are
refined and the best refined point wins.

No command uses this module: ``bound_engine``,
``special_functions.one_minus_t_theta_max`` and ``lattice_theta``'s
``mu`` search in pure Python by branch and bound, so no command loads
numpy.  It is kept as the reference the tests compare those searches
with, and because the benchmark's tracer wraps
``maximize_on_unit_interval`` and ``golden_section_max`` here by name;
it can go once the tracer no longer does.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .brent import golden_section_max

#: Interior points of the grid scan.
GRID_POINTS = 4096

#: The scanned grid: ``GRID_POINTS`` equispaced interior points of (0, 1).
GRID = np.linspace(0.0, 1.0, GRID_POINTS + 2)[1:-1]
GRID.setflags(write=False)

#: Highest local grid maxima refined.
RESTARTS = 3


def maximize_on_unit_interval(f: Callable, xtol: float = 1e-12) -> Tuple[float, float]:
    """Global maximum of ``f`` on (0, 1).

    ``f`` must accept both a float and a 1-d ndarray.  Scans ``f`` on
    ``GRID`` in one array call, then refines the local grid maxima by
    Brent's method.  Candidates are the local grid maxima: an interior
    point at least as high as both neighbours, the first point if
    ``vals[0] >= vals[1]`` and the last if ``vals[-1] >= vals[-2]``.  An
    endpoint whose neighbour is higher can hide a higher value only
    within one grid step of the interval's end, the same risk the scan
    already takes between any two grid points, so it is not refined.
    The ``RESTARTS`` highest candidates are refined, which guards against
    picking a secondary hump; equal grid values are ranked by lower
    index.  Each candidate ``GRID[i]`` is refined by
    ``golden_section_max`` on ``[GRID[i-1], GRID[i+1]]``, down to
    ``xtol``; the bracket of the first point starts halfway to 0 and that
    of the last point ends halfway to 1.

    Returns ``(x_star, value)``: the best refined point, or the best grid
    point if no refinement beats it.
    """
    vals = np.asarray(f(GRID), dtype=float)
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
