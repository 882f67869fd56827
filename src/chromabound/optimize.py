"""One-dimensional global maximization on the open unit interval by grid scan.

A scan of ``GRID``, 4096 fixed points of (0, 1) that this module
owns, followed by a bracketed refinement of the local grid maxima by
Brent's method, ``golden_section_max`` (from ``brent``, re-exported
here; the name is older than the parabolic steps).  Unimodality is
never assumed: several distinct local grid maxima are refined and the
best refined point wins.

No command uses this module: ``bound_engine``,
``special_functions.one_minus_t_theta_max`` and ``lattice_theta``'s
``mu`` search by branch and bound.  It is kept as the reference the
tests compare those searches with, and because the benchmark's tracer
wraps ``maximize_on_unit_interval`` and ``golden_section_max`` here by
name; it can go once the tracer no longer does.
"""

from __future__ import annotations

from typing import Callable, Tuple

from .brent import golden_section_max

#: The 4096 equispaced interior points of (0, 1), computed as
#: numpy.linspace(0, 1, 4098)[1:-1] computes them, i * (1/4097);
#: (i + 1)/4097 rounds differently at some points.
GRID = tuple((i + 1) * (1.0 / 4097) for i in range(4096))

#: Highest local grid maxima refined.
RESTARTS = 3


def maximize_on_unit_interval(f: Callable, xtol: float = 1e-12) -> Tuple[float, float]:
    """Global maximum of ``f`` on (0, 1).

    Evaluates ``f`` at each point of ``GRID``, then refines the local
    grid maxima by Brent's method.  Candidates are the local grid maxima:
    an interior point at least as high as both neighbours, the first
    point if ``vals[0] >= vals[1]`` and the last if
    ``vals[-1] >= vals[-2]``.  An endpoint whose neighbour is higher can
    hide a higher value only within one grid step of the interval's end,
    the same risk the scan already takes between any two grid points, so
    it is not refined.  The ``RESTARTS`` highest candidates are refined,
    which guards against picking a secondary hump; equal grid values are
    ranked by lower index.  Each candidate ``GRID[i]`` is refined by
    ``golden_section_max`` on ``[GRID[i-1], GRID[i+1]]``, down to
    ``xtol``; the bracket of the first point starts halfway to 0 and that
    of the last point ends halfway to 1.

    Returns ``(x_star, value)``: the best refined point, or the best grid
    point (the first of equal ones) if no refinement beats it.
    """
    vals = [float(f(x)) for x in GRID]
    last = len(GRID) - 1
    candidates = [
        i for i, v in enumerate(vals)
        if (i == 0 or v >= vals[i - 1]) and (i == last or v >= vals[i + 1])
    ]
    top = sorted(candidates, key=lambda i: -vals[i])[:RESTARTS]

    best_v = max(vals)
    best_x = GRID[vals.index(best_v)]
    for i in top:
        lo = GRID[i - 1] if i > 0 else 0.5 * GRID[0]
        up = GRID[i + 1] if i < last else 0.5 * (1.0 + GRID[-1])
        x, v = golden_section_max(lambda t: float(f(t)), lo, up, xtol)
        if v > best_v:
            best_x, best_v = x, v
    return best_x, best_v
