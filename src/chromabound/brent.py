"""Brent's method for a scalar maximum on a bracket, and the best-first
cell search on [0, 1) built on it, in pure Python.

The module does not import numpy, so no command that searches with it
loads numpy.  ``cell_search_max`` is the search of
``special_functions.one_minus_t_theta_max`` and of ``lattice_theta``'s
``mu``; ``optimize`` re-exports ``golden_section_max`` for its grid
search, which only the tests still run.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Tuple

#: The golden-section fraction (3 - sqrt(5)) / 2 of Brent's fallback step.
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0

# The cells of ``cell_search_max``, with the values of ``bound_engine``'s
# search: equal start cells of [0, 1), the width below which a cell is no
# longer bisected, and the relative margin on a cell bound (a cell is
# dropped only when bound * (1 + _SLACK) <= best).
_START_CELLS = 8
_LEAF_WIDTH = 2.0 ** -6
_SLACK = 1e-10


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


def cell_search_max(
    rising: Callable[[float], float],
    falling: Callable[[float], float],
    last_bound: Callable[[float], float],
    xtol: float = 1e-12,
) -> Tuple[float, float]:
    """Maximize falling(t) * rising(t) over t in (0, 1) by best-first bisection.

    ``rising`` must not fall and ``falling`` must be nonnegative and not
    rise on [0, 1), so on a cell [a, b] with b < 1 the product is at most
    falling(a) rising(b); ``last_bound(a)`` must bound it on the last
    cell [a, 1).  The search runs by the rules of ``bound_engine``'s:
    ``_START_CELLS`` equal cells, bisected best first down to
    ``_LEAF_WIDTH``, and a cell is dropped once its bound, times
    1 + ``_SLACK`` (a margin for the float rounding of the bounds), is at
    most the best value evaluated.  Brent's method
    (``golden_section_max``, down to ``xtol``) refines each run of
    adjacent surviving leaves.  ``rising`` is evaluated at t = 0 and at
    points of (0, 1), never at 1.

    Returns ``(t_star, value)``: the best point of (0, 1) evaluated, ties
    going to the smaller t.
    """

    def f(t: float) -> float:
        return falling(t) * rising(t)

    values = {}  # rising(t) at each end evaluated
    best = (-math.inf, -0.0)  # (value, -t): ties go to the smaller t
    cells: List[Tuple[float, float, float]] = []  # (-bound, a, b), to bisect
    leaves: List[Tuple[float, float, float]] = []  # (bound, a, b)

    def visit(t: float) -> None:
        nonlocal best
        values[t] = rising(t)
        if t > 0.0:
            best = max(best, (falling(t) * values[t], -t))

    def push(a: float, b: float) -> None:
        bound = falling(a) * values[b] if b < 1.0 else last_bound(a)
        bound *= 1.0 + _SLACK
        if bound <= best[0]:
            return
        if b - a <= _LEAF_WIDTH:
            leaves.append((bound, a, b))
        else:
            heapq.heappush(cells, (-bound, a, b))

    ends = [i / _START_CELLS for i in range(_START_CELLS + 1)]
    for t in ends[:-1]:
        visit(t)
    for a, b in zip(ends, ends[1:]):
        push(a, b)
    while cells:
        neg, a, b = heapq.heappop(cells)
        if -neg <= best[0]:
            break  # every cell left is bounded as low
        mid = 0.5 * (a + b)
        visit(mid)
        push(a, mid)
        push(mid, b)
    runs: List[List[float]] = []
    for a, b in sorted((a, b) for bound, a, b in leaves if bound > best[0]):
        if runs and runs[-1][1] == a:
            runs[-1][1] = b
        else:
            runs.append([a, b])
    for a, b in runs:
        t, v = golden_section_max(f, a, b, xtol)
        best = max(best, (v, -t))
    value, neg_t = best
    return -neg_t, value
