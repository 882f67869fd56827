"""Brent's method on a bracket, and the one best-first cell search on
[0, 1] built on it, in pure Python (no numpy).

``bisect_cells`` is the cell search of every maximization over t:
``bound_engine`` calls it for ``best_l`` and ``maximize_over_t``, and
``cell_search_max`` (``one_minus_t_theta_max``, ``lattice_theta``'s
``mu``) is it plus Brent's method.  The caller brings a visit of a point
and a proven bound on a cell; the search rules are:

- ``_START_CELLS`` equal cells of [0, 1], whose ends are all visited;
- a cell is dropped once its bound times 1 + ``_SLACK`` is at most the
  best value visited, and the one with the largest bound is bisected
  first, down to ``_LEAF_WIDTH`` (``_LAST_WIDTH`` if it ends at 1);
- the surviving leaves merge into runs (``runs``), which the caller
  refines by Brent's method (``golden_section_max``);
- the largest key wins: value first, then the caller's tie rules (the
  smaller t; for ``best_l`` first the smaller l).

``optimize`` re-exports ``golden_section_max`` for its grid search,
which only the tests still run.

Every layer imports this module, so it also holds the package's one
check of a positive argument (``check_positive``, nan rejected), its
check of a point of [0, 1] (``check_unit_interval``) and the stopped
partial sum of both ``special_functions.theta_truncated`` and
``bound_engine``'s ratio R_l (``_stopped_sum``).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Optional, Tuple

#: The golden-section fraction (3 - sqrt(5)) / 2 of Brent's fallback step.
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0

#: Equal cells of [0, 1] whose ends are visited before anything is
#: pruned.  Their interior ends give the first best value, and each cell
#: gets a bound; 8 cells cost less than the bisection they save.
_START_CELLS = 8

#: Cells are bisected down to this width, and Brent's method refines
#: each run of adjacent surviving leaves.  Narrower leaves cost more
#: visits; wider ones stretch the runs, and in ``bound_engine`` push them
#: up to larger t, where its no-op rule comes later.
_LEAF_WIDTH = 2.0 ** -6

#: A cell that ends at t = 1 is bisected on down to this width, so a
#: last cell that is never pruned still ends after 34 more visits.  In
#: ``bound_engine`` its bound l / D_l(a) beats the best value while
#: 1 - a >= value / l, so a last leaf of _LEAF_WIDTH would keep every l
#: of the window alive once l passes about 64 times the value.
_LAST_WIDTH = 2.0 ** -40

#: Relative margin on a cell bound, for the float rounding of the bounds.
#: In ``bound_engine`` every float operation of a pass is monotone in t,
#: pow included, so the float R_l(t) never exceeds the float bound; the
#: margin covers a pow off by an ulp, and exceeds the 2 * top roundings
#: of the two sums (2.2e-11 at top = 10^5) for every top up to 10^5.
_SLACK = 1e-10


def check_unit_interval(t: float, hi_open: bool, name: str = "t") -> float:
    """``t`` as a Python float, checked against [0, 1] (or [0, 1) if ``hi_open``).

    NaN lies in neither interval.  An argument that ``float`` cannot
    convert, such as an array of several points, raises its TypeError.
    """
    t = float(t)
    if not (0.0 <= t and (t < 1.0 if hi_open else t <= 1.0)):
        rng = "[0, 1)" if hi_open else "[0, 1]"
        raise ValueError(f"{name} must lie in {rng}")
    return t


def check_positive(value: float, name: str) -> None:
    """Raise ValueError unless ``value > 0``; NaN fails the test too."""
    if not value > 0:
        raise ValueError(f"{name} must be positive")


def _stopped_sum(q: float, r: float, l: int) -> float:
    """1 + x_2 + ... + x_l with x_(j+1) = x_j q_j and q_(j+1) = q_j r, q_1 = q.

    Stops at the first term that leaves the sum unchanged.  For q, r in
    [0, 1] float terms never grow, so that is the full sum bit for bit.
    """
    total = term = 1.0
    for _ in range(l - 1):
        term = term * q
        s = total + term
        if s == total:
            break
        total = s
        q = q * r
    return total


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


def survives(bound: float, best: float) -> bool:
    """Whether a cell with this bound can still beat the value ``best``."""
    return bound * (1.0 + _SLACK) > best


def bisect_cells(
    visit: Callable[[float, float], Optional[tuple]],
    bound: Callable[[float, float], float],
) -> Tuple[tuple, List[Tuple[float, float]]]:
    """Bisect [0, 1] best first, dropping each cell whose bound cannot win.

    ``visit(t, best)`` is called once at each end of each cell, t = 0
    and t = 1 included, with the best value so far.  It returns the key
    of the best point at t, a tuple whose first entry is its value and
    whose later entries break ties (the larger key wins), or None when t
    holds no point or none whose value reaches ``best``.  ``bound(a, b)``
    bounds every value on the cell [a, b]; it is called after both ends
    are visited.

    Returns ``(best, leaves)``: the largest key visited, and the leaves
    whose bound survives it, as ``(a, b)`` in order of t.
    """
    best: tuple = (-math.inf,)
    cells: List[Tuple[float, float, float]] = []  # (-bound, a, b), to bisect
    leaves: List[Tuple[float, float, float]] = []  # (bound, a, b)

    def see(t: float) -> None:
        nonlocal best
        key = visit(t, best[0])
        if key is not None:
            best = max(best, key)

    def push(a: float, b: float) -> None:
        cap = bound(a, b)
        if not survives(cap, best[0]):
            return
        if b - a <= (_LEAF_WIDTH if b < 1.0 else _LAST_WIDTH):
            leaves.append((cap, a, b))
        else:
            heapq.heappush(cells, (-cap, a, b))

    ends = [i / _START_CELLS for i in range(_START_CELLS + 1)]
    for t in ends:
        see(t)
    for a, b in zip(ends, ends[1:]):
        push(a, b)
    while cells:
        neg, a, b = heapq.heappop(cells)
        if not survives(-neg, best[0]):
            break  # every cell left is bounded as low
        mid = 0.5 * (a + b)
        see(mid)
        push(a, mid)
        push(mid, b)
    return best, sorted((a, b) for cap, a, b in leaves if survives(cap, best[0]))


def runs(leaves: List[Tuple[float, float]]) -> List[List[float]]:
    """Adjacent leaves, given in order of t, merged into runs [a, b]."""
    merged: List[List[float]] = []
    for a, b in leaves:
        if merged and merged[-1][1] == a:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return merged


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
    cell [a, 1).  ``bisect_cells`` prunes with these bounds, and Brent's
    method (``golden_section_max``, down to ``xtol``) refines each run of
    adjacent surviving leaves.  ``rising`` is evaluated at t = 0 and at
    points of (0, 1), never at 1.

    Returns ``(t_star, value)``: the best point of (0, 1) evaluated, ties
    going to the smaller t.
    """
    values = {}  # rising(t) at each end evaluated

    def visit(t: float, best: float) -> Optional[Tuple[float, float]]:
        if t == 1.0:
            return None
        values[t] = rising(t)
        return (falling(t) * values[t], -t) if t > 0.0 else None

    def bound(a: float, b: float) -> float:
        return falling(a) * values[b] if b < 1.0 else last_bound(a)

    best, leaves = bisect_cells(visit, bound)
    for a, b in runs(leaves):
        t, v = golden_section_max(lambda x: falling(x) * rising(x), a, b, xtol)
        best = max(best, (v, -t))
    value, neg_t = best
    return -neg_t, value
