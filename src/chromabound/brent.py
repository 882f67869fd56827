"""Brent's method for a scalar maximum on a bracket, in pure Python.

The module does not import numpy, so a command that only refines
scalar objectives (``bound``, ``table``, ``constants``, ``verify``)
never loads it.
``optimize`` re-exports ``golden_section_max`` for its grid search.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

#: The golden-section fraction (3 - sqrt(5)) / 2 of Brent's fallback step.
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


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
