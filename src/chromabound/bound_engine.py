"""Chromatic-number lower bounds from truncated partial theta maximization.

For a query with m forbidden distances and clique parameter k, set
gamma = k / (m + 1).  The exponential base of the lower bound is

    max over l of  max_{0 < t < 1}  theta(t^gamma; l) / (1 + t + ... + t^(l-1)),

a ratio of an l-term truncated partial theta sum to an l-term geometric
sum.  The reported ``l_star`` counts terms, so numerator and denominator
always have the same length.  Appending term l + 1 turns the l-term
ratio R_l(t) into the mediant of R_l(t) and t^(gamma*l(l+1)/2 - l), so
R_{l+1}(t) lies between the two.  The exponent is nonnegative once
l >= 2/gamma - 1, and then t^(...) <= 1 <= max R_l; hence the argmax
satisfies l_star <= ceil(2/gamma) - 1, and at k = 1 it equals that bound
(2m + 1) for every m <= 15.  From below: with f(j) = gamma j(j+1)/2 - j,
f falls strictly on 0..l while l gamma < 1, so the appended ratio t^f(l)
exceeds every termwise ratio t^f(j), j < l, hence R_l(t), and
R_{l+1} > R_l on (0, 1).  Only the l with l k >= m + 1 can win, and
``best_l`` refines the l >= 2 of [1/gamma, 2/gamma - 1]; the 1-term
ratio R_1 is identically 1, the value it starts from.

``best_l`` sweeps the grid once per gamma: R_l on ``optimize.GRID`` for
every l comes from running numerator and denominator sums, one term
each per step, with the float operations of ``theta_ratio``, so each
R_l equals a fresh array call bit for bit.  Only the refinement of the
local grid maxima of each R_l evaluates the ratio anew, through the
scalar ``theta_ratio``.

All functions are pure.  ``table`` computes its cells serially in a
fixed order (m ascending, then k ascending), and each cell depends only
on its own (m, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .optimize import GRID, refine_grid_maxima
from .special_functions import (
    ArrayLike,
    check_unit_interval,
    full_like,
    gamma_chi,
    theta_truncated,
)


@dataclass(frozen=True)
class BoundQuery:
    """Number of forbidden distances ``m`` and clique parameter ``k``.

    The bound is nontrivial only for k <= m (gamma < 1); larger k is
    accepted but flagged.
    """

    m: int
    k: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must be positive integers")

    @property
    def gamma(self) -> float:
        return self.k / (self.m + 1)


@dataclass(frozen=True)
class BoundResult:
    """One cell of the lower-bound table with its maximizing parameters."""

    m: int
    k: int
    gamma: float
    l_star: int
    t_star: float
    value: float
    warning: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "m": self.m,
            "k": self.k,
            "gamma": self.gamma,
            "l_star": self.l_star,
            "t_star": self.t_star,
            "value": self.value,
        }


def theta_ratio(t: ArrayLike, gamma: float, l: int) -> ArrayLike:
    """Ratio  theta(t^gamma; l) / (1 + t + ... + t^(l-1)).

    Both sums have l terms.  Defined on [0, 1]; the value at t = 0 is the
    t -> 0 limit, which is 1, and the value at t = 1 is l / l = 1.
    ``theta_truncated`` checks ``l`` and ``gamma``.
    """
    num = theta_truncated(t, gamma, l)
    t = check_unit_interval(t, hi_open=False)
    den = p = full_like(t, 1.0)
    for _ in range(l - 1):
        p = p * t
        den = den + p
    return num / den


def maximize_over_t(gamma: float, l: int, tol: float = 1e-12) -> Tuple[float, float]:
    """Global maximum of the l-term ratio over t in (0, 1).

    Returns ``(t_star, value)`` with value >= 1; when the interior never
    exceeds the common endpoint limit 1 (gamma >= 1), the supremum 1 is
    reported at t_star = 0.
    """
    return _refine_l(gamma, l, theta_ratio(GRID, gamma, l), tol)


def _refine_l(
    gamma: float, l: int, vals: np.ndarray, tol: float
) -> Tuple[float, float]:
    # Refine the l-term ratio from its values on GRID; a maximum below the
    # endpoint limit 1 reports the supremum 1 at t_star = 0.
    t_star, value = refine_grid_maxima(
        lambda t: theta_ratio(t, gamma, l), vals, xtol=tol
    )
    if value < 1.0:
        return 0.0, 1.0
    return t_star, value


def best_l(gamma: float, tol: float = 1e-12) -> Tuple[int, float, float]:
    """Maximize the ratio jointly over t and the term count l.

    Starts from ``(1, 0.0, 1.0)``, the 1-term ratio R_1 = 1, steps
    l = 2 .. ceil(2/gamma) - 1, refines the l with l * gamma >= 1 and
    returns ``(l_star, t_star, value)``; for gamma >= 1 nothing is
    scanned.  Ties break toward smaller l.  Each refined l gives the
    result of ``maximize_over_t(gamma, l, tol)``, bit for bit, from one
    running sweep of the grid.  No l outside the window can win (module
    docstring); the upper edge is attained at k = 1 (l_star = 2m + 1) for
    every m <= 15 (checked at 60 significant digits).  Rounding never
    drops an l that the exact rules keep: the float ceil(2/gamma) is
    never below the exact ceil(2(m+1)/k) (checked for m, k <= 500), and
    an l is skipped only if the float l * gamma < 1 - 1e-12, which a few
    ulps of rounding cannot reach from l k >= m + 1.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    l_star, t_star, value = 1, 0.0, 1.0
    q = r = GRID ** gamma
    num = term = den = p = np.ones_like(GRID)
    for l in range(2, math.ceil(2.0 / gamma)):
        term = term * q
        num = num + term
        q = q * r
        p = p * GRID
        den = den + p
        if l * gamma < 1.0 - 1e-12:
            continue
        t, v = _refine_l(gamma, l, num / den, tol)
        if v > value:
            l_star, t_star, value = l, t, v
    return l_star, t_star, value


def chromatic_lower_bound(query: BoundQuery, tol: float = 1e-12) -> BoundResult:
    """Certified lower bound on limsup chi_k(R^n, A_m)^(1/n).

    A_m is the distance set {1, sqrt(2), ..., sqrt(m)}.  For k > m the
    result carries a warning: the bound may be trivial (<= 1).
    """
    gamma = query.gamma
    l_star, t_star, value = best_l(gamma, tol)
    warning = None
    if query.k > query.m:
        warning = "k > m: bound may be trivial"
    return BoundResult(
        m=query.m,
        k=query.k,
        gamma=gamma,
        l_star=l_star,
        t_star=t_star,
        value=value,
        warning=warning,
    )


def asymptotic_lower_bound(query: BoundQuery) -> float:
    """The closed-form rate GAMMA_CHI * sqrt((m + 1) / k)."""
    return gamma_chi().value * math.sqrt((query.m + 1) / query.k)


def kupavskii_upper_base(m: int) -> float:
    """Base 2(sqrt(m) + 1) of the known upper bound for chi(R^n, A_m)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return 2.0 * (math.sqrt(m) + 1.0)


def table(m_max: int, k_max: int, tol: float = 1e-12) -> List[BoundResult]:
    """All cells (m, k) with 1 <= m <= m_max and 1 <= k <= min(m, k_max).

    Computed serially, ordered by m ascending, then k ascending.
    """
    if m_max < 1 or k_max < 1:
        raise ValueError("m_max and k_max must be positive integers")
    queries = [
        BoundQuery(m=m, k=k)
        for m in range(1, m_max + 1)
        for k in range(1, min(m, k_max) + 1)
    ]
    return [chromatic_lower_bound(q, tol) for q in queries]
