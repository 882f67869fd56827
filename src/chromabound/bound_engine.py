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
satisfies l_star <= ceil(2/gamma) - 1.  At k = 1 the exact argmax equals
that bound (2m + 1) for every m <= 15, but ``best_l`` returns it only up
to m = 13: at m = 14 and 15 the larger l tie the smaller in floats, and
it returns 28 and 30 (ROADMAP item 2).  From below: with
f(j) = gamma j(j+1)/2 - j, f falls strictly on 0..l while l gamma < 1,
so the appended ratio t^f(l) exceeds every termwise ratio t^f(j), j < l,
hence R_l(t), and R_{l+1} > R_l on (0, 1).  Only the l with l k >= m + 1
can win, and ``best_l`` refines the l >= 2 of [1/gamma, 2/gamma - 1];
the 1-term ratio R_1 is identically 1, the value it starts from.

``best_l`` searches all l of that window at once, in pure Python, by the
best-first cell search of ``brent`` (``_search``; ``maximize_over_t`` is
the same search on the window {l}).  Its visit of a point t is one pass
that gives N_l(t) and D_l(t), the numerator and denominator of R_l, for
every l, with the float operations of ``theta_ratio``.  The search rests
on three facts about R_l:

- **Cell bound.**  Both sums have positive terms that rise with t, so
  on a cell [a, b]

      R_l(t) = N_l(t) / D_l(t) <= N_l(b) / D_l(a)   for a <= t <= b.

  Each float operation of a pass is monotone in t, so the float R_l
  obeys the float bound too; the cell's bound is the largest over l.
- **Early stop.**  A pass stops once its next terms lie below a
  fraction of an ulp of their sums.  Terms never grow, so every later
  addition would round to a no-op: the early-stopped sums equal the
  full l-term sums bit for bit.
- **No-op rule.**  If, on every leaf [a, b], term l and t^(l-1) at b
  lie below half an ulp of the (l-1)-term sums at a, then adding them
  changes neither sum anywhere on the leaf, so R_l == R_(l-1) there in
  floats, and the same holds for every later l.  Those l would repeat
  the refinement of l - 1 bit for bit and, with ties going to the
  smaller l, cannot win; the search stops there.

Each l below the stop is refined by Brent's method
(``brent.golden_section_max``) on every run of adjacent leaves where its
own bound survives.  The result is the best point evaluated.

All functions are pure.  ``table`` computes its cells serially in a
fixed order (m ascending, then k ascending), and each cell depends only
on its own (m, k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import truediv
from typing import Dict, List, Optional, Tuple

from . import special_functions
from .brent import bisect_cells, golden_section_max, runs, survives


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


def theta_ratio(t: float, gamma: float, l: int) -> float:
    """Ratio  theta(t^gamma; l) / (1 + t + ... + t^(l-1)).

    Both sums have l terms.  Defined on [0, 1]; the value at t = 0 is the
    t -> 0 limit, which is 1, and the value at t = 1 is l / l = 1.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    if not gamma > 0:  # also rejects nan
        raise ValueError("gamma must be positive")
    return _ratio(special_functions.check_unit_interval(t, hi_open=False), gamma, l)


def _running_sums(q: float, r: float, top: int) -> Tuple[list, list]:
    # The sums 1 + x_2 + ... + x_l for l = 1 .. top and their terms, with
    # x_(j+1) = x_j * q_j and q_(j+1) = q_j * r: N_l(t) at q = r = t^gamma
    # and D_l(t) at q = t, r = 1, by the float operations of theta_ratio.
    # The pass stops at the first term whose fourfold leaves the sum
    # unchanged, a term of at most an eighth of an ulp of the sum.  Later
    # terms are no larger, so no later addition changes the sum, and the
    # sum past the end of ``totals`` equals its last entry; the term of
    # that step closes ``terms`` and bounds every later term.  An eighth,
    # not a half, of an ulp lets those terms pass _no_op against sums at
    # a nearby point that are half as large.
    total = term = 1.0
    totals, terms = [total], [term]
    for _ in range(top - 1):
        term = term * q
        terms.append(term)
        if total + 4.0 * term == total:
            break
        total = total + term
        totals.append(total)
        q = q * r
    return totals, terms


def _ratio(t: float, gamma: float, l: int) -> float:
    # R_l(t) at a float t: each sum of _running_sums alone, stopped at its
    # first term that leaves it unchanged.  Terms never grow, so the stop
    # equals the full l-term sum bit for bit.  The body of theta_ratio and
    # Brent's objective, so it builds no lists.
    q = r = t ** gamma
    num = term = 1.0
    for _ in range(l - 1):
        term = term * q
        s = num + term
        if s == num:
            break
        num = s
        q = q * r
    den = p = 1.0
    for _ in range(l - 1):
        p = p * t
        s = den + p
        if s == den:
            break
        den = s
    return num / den


def _at(values: list, l: int) -> float:
    # Entry l (1-based) of a list from _running_sums; past its end, the last.
    return values[min(l, len(values)) - 1]


def _max_ratio(nums: list, dens: list) -> float:
    # max over l of nums / dens, each list repeating its last entry past
    # its end.  Past the end of the shorter list the ratio falls with l
    # if that is nums, and rises to the last entry of nums if it is dens.
    return max(max(map(truediv, nums, dens)), nums[-1] / dens[-1])


def _no_op(l: int, leaf: tuple) -> bool:
    # Term l and t^(l-1) at b lie below half an ulp of the (l-1)-term sums
    # at a.  Terms rise and sums grow with t, so on all of [a, b] adding
    # them changes neither sum, and R_l == R_(l-1) there in floats; the
    # same then holds for every later l.
    _, _, (nums, _), (dens, _), (_, terms), (_, powers) = leaf
    return (_at(terms, l) < 0.5 * math.ulp(_at(nums, l - 1))
            and _at(powers, l) < 0.5 * math.ulp(_at(dens, l - 1)))


def _refine_l(gamma: float, l: int, runs: List[List[float]], tol: float) -> list:
    # Brent's method for R_l on each run of leaves: (value, -l, -t) each.
    found = []
    for a, b in runs:
        t, v = golden_section_max(lambda x: _ratio(x, gamma, l), a, b, tol)
        found.append((v, -l, -t))
    return found


def _search(gamma: float, lo: int, hi: int, tol: float) -> Tuple[int, float, float]:
    """Best ``(l, t, value)`` of R_l(t) over lo <= l <= hi and 0 < t < 1.

    ``brent.bisect_cells`` keeps the leaves where some R_l may beat the
    best point evaluated, by the cell bound max_l N_l(b) / D_l(a); each l
    from lo up is refined on the runs of adjacent leaves where its own
    bound beats that value, until an l is a float no-op on every leaf
    (``_no_op``).  The result is the best point evaluated as
    ``(value, -l, -t)``; ties go to the smaller l, then the smaller t.
    """
    passes: Dict[float, tuple] = {}
    window: Dict[float, Tuple[list, list]] = {}  # N_l and D_l from l = lo on

    def visit(t: float, best: float) -> Optional[Tuple[float, int, float]]:
        r = t ** gamma
        num, den = passes[t] = _running_sums(r, r, hi), _running_sums(t, 1.0, hi)
        # Past its end, a list repeats its last entry.
        ns, ds = window[t] = num[0][lo - 1:] or num[0][-1:], den[0][lo - 1:] or den[0][-1:]
        if not (0.0 < t < 1.0 and _max_ratio(ns, ds) >= best):
            return None
        vals = list(map(truediv, ns, ds)) + [n / ds[-1] for n in ns[len(ds):]]
        v = max(vals)
        return v, -(lo + vals.index(v)), -t

    best, cells = bisect_cells(visit, lambda a, b: _max_ratio(window[b][0], window[a][1]))
    # Each leaf as (a, b, N at a, D at a, N at b, D at b), with N and D the
    # (totals, terms) of _running_sums.
    leaves = [(a, b, *passes[a], *passes[b]) for a, b in cells]
    cut = best[0]
    for l in range(lo, hi + 1):
        if l > lo and all(_no_op(l, leaf) for leaf in leaves):
            break
        kept = []
        for a, b, _, (dens, _), (nums, _), _ in leaves:
            # _at, inlined: this loop runs once per l and leaf.
            n = nums[l - 1] if l <= len(nums) else nums[-1]
            d = dens[l - 1] if l <= len(dens) else dens[-1]
            if survives(n / d, cut):
                kept.append((a, b))
        best = max([best, *_refine_l(gamma, l, runs(kept), tol)])
    value, neg_l, neg_t = best
    return -neg_l, -neg_t, value


def maximize_over_t(gamma: float, l: int, tol: float = 1e-12) -> Tuple[float, float]:
    """Global maximum of the l-term ratio over t in (0, 1).

    The search of ``best_l`` on the window {l}.  Returns
    ``(t_star, value)`` with value >= 1; when the interior stays below
    the common endpoint limit 1 (gamma > 1), the supremum 1 is reported
    at t_star = 0.  R_1 is identically 1 and is reported at an interior
    point.
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    if not gamma > 0:  # also rejects nan
        raise ValueError("gamma must be positive")
    _, t_star, value = _search(gamma, l, l, tol)
    if value < 1.0:
        return 0.0, 1.0
    return t_star, value


def best_l(gamma: float, tol: float = 1e-12) -> Tuple[int, float, float]:
    """Maximize the ratio jointly over t and the term count l.

    Starts from ``(1, 0.0, 1.0)``, the 1-term ratio R_1 = 1, searches
    the l with l * gamma >= 1 up to ceil(2/gamma) - 1 and returns
    ``(l_star, t_star, value)``; for gamma >= 1 nothing is searched.
    Ties break toward smaller l.  No l outside the window can win
    (module docstring).  At k = 1 the exact argmax is the upper edge
    2m + 1 for every m <= 15 (checked at 60 significant digits), but the
    returned l_star is 2m + 1 only up to m = 13: it is 28 and 30 at
    m = 14 and 15, where larger l tie in floats (ROADMAP item 2).
    Rounding never drops an l that the exact rules keep: the
    float ceil(2/gamma) is never below the exact ceil(2(m+1)/k) (checked
    for m, k <= 500), and an l is skipped only if the float
    l * gamma < 1 - 1e-12, which a few ulps of rounding cannot reach
    from l k >= m + 1.
    """
    if not gamma > 0:  # also rejects nan
        raise ValueError("gamma must be positive")
    hi = math.ceil(2.0 / gamma) - 1
    lo = next((l for l in range(2, hi + 1) if l * gamma >= 1.0 - 1e-12), hi + 1)
    if lo > hi:
        return 1, 0.0, 1.0
    l_star, t_star, value = _search(gamma, lo, hi, tol)
    if value > 1.0:
        return l_star, t_star, value
    return 1, 0.0, 1.0


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
    return special_functions.gamma_chi().value * math.sqrt((query.m + 1) / query.k)


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
