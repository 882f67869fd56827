"""Partial theta function, Jacobi theta functions, and the base constant.

The partial theta series

    theta(t) = sum_{j >= 1} t^(j(j-1)/2) = 1 + t + t^3 + t^6 + t^10 + ...

and its l-term truncation drive every bound produced by this package.
The classical Jacobi theta functions enter through the functional
equation

    theta(exp(-pi x)) = exp(pi x / 8) / sqrt(2 x) * theta4(exp(-2 pi / x)),

whose right-hand side evaluates theta(t^gamma) inside
``one_minus_t_theta_max`` wherever t^gamma > e^-pi (a few terms where
the direct series needs thousands); ``functional_equation_residual``
checks that same evaluator against the direct sum.  The growth constant

    GAMMA_CHI = sqrt(pi / 2) * max_{u > 0} (1 - exp(-u)) / sqrt(u)
              = 0.7998308498...

is the asymptotic rate extracted from it.

The public evaluators take the series argument as a Python float (an
int or a numpy scalar is converted with ``float``) and return Python
floats; ``jacobi_theta_and_tail`` returns the Jacobi value and a bound
on its truncation remainder.  They are pure functions of their
arguments, hold no shared state and never import numpy.  Their argument
checks and the stopped partial sum of ``theta_truncated`` come from
``brent``, which ``bound_engine`` shares without loading this module.
``_sparse_power``, the one exact polynomial-power kernel, raises the
Z, D_n and tau series of ``lattice_theta`` and the box counts of
``lattice_combinatorics``.  ``kupavskii_upper_base``, the base of the
known upper bound, sits beside ``INV_SQRT_2`` and ``SQRT3_OVER_2``, the
other reference constants that the ``constants`` command prints.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Sequence, Tuple

from .brent import _stopped_sum, cell_search_max, check_positive, check_unit_interval

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0
INV_SQRT_2 = 1.0 / math.sqrt(2.0)

#: Stop a series once the next term falls below this fraction of the sum.
_TERM_CUTOFF = 1e-18

_MAX_TERMS = 5_000_000

#: Switch of ``_theta_of_power`` from the direct sum to the modular side.
_MODULAR_SWITCH = math.exp(-math.pi)

#: Relative remainder allowed in the direct sum of ``_theta_of_power``.
_OBJECTIVE_TAIL_TOL = 1e-14


class GammaChiResult(NamedTuple):
    """The constant sqrt(pi/2) * max (1 - e^-u)/sqrt(u) with its maximizer."""

    value: float
    u_star: float
    inner_max: float

    def stationarity_residual(self) -> float:
        """|e^u - 1 - 2u| at the reported maximizer (0 at a true optimum)."""
        return abs(math.exp(self.u_star) - 1.0 - 2.0 * self.u_star)


def _sparse_power(g: Sequence[int], a: int, limit: int) -> List[int]:
    """Coefficients 0..limit of (1 + sum_{i >= 1} g_i q^i)^a; g[0] is taken as 1.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7), from f' g = a f g':
    n f_n = sum_{i >= 1} ((a + 1) i - n) g_i f_{n-i}, one pass over the
    nonzero g_i per coefficient.  A division by n that leaves a remainder
    raises ArithmeticError.
    """
    terms = [(i, gi) for i, gi in enumerate(g[1 : limit + 1], start=1) if gi]
    f = [1] + [0] * limit
    for n in range(1, limit + 1):
        acc = 0
        for i, gi in terms:
            if i > n:
                break
            acc += ((a + 1) * i - n) * gi * f[n - i]
        f[n], remainder = divmod(acc, n)
        if remainder:
            raise ArithmeticError(f"power recurrence is not exact at q^{n}")
    return f


def theta_truncated(t: float, gamma: float, l: int) -> float:
    """Truncated partial theta sum  sum_{j=1..l} t^(gamma * j(j-1)/2).

    The j = 1 term has exponent 0 and contributes 1.  Requires t in [0, 1]
    and l >= 1; gamma must be positive (values above 1 are allowed and
    arise for flagged, trivial bound queries).
    """
    if l < 1:
        raise ValueError("l must be a positive integer")
    check_positive(gamma, "gamma")
    r = check_unit_interval(t, hi_open=False) ** gamma
    return _stopped_sum(r, r, l)


def theta_full(t: float, gamma: float = 1.0, tail_tol: float = 1e-15) -> float:
    """Full partial theta series  sum_{j >= 1} t^(gamma * j(j-1)/2)  for t < 1.

    Terms are accumulated until the next term is below 1e-18 of the partial
    sum and an explicit geometric tail bound (consecutive term ratios are
    t^(gamma*j), decreasing in j) certifies the remainder below
    ``tail_tol`` relative to the sum.
    """
    check_positive(gamma, "gamma")
    check_positive(tail_tol, "tail_tol")
    t = check_unit_interval(t, hi_open=True)
    r = t ** gamma
    total = term = 1.0
    q = r
    for _ in range(_MAX_TERMS):
        nxt = term * q          # term j+1
        step = q * r            # ratio of term j+2 to term j+1
        if nxt < _TERM_CUTOFF * total and nxt <= tail_tol * total * (1.0 - step):
            return total
        total = total + nxt
        term, q = nxt, step
    raise RuntimeError("series did not converge within the term budget")


def jacobi_theta_and_tail(kind: int, q: float) -> Tuple[float, float]:
    """Jacobi theta2, theta3 or theta4 at nome q in [0, 1), with a tail bound.

    theta2(q) = sum_{n in Z} q^((n+1/2)^2)
    theta3(q) = sum_{n in Z} q^(n^2)
    theta4(q) = 1 + 2 sum_{n >= 1} (-1)^n q^(n^2)

    One loop sums all three: each runs over n >= 0 with paired terms
    2 q^(e_n), and the gap e_{n+1} - e_n grows by 2 per step (theta2
    starts at q^(1/4) with gap 2, theta3/theta4 at 1 with gap 1).
    Summation stops once a term drops below 1e-18 of the partial sum.
    Returns ``(value, tail)``: term ratios past the stop are below q, so
    the omitted terms sum to at most  tail = 2 |next term| / (1 - q).
    """
    if kind not in (2, 3, 4):
        raise ValueError("kind must be one of 2, 3, 4")
    q = check_unit_interval(q, hi_open=True, name="q")
    q2 = q * q
    if kind == 2:
        term = q ** 0.25  # q^((n+1/2)^2) at n = 0
        total, w, sign = 2.0 * term, q2, 1.0
    else:
        term = total = 1.0  # q^(n^2) at n = 0
        w, sign = q, (1.0 if kind == 3 else -1.0)
    s = sign
    while True:
        term = term * w
        two = 2.0 * term
        total = total + s * two
        w = w * q2
        # Past the cutoff the terms fall below half an ulp of the total,
        # which would not change again.
        if not two > _TERM_CUTOFF * abs(total):
            return total, two * w / (1.0 - q)
        s = s * sign


def jacobi_theta(kind: int, q: float) -> float:
    """Jacobi theta function theta2, theta3 or theta4 at nome q in [0, 1).

    The value of :func:`jacobi_theta_and_tail`.
    """
    return jacobi_theta_and_tail(kind, q)[0]


def _theta_modular(x: float) -> float:
    """theta(e^(-pi x)) = e^(pi x/8)/sqrt(2x) * theta4(e^(-2 pi/x)) for x > 0."""
    return (
        math.exp(math.pi * x / 8.0) / math.sqrt(2.0 * x)
        * jacobi_theta(4, math.exp(-2.0 * math.pi / x))
    )


def _theta_of_power(t: float, gamma: float) -> float:
    """theta(s) at s = t^gamma for a float t in [0, 1), with x = -ln(s)/pi.

    Each point is summed on the side of the functional equation that
    ends within a few terms there; the switch ``s = e^-pi`` (x = 1)
    follows from two inequalities, not from tuning:

    - s <= e^-pi: the direct sum ``theta_full(s)``.  Term j is
      s^(j(j-1)/2) <= e^(-pi j(j-1)/2), so term 6 is below
      e^(-15 pi) < 1e-20 and the sum stops after at most 5 terms.
    - s > e^-pi: the modular side, whose nome q = e^(-2 pi/x) is below
      e^(-2 pi) < 1.9e-3.  Then 2 q^9 < 1e-24 and theta4 stops within 3
      terms of its series.

    x is taken as -gamma ln(t)/pi rather than from the rounded s, which
    would cost relative accuracy ~1e-16/x as t nears 1.
    """
    t = check_unit_interval(t, hi_open=True)
    s = t ** gamma
    if s <= _MODULAR_SWITCH:
        return theta_full(s, 1.0, _OBJECTIVE_TAIL_TOL)
    return _theta_modular(-gamma * math.log(t) / math.pi)


def functional_equation_residual(x: float) -> float:
    """|theta(e^(-pi x)) - e^(pi x/8)/sqrt(2x) * theta4(e^(-2 pi/x))| for x > 0.

    The right-hand side is the modular evaluator behind
    :func:`one_minus_t_theta_max`; the left-hand side is the direct sum.
    """
    check_positive(x, "x")
    return abs(theta_full(math.exp(-math.pi * x), 1.0, 1e-16) - _theta_modular(float(x)))


def gamma_chi(tol: float = 1e-12) -> GammaChiResult:
    """The constant sqrt(pi/2) * max_{u>0} (1 - e^-u)/sqrt(u).

    The maximizer satisfies e^u = 1 + 2u; the root is bracketed on
    (0, 10) by bisection and polished by Newton steps, which gives a
    checkable stationarity residual rather than a bare maximization.
    """
    check_positive(tol, "tol")

    def g(u: float) -> float:
        return math.exp(u) - 1.0 - 2.0 * u

    lo, hi = 1e-3, 10.0
    if not (g(lo) < 0 < g(hi)):  # pragma: no cover - fixed bracket
        raise RuntimeError("stationarity bracket lost")
    while hi - lo > max(tol, 1e-14):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    u = 0.5 * (lo + hi)
    for _ in range(6):
        u = u - g(u) / (math.exp(u) - 2.0)
    inner = (1.0 - math.exp(-u)) / math.sqrt(u)
    return GammaChiResult(value=math.sqrt(math.pi / 2.0) * inner, u_star=u, inner_max=inner)


def kupavskii_upper_base(m: int) -> float:
    """Base 2(sqrt(m) + 1) of the known upper bound for chi(R^n, A_m)."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return 2.0 * (math.sqrt(m) + 1.0)


def one_minus_t_theta_max(gamma: float, tol: float = 1e-12) -> Tuple[float, float]:
    """Supremum of (1 - t) * theta(t^gamma) over t in (0, 1).

    Returns ``(t_star, value)``.  For gamma >= 1 the supremum is the
    t -> 0 limit 1, reported at t_star = 0: term by term
    theta(t^gamma) <= theta(t) = sum t^(j(j-1)/2) <= sum t^(j-1) =
    1/(1-t), since j(j-1)/2 >= j - 1.  For gamma < 1 the objective
    exceeds 1 and is maximized by ``brent.cell_search_max``, down to
    ``tol``, with two proven cell bounds:

    - on [a, b] with b < 1,  (1-t) theta(t^gamma) <= (1-a) theta(b^gamma),
      since theta rises with its argument and 1 - t falls;
    - on [a, 1),  (1-t) theta(t^gamma) <= (1-a) + sqrt(pi (1-a) / (2 gamma)),
      since theta(s) <= 1 + sum_{n >= 1} e^(-lam n^2/2) <= 1 + sqrt(pi/(2 lam))
      with lam = -ln s = -gamma ln t >= gamma (1-t).

    The search's slack also covers the float seam at s = e^-pi, where the
    evaluator switches sides.  The result is the best point evaluated,
    ties going to the smaller t.

    theta(t^gamma) comes from the functional equation: the direct sum
    where t^gamma <= e^-pi (at most 5 terms) and
    e^(pi x/8)/sqrt(2x) * theta4(e^(-2 pi/x)), x = -gamma ln(t)/pi,
    above it (at most 3 theta4 terms), so no point sums the thousands
    of terms the direct series needs as t nears 1.
    """
    check_positive(gamma, "gamma")
    check_positive(tol, "tol")
    if gamma >= 1.0:
        return 0.0, 1.0
    return cell_search_max(
        lambda t: _theta_of_power(t, gamma),
        lambda t: 1.0 - t,
        lambda a: (1.0 - a) + math.sqrt(math.pi * (1.0 - a) / (2.0 * gamma)),
        tol,
    )
