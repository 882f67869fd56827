"""Lattice theta series and the double-cap quantities they bound.

For an integral lattice L of dimension d whose squared norms are
multiples of a step s (2 for an even lattice, 1 for Z), the theta series
is

    theta_L(t) = sum_{v in L} t^(|v|^2) = sum_{j >= 0} N_j t^(s j),

where N_j counts lattice vectors of squared norm s j and the series
converges on [0, 1).  The associated double-cap quantity is

    mu_L = ( max_{0 < t < 1} theta_L(t) (1 - t)^d )^(-1/d),

an upper bound for the exponential rate of orthogonality-avoiding
spherical sets.  Coefficients are exact integers:

  * Z:     r_1(j), 1 at j = 0 and 2 at each nonzero square; its mu is the
           limit of the D_n family.
  * D_n:   vectors of Z^n with even squared norm, the even part of
           (1 + 2 sum_c q^(c^2))^n.
  * E8:    N_j = 240 * sigma_3(j).
  * Leech: N_j = (65520 / 691) * (sigma_11(j) - tau(j)), with tau the
           coefficients of q * prod (1 - q^n)^24; the division by 691 is
           exact, and anything else is a hard failure.

D_n and tau are powers of sparse series, expanded by the package's exact
power recurrence (``special_functions._sparse_power``) in
O(K * nonzero terms) integer steps, so no lattice runs the combinatorics
layer.

mu is maximized in pure Python by ``brent.cell_search_max``, a best-first
bisection of [0, 1) with proven cell bounds and Brent refinement, and
proven by a second best-first bisection (``mu_lattice``): its cell
bounds, from the truncated series, its derivative and its tail bound,
hold for the full theta series, so the maximum of the full objective is
proven within tol of the one found, or at most 1 + tol on all of (0, 1)
where the lattice gives no bound.  Every evaluator takes and returns
Python floats.

A requested series length K is a cap (``mu_capped``): the series is built
to 64 coefficients, and doubled up to K only while it does not settle
the proof, since a few dozen coefficients already settle most lattices.

Series objects are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from typing import Callable, List, NamedTuple, Tuple

from .brent import cell_search_max, check_positive, check_unit_interval
from .special_functions import SQRT3_OVER_2, _sparse_power

DEFAULT_SERIES_LENGTH = 512

#: Rounding margin of the float tail bound ``ThetaSeries.tail_bound``.
_TAIL_MARGIN = 1.0 + 2.0 ** -30


class TailBoundError(ValueError):
    """Raised when the remainder bound cannot prove the maximum within tol:
    increase K."""


class NoBoundError(ValueError):
    """Raised when theta(t)(1-t)^d, bounded from above with its tail, is
    proven at most 1 + tol on all of (0, 1), against its t -> 0 limit 1,
    so mu = 1 and the lattice gives no bound; a larger K or tol does not
    help."""


class _TolBelowMarginError(TailBoundError):
    """Raised by ``mu_lattice`` for a tol that the rounding margin of its
    cell bounds leaves no room for; the margin grows with the series, so
    only a larger tol helps."""


class _ThetaSeriesFields(NamedTuple):
    dim: int
    coeffs: Tuple[int, ...]
    label: str = ""
    step: int = 2


class ThetaSeries(_ThetaSeriesFields):
    """Truncated theta series of an integral lattice with a norm step.

    Every squared norm of the lattice is a multiple of ``step`` (2 for an
    even lattice, 1 for Z), and ``coeffs[j]`` is the exact number of
    lattice vectors with squared norm ``step * j``, for j = 0 .. K.
    ``tail_bound`` works out a proven bound on the omitted terms from
    ``dim``, ``coeffs`` and ``step`` alone.  The class has no
    ``__slots__``, so that its cached properties have an instance
    dictionary to live in; the fields stay read-only.
    """

    def __new__(
        cls, dim: int, coeffs: Tuple[int, ...], label: str = "", step: int = 2
    ) -> "ThetaSeries":
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        if step < 1:
            raise ValueError("step must be a positive integer")
        if not coeffs or coeffs[0] != 1:
            raise ValueError("coefficient 0 must count exactly the zero vector")
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        return super().__new__(cls, dim, coeffs, label, step)

    @classmethod
    def _make(cls, iterable) -> "ThetaSeries":
        # _replace builds its record here; validate it like any other.
        return cls(*iterable)

    @cached_property
    def _float_coeffs_high_first(self) -> Tuple[float, ...]:
        return tuple(float(c) for c in reversed(self.coeffs))

    @cached_property
    def _tail_weights(self) -> Tuple[float, ...]:
        """binom(d, i) (a sqrt(K+1))^i for i = 0..d, the weights of ``tail_bound``."""
        kp1 = len(self.coeffs)
        j0 = next((j for j in range(1, kp1) if self.coeffs[j]), kp1)
        b = 2.0 * math.sqrt(kp1 / j0)  # a sqrt(K+1)
        return tuple(math.comb(self.dim, i) * b ** i for i in range(self.dim + 1))

    @cached_property
    def _last_weights(self) -> Tuple[float, ...]:
        """binom(d, i) (a^2/step)^(i/2) Gamma(i/2 + 1), the weights of ``_last_cell_bound``."""
        step_kp1 = self.step * len(self.coeffs)
        return tuple(
            w * math.gamma(0.5 * i + 1.0) / step_kp1 ** (0.5 * i)
            for i, w in enumerate(self._tail_weights)
        )

    def evaluate(self, t: float) -> float:
        """Truncated series value  sum_j N_j t^(step j)  for t in [0, 1)."""
        t = check_unit_interval(t, hi_open=True)
        u = t ** self.step
        acc = 0.0
        for c in self._float_coeffs_high_first:
            acc = acc * u + c
        return acc

    def _value_and_slope(self, t: float) -> Tuple[float, float]:
        """The truncated series, bit for bit ``evaluate(t)``, and its derivative in t."""
        u = t ** self.step
        acc = slope = 0.0
        for c in self._float_coeffs_high_first:
            slope = slope * u + acc
            acc = acc * u + c
        return acc, self.step * t ** (self.step - 1) * slope

    def tail_bound(self, t: float) -> float:
        """Proven upper bound on the omitted tail  sum_{j > K} N_j x^j,  x = t^s,  s = ``step``.

        Hypothesis: ``coeffs`` are the norm counts N_j = #{v in L : |v|^2 = s j}
        of a lattice L in R^d, d = ``dim``, whose squared norms are all
        multiples of s.  Let j0 be the first j >= 1 with N_j > 0, or K + 1 if
        there is none; every nonzero norm is at least s j0.

        1. Differences of lattice points are lattice vectors, so the balls of
           radius rho = sqrt(s j0)/2 about the lattice points are disjoint, and
           those about the v with |v|^2 <= s j lie in the ball of radius
           sqrt(s j) + rho.  Comparing volumes, where s cancels,
           S_j = sum_{i <= j} N_i <= C_j = (1 + a sqrt(j))^d,  a = 2/sqrt(j0).
        2. Summation by parts, as S_j x^j -> 0:
           sum_{j > K} N_j x^j = (1 - x) sum_{j > K} S_j x^j - S_K x^(K+1)
                               <= (1 - x) sum_{j > K} C_j x^j.
        3. C_z rises and x^z falls in z, so C_j x^j <= x^-1 int_j^(j+1) C_z x^z dz
           and  sum_{j > K} C_j x^j <= x^-1 int_{K+1}^inf C_z x^z dz.
        4. With lam = -ln x = -s ln t, y = (K+1) lam and s_i = i/2 + 1, the
           binomial expansion of C_z gives
           int_{K+1}^inf C_z x^z dz = sum_{i=0..d} binom(d, i) a^i lam^(-s_i) Gamma(s_i, y),
           upper incomplete gamma values at half-integer shapes, from
           Gamma(1/2, y) = sqrt(pi) erfc(sqrt y), Gamma(1, y) = e^-y and
           Gamma(s+1, y) = s Gamma(s, y) + y^s e^-y.  They are held as
           H(s) = e^y Gamma(s, y) / y^(s-1), so that H(s+1) = s H(s)/y + 1;
           where e^y would overflow (y >= 700), H(1/2) takes its upper
           bound 1, from Gamma(1/2, y) <= y^(-1/2) e^-y.

        Together, with (1 - x)/x = expm1(lam), the tail is at most

            B(x) = expm1(lam)/lam * e^-y * sum_i binom(d, i) (a sqrt(K+1))^i H(s_i),

        a sum of positive terms, finite on [0, 1) and 0 at t = 0.  It is
        evaluated in log space and multiplied by the rounding margin
        ``_TAIL_MARGIN`` = 1 + 2^-30, which exceeds the float error of the
        d + 1 positive terms and of e^-y (y < 3000 wherever the result is a
        normal float), so the returned value is at least B(x).  A float sum
        that overflows gives inf, the safe side.
        """
        t = check_unit_interval(t, hi_open=True)
        if t == 0.0:
            return 0.0
        lam = -self.step * math.log(t)
        y = len(self.coeffs) * lam
        try:
            h_half = (
                math.sqrt(math.pi * y) * math.exp(y) * math.erfc(math.sqrt(y))
                if y < 700.0
                else 1.0
            )
            # h[i % 2] = H(s_i - 1): H(1/2) starts the odd i, and the even i
            # start from H(1) = 0 * H(0)/y + 1, so H(0) needs no value.
            h = [0.0, h_half]
            total = 0.0
            for i, weight in enumerate(self._tail_weights):
                h[i % 2] = (0.5 * i) * h[i % 2] / y + 1.0
                total += weight * h[i % 2]
            log_tail = math.log(total) - y + lam + math.log(-math.expm1(-lam)) - math.log(lam)
            return math.exp(log_tail) * _TAIL_MARGIN
        except OverflowError:
            return math.inf

    def _last_cell_bound(self, a: float) -> float:
        """Bound on theta_L(t)(1-t)^d over [a, 1), 0 < a < 1, under ``tail_bound``'s hypothesis.

        By its steps 1-3 from j = 0, theta_L(t) = (1 - x) sum_{j >= 0} S_j x^j
        <= (1 - x)/x int_0^inf C_z x^z dz, and the binomial expansion of C_z
        gives sum_i binom(d, i) a^i Gamma(i/2 + 1) lam^-(i/2 + 1).  With
        s = ``step``, (1 - x)/x = (1 - t^s)/t^s <= s(1 - t)/t^s and
        lam = -s ln t >= s(1 - t),

            theta_L(t)(1-t)^d <= t^-s sum_i binom(d, i) (a^2/s)^(i/2) Gamma(i/2 + 1) (1-t)^(d - i/2),

        and every term falls in t, so its value at a bounds the cell.
        """
        e = 1.0 - a
        # a^s by multiplication: a ** 2 can differ from a * a in the last bit.
        return sum(w * e ** (self.dim - 0.5 * i) for i, w in enumerate(self._last_weights)) / (
            math.prod((a,) * self.step)
        )


class MuResult(NamedTuple):
    """Double-cap quantity mu = (max theta(t)(1-t)^d)^(-1/d) with maximizer.

    ``max_value`` is the truncated series' maximum, at ``t_star``, and
    ``max_upper`` a proven upper bound on the maximum of the full
    objective, within relative ``tol`` of it.  ``tail_bound`` bounds the
    series truncation error of theta at ``t_star``.
    """

    lattice_label: str
    dim: int
    t_star: float
    mu: float
    max_value: float
    tail_bound: float
    max_upper: float


def z_series(K: int = DEFAULT_SERIES_LENGTH) -> ThetaSeries:
    """Exact Z coefficients r_1(j) = #{c in Z : c^2 = j} for j <= K, at norm step 1."""
    if K < 1:
        raise ValueError("K must be a positive integer")
    coeffs = [1] + [0] * K
    for c in range(1, math.isqrt(K) + 1):
        coeffs[c * c] = 2
    return ThetaSeries(dim=1, coeffs=tuple(coeffs), label="Z", step=1)


def dn_series(n: int, K: int = DEFAULT_SERIES_LENGTH) -> ThetaSeries:
    """Exact D_n coefficients N_j = #{v in Z^n : |v|^2 = 2j} for j <= K.

    The counts of all squared norms are the coefficients of Z's series to
    the power n, raised by the power recurrence of ``_sparse_power``; D_n
    keeps the even exponents.
    """
    if n < 1 or K < 1:
        raise ValueError("n and K must be positive integers")
    coeffs = tuple(_sparse_power(z_series(2 * K).coeffs, n, 2 * K)[0::2])
    return ThetaSeries(dim=n, coeffs=coeffs, label=f"D{n}")


def _divisor_power_sums(K: int, power: int) -> List[int]:
    sums = [0] * (K + 1)
    for d in range(1, K + 1):
        step = d ** power
        for j in range(d, K + 1, d):
            sums[j] += step
    return sums


def e8_series(K: int = DEFAULT_SERIES_LENGTH) -> ThetaSeries:
    """E8 theta coefficients N_0 = 1, N_j = 240 * sigma_3(j)."""
    if K < 1:
        raise ValueError("K must be a positive integer")
    sigma3 = _divisor_power_sums(K, 3)
    coeffs = (1,) + tuple(240 * sigma3[j] for j in range(1, K + 1))
    return ThetaSeries(dim=8, coeffs=coeffs, label="E8")


def ramanujan_tau(K: int) -> List[int]:
    """tau(1..K) from the exact integer expansion of q * prod (1 - q^n)^24.

    prod (1 - q^n)^24 is the 8th power of Jacobi's sparse series
    prod (1 - q^n)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2), raised by the
    power recurrence of ``_sparse_power``; index 0 of the result is
    unused.
    """
    if K < 1:
        raise ValueError("K must be a positive integer")
    limit = K - 1
    jacobi_cube = [0] * (limit + 1)
    for k in range((math.isqrt(8 * limit + 1) + 1) // 2):  # k(k+1)/2 <= limit
        jacobi_cube[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
    return [0] + _sparse_power(jacobi_cube, 8, limit)


def leech_series(K: int = DEFAULT_SERIES_LENGTH) -> ThetaSeries:
    """Leech lattice coefficients N_j = (65520/691)(sigma_11(j) - tau(j)).

    The division must come out exact; a nonzero remainder means the tau
    expansion is wrong and raises immediately.
    """
    if K < 1:
        raise ValueError("K must be a positive integer")
    sigma11 = _divisor_power_sums(K, 11)
    tau = ramanujan_tau(K)
    coeffs = [1]
    for j in range(1, K + 1):
        numerator = 65520 * (sigma11[j] - tau[j])
        quotient, remainder = divmod(numerator, 691)
        if remainder:
            raise ArithmeticError(
                f"65520 * (sigma11({j}) - tau({j})) is not divisible by 691; "
                "tau expansion is inconsistent"
            )
        coeffs.append(quotient)
    return ThetaSeries(dim=24, coeffs=tuple(coeffs), label="Leech")


#: Cells of the upper search of ``mu_lattice`` are not split below this width.
_MIN_WIDTH = 2.0 ** -40


def mu_lattice(series: ThetaSeries, tol: float = 1e-9) -> MuResult:
    """Maximize theta(t)(1-t)^d, prove its maximum within ``tol``, and report mu = (max)^(-1/d).

    P is the truncated series, of terms = K + 1 nonnegative terms, and
    R = ``series.tail_bound`` bounds F - P, where the full series F adds
    nonnegative terms to P, so F - P rises in t.

    ``brent.cell_search_max`` on P gives the maximizer and ``max_value``,
    the lower end.  The upper end, ``max_upper``, is the largest bound
    left by a best-first bisection of [0, 1).  On a cell [a, b], b < 1,
    with w(t) = (1-t)^d, f = P w, midpoint c and h = (b - a)/2, the bound
    is

        min(P(b) w(a), f(c) + h max(U, -L, 0), f(a) + 2h max(U, 0)) + R(b) w(a):

    P and F - P rise in t, and [L, U] encloses f' on the cell, from P and
    P' (which rise too) at a and b, which gives the mean value bounds
    about c and about a.  The last cell [a, 1) takes
    ``series._last_cell_bound(a)``.

    Rounding: each product of two point values, and each term of the
    last cell bound, is within relative error (3 (terms + d) + 32) 2^-53
    of its exact value (sums of nonnegative terms; powers and gamma values
    within a few ulps), below m - 1 = (4 (terms + d) + 64) 2^-53.  So
    the terms that widen [L, U] are multiplied by m, those that narrow it
    are divided by m, and each bound is multiplied by m^2 for its sums.

    If max_value is above 1, the t -> 0 limit, the search aims at
    max_value (1 + tol), and success also needs R below tol at the
    maximizer.  Otherwise it aims at 1 + tol, and reaching it raises
    NoBoundError: the objective is proven at most 1 + tol on (0, 1).
    Everything else raises TailBoundError, asking for a larger K: R at
    the maximizer not below tol; a visited point where (P + R) w exceeds
    the aim, the value that the bounds of ever smaller cells about it
    tend to, so they cannot close; or a cell of width ``_MIN_WIDTH``
    above the aim.

    A tol of at most (m - 1)/4 raises ``_TolBelowMarginError`` before the
    bisection, since no cell about the maximizer could close.  Each bound
    is m^2 times a value of at least 1 - e times the full objective's
    maximum on the cell, e = (3 (terms + d) + 32) 2^-53 < 3 (m - 1)/4,
    and max_value is at most 1 + e times the full objective at t_star.
    So every cell about t_star keeps a bound of at least
    max_value m^2 (1 - e)/(1 + e) >= max_value (1 + (m - 1)/2 - 3 (m - 1)^2),
    above the aim max_value (1 + tol), as m - 1 < 1/12 and
    tol <= (m - 1)/4.  Where max_value is at most 1, the
    cells about t = 0, where the objective is 1, keep a bound of at least
    m^2 (1 - e) > 1 + tol the same way.  m grows with ``terms``, so a
    longer series fails too.
    """
    check_positive(tol, "tol")
    label, dim, terms = series.label or f"dim{series.dim}", series.dim, len(series.coeffs)
    t_star, max_value = cell_search_max(
        series.evaluate, lambda t: (1.0 - t) ** dim, series._last_cell_bound, xtol=1e-12
    )
    if max_value > 1.0:
        tail_at_star = series.tail_bound(t_star)
        if not tail_at_star < tol:
            raise TailBoundError(
                f"tail bound {tail_at_star!r} at the maximizer is not below {tol}; request larger K"
            )
        aim, goal = max_value * (1.0 + tol), f"the maximum {max_value!r} times 1 + {tol}"
    else:
        aim, goal = 1.0 + tol, f"1 + {tol}"
    m = 1.0 + (4 * (terms + dim) + 64) * 2.0 ** -53
    if not tol > (m - 1.0) / 4.0:
        raise _TolBelowMarginError(
            f"tol {tol} is at most {(m - 1.0) / 4.0!r}, a quarter of the rounding margin"
            f" of the cell bounds at {terms} terms; request a larger tol"
        )
    points = {}  # t -> P, P', R, w, (1-t)^(dim-1)

    def visit(t: float) -> None:
        p, slope = series._value_and_slope(t)
        rest = series.tail_bound(t)
        w1 = (1.0 - t) ** (dim - 1)
        points[t] = p, slope, rest, w1 * (1.0 - t), w1
        if (p + rest) * points[t][3] * m > aim:
            raise TailBoundError(
                f"theta_{label}(t)(1-t)^{dim} with its tail bound exceeds {goal}"
                f" at t = {t!r}; request larger K"
            )

    def bound(a: float, b: float) -> float:
        if b == 1.0:
            return series._last_cell_bound(a) * m
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        visit(c)
        (pa, sa, _, wa, w1a), (pb, sb, rb, wb, w1b) = points[a], points[b]
        rise = sb * wa * m - dim * pa * w1b / m
        fall = dim * pb * w1a * m - sa * wb / m
        mean = points[c][0] * points[c][3] + h * max(rise, fall, 0.0)
        return (min(pb * wa, mean, pa * wa + 2.0 * h * max(rise, 0.0)) + rb * wa) * m * m

    visit(0.0)
    cells = [(-math.inf, 0.0, 1.0)]  # (-bound, a, b)
    while -cells[0][0] > aim:
        _, a, b = heapq.heappop(cells)
        if b - a <= _MIN_WIDTH:
            raise TailBoundError(
                f"cells of width {_MIN_WIDTH!r} at t = {a!r} stay above {goal}; request larger K"
            )
        mid = 0.5 * (a + b)
        if b == 1.0:
            visit(mid)
        for lo, hi in ((a, mid), (mid, b)):
            heapq.heappush(cells, (-bound(lo, hi), lo, hi))
    if not max_value > 1.0:
        raise NoBoundError(
            f"theta_{label}(t)(1-t)^{dim} has maximum {max_value!r}, not above its t -> 0"
            f" limit 1, and theta plus its tail bound keeps it at most 1 + {tol} on all"
            " of (0, 1), so mu = 1 gives no bound"
        )
    mu = max_value ** (-1.0 / dim)
    return MuResult(label, dim, t_star, mu, max_value, tail_at_star, -cells[0][0])


#: First prefix length of ``mu_capped``.  At tol 1e-9 a prefix settles
#: E8 from 16 coefficients and Leech from 29, and Z, D1..D23 on 64,
#: D24..D34 on 128, D35..D48 on 256 and D49..D64 on 512.
_FIRST_PREFIX = 64


def mu_capped(build: Callable[[int], ThetaSeries], K: int, tol: float = 1e-9) -> MuResult:
    """``mu_lattice`` on the shortest doubling prefix that settles it, at most K long.

    ``build(P)`` is the series truncated at P.  P starts at min(64, K) and
    after each TailBoundError doubles, capped at K; at P = K the error
    propagates unchanged, so it is that of ``mu_lattice(build(K), tol)``.
    A success at P is the same claim as at K: theta_P + tail_P bounds
    theta_L for every P, since theta_P sums the first P + 1 terms exactly
    and tail_P bounds the rest, so ``max_upper`` bounds the maximum of
    the untruncated objective, and ``tail_bound`` is below tol.  A
    NoBoundError at any P is final for the same reason: it proves the
    untruncated objective at most 1 + tol on all of (0, 1), which no
    longer prefix can overturn.  A tol below the rounding margin of the
    proof is final too, since the margin grows with P (``mu_lattice``).
    """
    P = min(_FIRST_PREFIX, K)
    while True:
        try:
            return mu_lattice(build(P), tol)
        except TailBoundError as exc:
            if P >= K or isinstance(exc, _TolBelowMarginError):
                raise
            P = min(2 * P, K)


def mu_z(tol: float = 1e-10, K: int = DEFAULT_SERIES_LENGTH) -> MuResult:
    """Limit quantity (max theta3(t)(1-t))^(-1) of the D_n family.

    theta3 is Z's theta series, so this is ``mu_capped`` on ``z_series``
    with the cap K, like any other lattice.  Known to exceed sqrt(3)/2,
    so it does not improve the double-cap bracket.
    """
    return mu_capped(z_series, K, tol)


def double_cap_compare(mu: float) -> str:
    """Classify mu against the known double-cap upper bound sqrt(3)/2.

    Returns "improvement" only for a strict improvement.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    return "improvement" if mu < SQRT3_OVER_2 else "no improvement"
