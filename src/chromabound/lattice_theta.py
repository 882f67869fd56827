"""Lattice theta series and the double-cap quantities they bound.

For an even integral lattice L of dimension d, the theta series is

    theta_L(t) = sum_{v in L} t^(|v|^2) = sum_{j >= 0} N_j t^(2j),

where N_j counts lattice vectors of squared norm 2j and the series
converges on [0, 1).  The associated double-cap quantity is

    mu_L = ( max_{0 < t < 1} theta_L(t) (1 - t)^d )^(-1/d),

an upper bound for the exponential rate of orthogonality-avoiding
spherical sets.  Coefficients are exact integers:

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
proven by a second best-first bisection (``_mu``): its cell bounds, from
the truncated series, its derivative and its tail bound, hold for the
full theta series, so the maximum of the full objective is proven within
tol of the one found, or at most 1 + tol on all of (0, 1) where the
lattice gives no bound.  Z (``mu_z``) uses the one closed form, theta3.
Every evaluator takes and returns Python floats.

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

from .brent import cell_search_max
from .special_functions import (
    SQRT3_OVER_2,
    _sparse_power,
    check_positive,
    check_unit_interval,
    jacobi_theta,
    jacobi_theta_and_tail,
)

DEFAULT_SERIES_LENGTH = 512

#: Rounding margin of the float tail bound ``ThetaSeries.tail_bound``.
_TAIL_MARGIN = 1.0 + 2.0 ** -30


class TailBoundError(ValueError):
    """Raised when the remainder bound cannot prove the maximum within tol:
    increase K for a series, or tol for ``mu_z``."""


class NoBoundError(ValueError):
    """Raised when theta(t)(1-t)^d, bounded from above with its tail, is
    proven at most 1 + tol on all of (0, 1), against its t -> 0 limit 1,
    so mu = 1 and the lattice gives no bound; a larger K or tol does not
    help."""


class _TolBelowMarginError(TailBoundError):
    """Raised by ``_mu`` for a tol that the rounding margin of its cell
    bounds leaves no room for; the margin grows with the series, so only
    a larger tol helps."""


class _ThetaSeriesFields(NamedTuple):
    dim: int
    coeffs: Tuple[int, ...]
    label: str = ""


class ThetaSeries(_ThetaSeriesFields):
    """Truncated theta series of an even integral lattice.

    ``coeffs[j]`` is the exact number of lattice vectors with squared
    norm 2j, for j = 0 .. K.  ``tail_bound`` works out a proven bound on
    the omitted terms from ``dim`` and ``coeffs`` alone.  The class has
    no ``__slots__``, so that its cached properties have an instance
    dictionary to live in; the fields stay read-only.
    """

    def __new__(cls, dim: int, coeffs: Tuple[int, ...], label: str = "") -> "ThetaSeries":
        if dim < 1:
            raise ValueError("dim must be a positive integer")
        if not coeffs or coeffs[0] != 1:
            raise ValueError("coefficient 0 must count exactly the zero vector")
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be nonnegative")
        return super().__new__(cls, dim, coeffs, label)

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
        """binom(d, i) (a^2/2)^(i/2) Gamma(i/2 + 1), the weights of ``_last_cell_bound``."""
        two_kp1 = 2.0 * len(self.coeffs)
        return tuple(
            w * math.gamma(0.5 * i + 1.0) / two_kp1 ** (0.5 * i)
            for i, w in enumerate(self._tail_weights)
        )

    def evaluate(self, t: float) -> float:
        """Truncated series value  sum_j N_j t^(2j)  for t in [0, 1)."""
        t = check_unit_interval(t, hi_open=True)
        u = t ** 2
        acc = 0.0
        for c in self._float_coeffs_high_first:
            acc = acc * u + c
        return acc

    def _value_and_slope(self, t: float) -> Tuple[float, float]:
        """The truncated series, bit for bit ``evaluate(t)``, and its derivative in t."""
        u = t ** 2
        acc = slope = 0.0
        for c in self._float_coeffs_high_first:
            slope = slope * u + acc
            acc = acc * u + c
        return acc, 2.0 * t * slope

    def tail_bound(self, t: float) -> float:
        """Proven upper bound on the omitted tail  sum_{j > K} N_j x^j,  x = t^2.

        Hypothesis: ``coeffs`` are the norm counts N_j = #{v in L : |v|^2 = 2j}
        of a lattice L in R^d, d = ``dim``.  Let j0 be the first j >= 1 with
        N_j > 0, or K + 1 if there is none; every nonzero norm is at least 2 j0.

        1. Differences of lattice points are lattice vectors, so the balls of
           radius rho = sqrt(2 j0)/2 about the lattice points are disjoint, and
           those about the v with |v|^2 <= 2j lie in the ball of radius
           sqrt(2j) + rho.  Comparing volumes,
           S_j = sum_{i <= j} N_i <= C_j = (1 + a sqrt(j))^d,  a = 2/sqrt(j0).
        2. Summation by parts, as S_j x^j -> 0:
           sum_{j > K} N_j x^j = (1 - x) sum_{j > K} S_j x^j - S_K x^(K+1)
                               <= (1 - x) sum_{j > K} C_j x^j.
        3. C_z rises and x^z falls in z, so C_j x^j <= x^-1 int_j^(j+1) C_z x^z dz
           and  sum_{j > K} C_j x^j <= x^-1 int_{K+1}^inf C_z x^z dz.
        4. With lam = -ln x, y = (K+1) lam and s_i = i/2 + 1, the binomial
           expansion of C_z gives
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
        lam = -2.0 * math.log(t)
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
        (1 - x)/x <= 2(1 - t)/t^2 and lam >= 2(1 - t),

            theta_L(t)(1-t)^d <= t^-2 sum_i binom(d, i) (a^2/2)^(i/2) Gamma(i/2 + 1) (1-t)^(d - i/2),

        and every term falls in t, so its value at a bounds the cell.
        """
        e = 1.0 - a
        return sum(w * e ** (self.dim - 0.5 * i) for i, w in enumerate(self._last_weights)) / (a * a)


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


def dn_series(n: int, K: int = DEFAULT_SERIES_LENGTH) -> ThetaSeries:
    """Exact D_n coefficients N_j = #{v in Z^n : |v|^2 = 2j} for j <= K.

    The counts of all squared norms are the coefficients of
    (1 + 2 sum_{c >= 1} q^(c^2))^n, raised by the power recurrence of
    ``_sparse_power``; D_n keeps the even exponents.
    """
    if n < 1 or K < 1:
        raise ValueError("n and K must be positive integers")
    limit = 2 * K
    squares = [1] + [0] * limit
    for c in range(1, math.isqrt(limit) + 1):
        squares[c * c] = 2
    coeffs = tuple(_sparse_power(squares, n, limit)[0::2])
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


#: Cells of the upper search of ``_mu`` are not split below this width.
_MIN_WIDTH = 2.0 ** -40


def _mu(
    label: str,
    dim: int,
    theta: Callable[[float], float],
    tail: Callable[[float], float],
    split: Callable[[float], Tuple[float, float, float]],
    last_bound: Callable[[float], float],
    terms: int,
    tol: float,
    remedy: str,
) -> MuResult:
    """Maximize theta(t)(1-t)^dim and prove the full objective's maximum to within ``tol``.

    theta truncates the full series F, and ``tail`` bounds F - theta.
    ``split(t)`` gives P(t), P'(t) and a bound R(t) on F(t) - P(t), for a
    P of ``terms`` nonnegative terms with F - P rising in t.
    ``last_bound(a)`` bounds F(t)(1-t)^dim on [a, 1).

    ``brent.cell_search_max`` on theta gives the maximizer and
    ``max_value``, the lower end.  The upper end, ``max_upper``, is the
    largest bound left by a best-first bisection of [0, 1).  On a cell
    [a, b], b < 1, with w(t) = (1-t)^dim, f = P w, midpoint c and
    h = (b - a)/2, the bound is

        min(P(b) w(a), f(c) + h max(U, -L, 0), f(a) + 2h max(U, 0)) + R(b) w(a):

    P and F - P rise in t, and [L, U] encloses f' on the cell, from P and
    P' (which rise too) at a and b, which gives the mean value bounds
    about c and about a.  The last cell [a, 1) takes ``last_bound(a)``.

    Rounding: each product of two point values, and each term of
    ``last_bound``, is within relative error (3 (terms + dim) + 32) 2^-53
    of its exact value (sums of nonnegative terms; powers and gamma values
    within a few ulps), below m - 1 = (4 (terms + dim) + 64) 2^-53.  So
    the terms that widen [L, U] are multiplied by m, those that narrow it
    are divided by m, and each bound is multiplied by m^2 for its sums.

    If max_value is above 1, the t -> 0 limit, the search aims at
    max_value (1 + tol), and success also needs ``tail`` below tol at the
    maximizer.  Otherwise it aims at 1 + tol, and reaching it raises
    NoBoundError: the objective is proven at most 1 + tol on (0, 1).
    Everything else raises TailBoundError, ending with ``remedy``: a tail
    at the maximizer not below tol; a visited point where (P + R) w
    exceeds the aim, the value that the bounds of ever smaller cells
    about it tend to, so they cannot close; or a cell of width
    ``_MIN_WIDTH`` above the aim.

    A tol of at most (m - 1)/4 raises ``_TolBelowMarginError`` before the
    bisection, since no cell about the maximizer could close.  Each bound
    is m^2 times a value of at least 1 - e times the full objective's
    maximum on the cell, e = (3 (terms + dim) + 32) 2^-53 < 3 (m - 1)/4,
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
    t_star, max_value = cell_search_max(
        theta, lambda t: (1.0 - t) ** dim, last_bound, xtol=1e-12
    )
    if max_value > 1.0:
        tail_at_star = tail(t_star)
        if not tail_at_star < tol:
            raise TailBoundError(
                f"tail bound {tail_at_star!r} at the maximizer is not below {tol}; {remedy}"
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
        p, slope, rest = split(t)
        w1 = (1.0 - t) ** (dim - 1)
        points[t] = p, slope, rest, w1 * (1.0 - t), w1
        if (p + rest) * points[t][3] * m > aim:
            raise TailBoundError(
                f"theta_{label}(t)(1-t)^{dim} with its tail bound exceeds {goal}"
                f" at t = {t!r}; {remedy}"
            )

    def bound(a: float, b: float) -> float:
        if b == 1.0:
            return last_bound(a) * m
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
                f"cells of width {_MIN_WIDTH!r} at t = {a!r} stay above {goal}; {remedy}"
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


def mu_lattice(series: ThetaSeries, tol: float = 1e-9) -> MuResult:
    """Maximize theta(t)(1-t)^d over (0, 1) and report mu = (max)^(-1/d).

    The truncated series is the P of ``_mu`` and ``series.tail_bound``
    its R; a TailBoundError asks for a larger K.
    """
    return _mu(
        series.label or f"dim{series.dim}",
        series.dim,
        series.evaluate,
        series.tail_bound,
        lambda t: (*series._value_and_slope(t), series.tail_bound(t)),
        series._last_cell_bound,
        len(series.coeffs),
        tol,
        "request larger K",
    )


#: First prefix length of ``mu_capped``.  At tol 1e-9 a prefix settles
#: E8 from 16 coefficients and Leech from 29, and D1..D23 on 64,
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
    proof is final too, since the margin grows with P (``_mu``).
    """
    P = min(_FIRST_PREFIX, K)
    while True:
        try:
            return mu_lattice(build(P), tol)
        except TailBoundError as exc:
            if P >= K or isinstance(exc, _TolBelowMarginError):
                raise
            P = min(2 * P, K)


#: Terms n = 1..N of theta3 that the P of ``mu_z`` sums.
_THETA3_TERMS = 32


def _theta3_split(t: float) -> Tuple[float, float, float]:
    """P(t), P'(t) and a bound on theta3(t) - P(t), for P = 1 + 2 sum_{n <= N} t^(n^2).

    The omitted terms 2 t^(n^2), n > N = ``_THETA3_TERMS``, fall by
    ratios t^(2n+1) <= t^(2N+3), so they sum to at most
    2 t^((N+1)^2) / (1 - t^(2N+3)).
    """
    n_max = _THETA3_TERMS
    value = 1.0 + 2.0 * sum(t ** (n * n) for n in range(1, n_max + 1))
    slope = 2.0 * sum(n * n * t ** (n * n - 1) for n in range(1, n_max + 1))
    return value, slope, 2.0 * t ** ((n_max + 1) ** 2) / (1.0 - t ** (2 * n_max + 3))


def _theta3_cell_bound(a: float) -> float:
    """Bound on theta3(t)(1-t) for t in [a, 1).

    theta3(q) = 1 + 2 sum_{n >= 1} e^(-lam n^2) <= 1 + sqrt(pi/lam), with
    lam = -ln q >= 1 - q, so theta3(t)(1-t) <= (1-t) + sqrt(pi (1-t)),
    which rises in 1 - t.
    """
    return (1.0 - a) + math.sqrt(math.pi * (1.0 - a))


def mu_z(tol: float = 1e-10) -> MuResult:
    """Limit quantity (max theta3(t)(1-t))^(-1) of the D_n family.

    Computed directly from theta3 rather than as an actual limit; known
    to exceed sqrt(3)/2, so it does not improve the double-cap bracket.
    ``tol`` bounds theta3's summation remainder at the maximizer and the
    relative width of the proven interval; the P of ``_mu`` is theta3
    summed to ``_THETA3_TERMS`` terms (``_theta3_split``).
    """
    return _mu(
        "Z",
        1,
        lambda t: jacobi_theta(3, t),
        lambda t: jacobi_theta_and_tail(3, t)[1],
        _theta3_split,
        _theta3_cell_bound,
        _THETA3_TERMS + 1,
        tol,
        "request a larger tol",
    )


def double_cap_compare(mu: float) -> str:
    """Classify mu against the known double-cap upper bound sqrt(3)/2.

    Returns "improvement" only for a strict improvement.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    return "improvement" if mu < SQRT3_OVER_2 else "no improvement"
