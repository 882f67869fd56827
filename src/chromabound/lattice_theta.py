"""Lattice theta series and the double-cap quantities they bound.

For an even integral lattice L of dimension d, the theta series is

    theta_L(t) = sum_{v in L} t^(|v|^2) = sum_{j >= 0} N_j t^(2j),

where N_j counts lattice vectors of squared norm 2j and the series
converges on [0, 1).  The associated double-cap quantity is

    mu_L = ( max_{0 < t < 1} theta_L(t) (1 - t)^d )^(-1/d),

an upper bound for the exponential rate of orthogonality-avoiding
spherical sets.  Coefficients are exact integers:

  * D_n:   vectors of Z^n with even squared norm, the even part of
           (1 + 2 sum_c q^(c^2))^n;
           closed form theta_{D_n}(t) = (theta3(t)^n + theta4(t)^n) / 2.
  * E8:    N_j = 240 * sigma_3(j).
  * Leech: N_j = (65520 / 691) * (sigma_11(j) - tau(j)), with tau the
           coefficients of q * prod (1 - q^n)^24; the division by 691 is
           exact, and anything else is a hard failure.

D_n and tau are powers of sparse series, expanded by the package's exact
power recurrence (``lattice_combinatorics._sparse_power``) in
O(K * nonzero terms) integer steps.

mu is maximized in pure Python by ``brent.cell_search_max``, a best-first
bisection of [0, 1) with proven cell bounds and Brent refinement, and
certified afterwards on ``GRID``, 4096 fixed points of (0, 1) whose
tail bounds are evaluated lazily (``_mu``).  Every evaluator takes and
returns Python floats.

Series objects are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Tuple

from .brent import _SLACK, cell_search_max
from .lattice_combinatorics import _sparse_power
from .special_functions import (
    SQRT3_OVER_2,
    check_unit_interval,
    jacobi_theta,
    jacobi_theta_and_tail,
)

DEFAULT_SERIES_LENGTH = 512

#: Rounding margin of the float tail bounds (``ThetaSeries.tail_bound``, ``mu_dn``).
_TAIL_MARGIN = 1.0 + 2.0 ** -30


class TailBoundError(ValueError):
    """Raised when a truncated series cannot certify its tail; increase K.

    ``mu_dn`` raises it too when theta_{D_n} leaves the float range.
    """


class NoBoundError(ValueError):
    """Raised when theta(t)(1-t)^d, bounded from above with its tail,
    exceeds its t -> 0 limit 1 at no grid point, so mu = 1 and the
    lattice gives no bound; a larger K or tol does not help."""


@dataclass(frozen=True)
class ThetaSeries:
    """Truncated theta series of an even integral lattice.

    ``coeffs[j]`` is the exact number of lattice vectors with squared
    norm 2j, for j = 0 .. K.  ``tail_bound`` works out a proven bound on
    the omitted terms from ``dim`` and ``coeffs`` alone.
    """

    dim: int
    coeffs: Tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not self.coeffs or self.coeffs[0] != 1:
            raise ValueError("coefficient 0 must count exactly the zero vector")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative")

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

    def evaluate(self, t: float) -> float:
        """Truncated series value  sum_j N_j t^(2j)  for t in [0, 1)."""
        t = check_unit_interval(t, hi_open=True)
        u = t ** 2
        acc = 0.0
        for c in self._float_coeffs_high_first:
            acc = acc * u + c
        return acc

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

            expm1(lam)/lam * e^-y * sum_i binom(d, i) (a sqrt(K+1))^i H(s_i),

        a sum of positive terms, finite on [0, 1) and 0 at t = 0.  It is
        evaluated in log space and multiplied by the rounding margin
        ``_TAIL_MARGIN`` = 1 + 2^-30, which exceeds the float error of the
        d + 1 positive terms and of e^-y (y < 3000 wherever the result is a
        normal float).  A float sum that overflows gives inf, the safe side.
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


@dataclass(frozen=True)
class MuResult:
    """Double-cap quantity mu = (max theta(t)(1-t)^d)^(-1/d) with maximizer.

    ``tail_bound`` certifies the series truncation error of theta at the
    reported maximizer.
    """

    lattice_label: str
    dim: int
    t_star: float
    mu: float
    max_value: float
    tail_bound: float


def dn_theta(n: int, t: float) -> float:
    """Theta series of D_n, the even-norm vectors of Z^n.

    Equals (theta3(t)^n + theta4(t)^n) / 2; the odd-norm contributions of
    theta3^n cancel against theta4^n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    t3 = jacobi_theta(3, t)
    t4 = jacobi_theta(4, t)
    return 0.5 * (t3 ** n + t4 ** n)


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


#: Remedy named by the closed forms' TailBoundError: they have no K.
_LARGER_TOL = "request a larger tol"


#: The 4096 equispaced interior points of (0, 1): the certification
#: points of ``_mu`` and the scan of ``optimize``.  Computed as
#: numpy.linspace(0, 1, 4098)[1:-1] computes them, i * (1/4097);
#: (i + 1)/4097 rounds differently at some points.
GRID = tuple((i + 1) * (1.0 / 4097) for i in range(4096))

#: Grid points that share one theta bound in ``_exceeds_one``.
_BLOCK = 16


def _exceeds_one(
    theta: Callable[[float], float], tail: Callable[[float], float], dim: int
) -> bool:
    """Whether theta(t) w + tail(t) w > 1 in floats, w = (1-t)^dim, at some grid point.

    theta rises in t, so theta at the last point of a block of
    ``_BLOCK`` grid points, times 1 + ``_SLACK`` (the search's margin for
    float rounding), bounds theta on the block.  Float rounding is
    monotone, so a point where the bound in place of theta keeps the sum
    at most 1 is settled without its own theta.  For a ``ThetaSeries``
    the float Horner sum itself is monotone in t (nonnegative coefficients),
    so the skip never changes the answer.
    """
    for start in range(0, len(GRID), _BLOCK):
        block = GRID[start : start + _BLOCK]
        hi = theta(block[-1]) * (1.0 + _SLACK)
        for t in block:
            w = (1.0 - t) ** dim
            rest = tail(t) * w
            if hi * w + rest > 1.0 and theta(t) * w + rest > 1.0:
                return True
    return False


def _mu(
    label: str,
    dim: int,
    theta: Callable[[float], float],
    tail: Callable[[float], float],
    last_bound: Callable[[float], float],
    tol: float,
    remedy: str,
) -> MuResult:
    """Maximize theta(t)(1-t)^dim where theta's remainder ``tail`` is below ``tol``.

    The maximizer comes from ``brent.cell_search_max``, so it does not
    depend on ``tail``.  Its cell bounds: theta has nonnegative
    coefficients, so it rises in t, and on [a, b] with b < 1 the
    objective is at most theta(b)(1-a)^dim; on the last cell [a, 1) it is
    at most ``last_bound(a)``, which each caller proves for its theta.

    Certification is a check on the result, taken on ``GRID``: the grid
    points before the first one whose tail is not below ``tol`` are
    certified.  ``tail`` is evaluated lazily, in grid order: on the first
    3 points, then on to the first certified point past the maximizer, or
    to the first uncertified point.

    A maximum not above 1, the t -> 0 limit, gives no bound.  It raises
    NoBoundError if theta + tail, an upper bound on the untruncated
    theta, keeps the objective at most 1 on the whole grid
    (``_exceeds_one``, which takes the tail at every grid point; D_n for
    n <= 5 from the closed form, or from a long enough series); otherwise
    a larger value past the certified region is not ruled out and it
    raises TailBoundError.  Fewer than 3 certified points, a maximizer
    not strictly between the first and the last certified point, or a
    tail at the maximizer that is not below ``tol`` raise TailBoundError
    as well.  Each TailBoundError but the last ends with ``remedy``, the
    caller's way to certify more of the grid.
    """
    if not tol > 0:  # also rejects nan
        raise ValueError("tol must be positive")
    grid = GRID
    tails: List[float] = []  # tail on grid[0], grid[1], ..., up to the first not below tol

    def certified(n: int) -> int:
        """Scan the tail on to the first n grid points; the points certified so far."""
        while len(tails) < n and (not tails or tails[-1] < tol):
            tails.append(tail(grid[len(tails)]))
        return len(tails) - (not tails[-1] < tol)

    count = certified(3)
    if count < 3:
        raise TailBoundError(
            f"tail bound below {tol} on too small a region; {remedy}"
        )
    t_star, max_value = cell_search_max(
        theta, lambda t: (1.0 - t) ** dim, last_bound, xtol=1e-12
    )
    if not max_value > 1.0:
        claim = (
            f"theta_{label}(t)(1-t)^{dim} has maximum {max_value!r}, not above its"
            f" t -> 0 limit 1, where its tail bound is below {tol}"
        )
        if not _exceeds_one(theta, tail, dim):
            raise NoBoundError(
                f"{claim}, and theta plus tail keeps it at most 1 at every grid"
                " point of (0, 1), so mu = 1 gives no bound"
            )
        raise TailBoundError(
            f"{claim}; theta plus tail exceeds 1 at some grid point, so a larger"
            f" value is not ruled out; {remedy}"
        )
    while count == len(tails) < len(grid) and not t_star < grid[count - 1]:
        count = certified(count + 1)
    if not grid[0] < t_star < grid[count - 1]:
        count = certified(len(grid))  # the message names the first uncertified point
        past = (
            f", and the tail bound {tails[count]!r} at the next grid point"
            f" t = {grid[count]!r} is not below {tol}"
            if count < len(grid)
            else ""
        )
        raise TailBoundError(
            f"tail bound at the maximizer is not certified below {tol}: the maximizer"
            f" sits at or past the edge of the certified region{past}; {remedy}"
        )
    tail_at_star = tail(t_star)
    if not tail_at_star < tol:
        raise TailBoundError(
            f"tail bound {tail_at_star!r} at the maximizer is not below {tol}"
        )
    return MuResult(
        lattice_label=label,
        dim=dim,
        t_star=t_star,
        mu=max_value ** (-1.0 / dim),
        max_value=max_value,
        tail_bound=tail_at_star,
    )


def mu_lattice(series: ThetaSeries, tol: float = 1e-9) -> MuResult:
    """Maximize theta(t)(1-t)^d over (0, 1) and report mu = (max)^(-1/d).

    ``series.tail_bound`` bounds the truncation tail; a TailBoundError
    asks for a larger K.  On [a, 1) the objective is at most
    (1-a)^d sum_j N_j, the truncated series at t = 1.
    """
    label = series.label or f"dim{series.dim}"
    at_one = float(sum(series.coeffs))
    return _mu(
        label,
        series.dim,
        series.evaluate,
        series.tail_bound,
        lambda a: (1.0 - a) ** series.dim * at_one,
        tol,
        "request larger K",
    )


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
    ``tol`` bounds theta3's summation remainder.
    """
    return _mu(
        "Z",
        1,
        lambda t: jacobi_theta(3, t),
        lambda t: jacobi_theta_and_tail(3, t)[1],
        _theta3_cell_bound,
        tol,
        _LARGER_TOL,
    )


def mu_dn(n: int, tol: float = 1e-10) -> MuResult:
    """Double-cap quantity of D_n from the closed form, as a convergence
    diagnostic toward mu_Z.  ``tol`` bounds the remainder of theta_{D_n}.

    With theta3 = t3 + r and 0 <= r <= tail3 (theta3's terms are
    positive), the mean value theorem bounds the change in theta3^n by
    n tail3 (t3 + tail3)^(n-1).  |theta4| <= theta3, and theta4's loop
    stops no earlier than theta3's, so its remainder is no larger and the
    same bound covers the change in theta4^n; half their sum bounds the
    remainder of (theta3^n + theta4^n)/2.  It is multiplied by the
    rounding margin ``_TAIL_MARGIN``.  On [a, 1) the objective is at most
    the n-th power of ``_theta3_cell_bound(a)``, since |theta4| <= theta3
    gives theta_{D_n} <= theta3^n.

    For large n (n = 500, say) theta_{D_n} leaves the float range at
    points the search visits (theta3^n overflows); it then raises
    TailBoundError saying so.  A larger tol does not help.
    """

    def tail(t: float) -> float:
        t3, tail3 = jacobi_theta_and_tail(3, t)
        return n * tail3 * (t3 + tail3) ** (n - 1) * _TAIL_MARGIN

    try:
        return _mu(
            f"D{n}",
            n,
            lambda t: dn_theta(n, t),
            tail,
            lambda a: _theta3_cell_bound(a) ** n,
            tol,
            _LARGER_TOL,
        )
    except OverflowError:
        raise TailBoundError(
            f"theta_D{n} leaves the float range on (0, 1), so the closed form"
            f" cannot be maximized at n = {n}; a larger tol does not help"
        ) from None


def double_cap_compare(mu: float) -> str:
    """Classify mu against the known double-cap upper bound sqrt(3)/2.

    Returns "improvement" only for a strict improvement.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    return "improvement" if mu < SQRT3_OVER_2 else "no improvement"
