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
power recurrence (``lattice_combinatorics._sparse_power``) in
O(K * nonzero terms) integer steps.  The kernel is looked up when it is
called, so E8 and Z never run that layer.

mu is maximized in pure Python by ``brent.cell_search_max``, a best-first
bisection of [0, 1) with proven cell bounds and Brent refinement, and
certified afterwards on ``GRID``, 4096 fixed points of (0, 1) (``_mu``).
A series' tail bound is proven nondecreasing over most of the grid, so
one tail value below tol certifies every grid point before it, and a
series is certified in three tail evaluations.  Z (``mu_z``) uses the one
closed form, theta3, whose remainder is certified point by point.  Every
evaluator takes and returns Python floats.

A requested series length K is a cap (``mu_capped``): the series is built
to 64 coefficients, and doubled up to K only while its tail does not
certify, since a few dozen coefficients already settle most lattices.

Series objects are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Tuple

from . import lattice_combinatorics
from .brent import cell_search_max, survives
from .special_functions import (
    SQRT3_OVER_2,
    check_positive,
    check_unit_interval,
    jacobi_theta,
    jacobi_theta_and_tail,
)

DEFAULT_SERIES_LENGTH = 512

#: Rounding margin of the float tail bound ``ThetaSeries.tail_bound``.
_TAIL_MARGIN = 1.0 + 2.0 ** -30


class TailBoundError(ValueError):
    """Raised when a remainder bound cannot certify the maximum: increase
    K for a series, or tol for ``mu_z``."""


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

            B(x) = expm1(lam)/lam * e^-y * sum_i binom(d, i) (a sqrt(K+1))^i H(s_i),

        a sum of positive terms, finite on [0, 1) and 0 at t = 0.  It is
        evaluated in log space and multiplied by the rounding margin
        ``_TAIL_MARGIN`` = 1 + 2^-30, which exceeds the float error of the
        d + 1 positive terms and of e^-y (y < 3000 wherever the result is a
        normal float), so the returned value is at least B(x).  A float sum
        that overflows gives inf, the safe side.

        5. B rises with t up to x = K/(K+1).  By steps 3-4,
           B(x) = (1 - x) int_{K+1}^inf C_z x^(z-1) dz, and for each z the
           integrand's factor (1 - x) x^(z-1) has derivative
           x^(z-2) (z - 1 - z x) in x, which is nonnegative while
           x <= (z-1)/z; every z >= K + 1 has (z-1)/z >= K/(K+1).  So a
           returned value below tol at t, with t^2 <= K/(K+1), bounds B and
           with it the tail at every t' <= t below tol.  Past that point,
           C_z >= 1 and (1 - x)/lam >= x give B(x) >= x^(K+1)
           >= e^(-(K+1)/K), at least e^(-17/16) > 0.34 for K >= 16.
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
    coeffs = tuple(lattice_combinatorics._sparse_power(squares, n, limit)[0::2])
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
    return [0] + lattice_combinatorics._sparse_power(jacobi_cube, 8, limit)


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
    ``_BLOCK`` grid points bounds theta on the block.  Float rounding is
    monotone, so a point where that bound in place of theta keeps the sum
    at most 1, by ``brent.survives`` (the search's prune rule), is settled
    without its own theta.  Only a ``ThetaSeries`` gets here (``mu_z``'s
    maximum is above 1), and its float Horner sum is itself monotone in t
    (nonnegative coefficients), so the skip never changes the answer.
    """
    for start in range(0, len(GRID), _BLOCK):
        block = GRID[start : start + _BLOCK]
        end = theta(block[-1])
        for t in block:
            w = (1.0 - t) ** dim
            rest = tail(t) * w
            if survives(end * w + rest, 1.0) and theta(t) * w + rest > 1.0:
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
    rising: int,
) -> MuResult:
    """Maximize theta(t)(1-t)^dim where theta's remainder ``tail`` is below ``tol``.

    The maximizer comes from ``brent.cell_search_max``, so it does not
    depend on ``tail``.  Its cell bounds: theta has nonnegative
    coefficients, so it rises in t, and on [a, b] with b < 1 the
    objective is at most theta(b)(1-a)^dim; on the last cell [a, 1) it is
    at most ``last_bound(a)``, which each caller proves for its theta.

    Certification is a check on the result, taken on ``GRID``: the grid
    points before the first one whose tail is not below ``tol`` are
    certified.  The caller proves ``tail`` nondecreasing on the first
    ``rising`` grid points, so there one value below ``tol`` certifies
    every point before it, and the first uncertified point is found by
    bisection; past them each point is certified by its own value.  So a
    success whose first grid point past the maximizer lies in the rising
    region takes the tail three times: at the third grid point, at that
    point, and at the maximizer.

    A maximum not above 1, the t -> 0 limit, gives no bound.  It raises
    NoBoundError if theta + tail, an upper bound on the untruncated
    theta, keeps the objective at most 1 on the whole grid
    (``_exceeds_one``, which takes the tail at every grid point; D_n for
    n <= 5 from a long enough series); otherwise a larger value past the
    certified region is not ruled out and it raises TailBoundError.
    Fewer than 3 certified points, a maximizer not strictly between the
    first and the last certified point, or a tail at the maximizer that
    is not below ``tol`` raise TailBoundError as well.  Each
    TailBoundError but the last ends with ``remedy``, the caller's way to
    certify more of the grid.
    """
    check_positive(tol, "tol")
    grid = GRID
    certified = 0  # grid[:certified] is certified
    first_out = len(grid)  # the first uncertified grid point, once found

    def certify(n: int) -> int:
        """Certify the first n grid points up to the first uncertified one; the count certified."""
        nonlocal certified, first_out
        end = min(n, rising, first_out)
        if certified < end:
            if tail(grid[end - 1]) < tol:
                certified = end
            else:  # grid[end - 1] is uncertified: bisect for the first such point
                certified = first_out = bisect.bisect_left(
                    grid, True, certified, end - 1, key=lambda t: not tail(t) < tol
                )
        while certified < min(n, first_out):
            if tail(grid[certified]) < tol:
                certified += 1
            else:
                first_out = certified
        return certified

    if certify(3) < 3:
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
    past = bisect.bisect_right(grid, t_star)  # the first grid point past t_star
    if not (grid[0] < t_star and past < len(grid) and certify(past + 1) > past):
        count = certify(len(grid))  # the message names the first uncertified point
        at_edge = (
            f", and the tail bound {tail(grid[count])!r} at the next grid point"
            f" t = {grid[count]!r} is not below {tol}"
            if count < len(grid)
            else ""
        )
        raise TailBoundError(
            f"tail bound at the maximizer is not certified below {tol}: the maximizer"
            f" sits at or past the edge of the certified region{at_edge}; {remedy}"
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
    (1-a)^d sum_j N_j, the truncated series at t = 1.  The tail bound
    rises on the grid points with t^2 <= K/(K+1) (its docstring's step 5);
    past them it is above 0.34 for K >= 16, so a tol below that certifies
    none of them.
    """
    label = series.label or f"dim{series.dim}"
    at_one = float(sum(series.coeffs))
    K = len(series.coeffs) - 1

    def past_rise(t: float) -> bool:  # t^2 > K/(K+1), compared exactly
        num, den = t.as_integer_ratio()
        return (K + 1) * num * num > K * den * den

    return _mu(
        label,
        series.dim,
        series.evaluate,
        series.tail_bound,
        lambda a: (1.0 - a) ** series.dim * at_one,
        tol,
        "request larger K",
        bisect.bisect_left(GRID, True, key=past_rise),
    )


#: First prefix length of ``mu_capped``.  At tol 1e-9 a prefix certifies
#: E8 from 16 coefficients, Leech from 29, D24 from 32 and D64 from 82,
#: so one build of 64 settles E8, Leech and D_n up to n = 50, and the
#: rest of D_n take two.
_FIRST_PREFIX = 64


def mu_capped(build: Callable[[int], ThetaSeries], K: int, tol: float = 1e-9) -> MuResult:
    """``mu_lattice`` on the shortest doubling prefix that settles it, at most K long.

    ``build(P)`` is the series truncated at P.  P starts at min(64, K) and
    after each TailBoundError doubles, capped at K; at P = K the error
    propagates unchanged, so it is that of ``mu_lattice(build(K), tol)``.
    A success at P is the same claim as at K: ``tail_bound`` bounds every
    omitted term of theta_L, those from P + 1 to K included, and it is
    below tol up to the first grid point past the maximizer.

    A NoBoundError at any P is final.  It states that
    (theta_P(t) + tail_P(t))(1-t)^d <= 1 at every grid point, and
    theta_P + tail_P >= theta_L there for every P, since theta_P sums the
    first P + 1 terms exactly and tail_P bounds the rest.  So the
    untruncated objective is at most 1 on the grid, which no longer prefix
    can overturn.
    """
    P = min(_FIRST_PREFIX, K)
    while True:
        try:
            return mu_lattice(build(P), tol)
        except TailBoundError:
            if P >= K:
                raise
            P = min(2 * P, K)


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
    ``tol`` bounds theta3's summation remainder.  The remainder drops
    each time the sum takes one more term, so it is not monotone in t and
    each grid point is certified by its own value.
    """
    return _mu(
        "Z",
        1,
        lambda t: jacobi_theta(3, t),
        lambda t: jacobi_theta_and_tail(3, t)[1],
        _theta3_cell_bound,
        tol,
        "request a larger tol",
        0,
    )


def double_cap_compare(mu: float) -> str:
    """Classify mu against the known double-cap upper bound sqrt(3)/2.

    Returns "improvement" only for a strict improvement.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0, 1)")
    return "improvement" if mu < SQRT3_OVER_2 else "no improvement"
