"""Exact counting and identity checks behind the lower-bound machinery.

Covers box lattice-point counts and their generating-function upper
bound, the pairing formula for the largest half squared distance inside
an arrangement class, the alternating-square identity, the multinomial
max-versus-mean inequality, and deterministic prime selection.

Box counts are prefix sums of the coefficients of a power, expanded
by ``special_functions._sparse_power``, the package's one exact
polynomial-power kernel, which also raises ``lattice_theta``'s D_n and
tau series.

Everything here is exact integer arithmetic except where a float is the
honest answer (the generating-function bound).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from .special_functions import _sparse_power


class _CompositionProfileFields(NamedTuple):
    counts: Tuple[int, ...]


class CompositionProfile(_CompositionProfileFields):
    """Symbol counts of an arrangement class inside {0, ..., l}^n.

    ``counts[i]`` is the number of coordinates equal to i; the ambient
    dimension is n = sum(counts) and the box side is l = len(counts) - 1.
    """

    __slots__ = ()

    def __new__(cls, counts: Tuple[int, ...]) -> "CompositionProfile":
        if not counts:
            raise ValueError("counts must be nonempty")
        if any(c < 0 for c in counts):
            raise ValueError("counts must be nonnegative")
        return super().__new__(cls, counts)

    @classmethod
    def _make(cls, iterable) -> "CompositionProfile":
        # _replace builds its record here; validate it like any other.
        return cls(*iterable)

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def l(self) -> int:
        return len(self.counts) - 1


@lru_cache(maxsize=64)
def _box_prefix_sums(n: int, l: int) -> Tuple[int, ...]:
    # Prefix sums of the coefficients of (1 + x + ... + x^l)^n, degrees 0 .. n*l.
    return tuple(accumulate(_sparse_power([1] * (l + 1), n, n * l)))


def count_box(n: int, l: int, d: int) -> int:
    """Number of v in {0, ..., l}^n with coordinate sum at most d.

    Computed exactly as the partial coefficient sum of (1 + x + ... + x^l)^n,
    the power expanded by ``_sparse_power`` once per box (n, l) and kept
    as prefix sums; big integers throughout, no overflow.
    """
    if n < 1 or l < 0 or d < 0:
        raise ValueError("need n >= 1, l >= 0, d >= 0")
    return _box_prefix_sums(n, l)[min(d, n * l)]


def gf_upper_bound(n: int, l: int, d: int, t: float) -> float:
    """Generating-function bound  (1 + t + ... + t^l)^n / t^d  for t in (0, 1).

    Every box vector with coordinate sum <= d contributes a nonnegative
    power of 1/t to the expansion, so this dominates count_box(n, l, d)
    at every t.  Evaluated in log space; a bound past the float range is
    returned as ``math.inf``, which still dominates.
    """
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    if n < 1 or l < 0 or d < 0:
        raise ValueError("need n >= 1, l >= 0, d >= 0")
    base = 1.0
    for _ in range(l):
        base = base * t + 1.0
    try:
        return math.exp(n * math.log(base) - d * math.log(t))
    except OverflowError:
        return math.inf


def _pairing_order(counts: Sequence[int]) -> List[int]:
    # Interleave the counts from the top (a_l, a_{l-1}, ...) into the even
    # offsets from position l downward and from the bottom (a_0, a_1, ...)
    # into the odd offsets: b_l = a_l, b_{l-1} = a_0, b_{l-2} = a_{l-1}, ...
    l = len(counts) - 1
    b = [0] * (l + 1)
    hi, lo = l, 0
    take_hi = True
    for pos in range(l, -1, -1):
        if take_hi:
            b[pos] = counts[hi]
            hi -= 1
        else:
            b[pos] = counts[lo]
            lo += 1
        take_hi = not take_hi
    return b


def profile_diameter(profile: CompositionProfile) -> int:
    """Largest half squared distance between two arrangements of the profile.

    Valid when the reordered counts b satisfy b_i <= b_j for i > j (the
    extremal pairing then exists); the value is sum_j b_j * C(j+1, 2).
    Raises if the monotonicity check fails, naming the offending index.
    """
    b = _pairing_order(profile.counts)
    for i in range(1, len(b)):
        if b[i] > b[i - 1]:
            raise ValueError(
                f"reordered counts not nonincreasing at index {i} "
                f"(b[{i}] = {b[i]} > b[{i - 1}] = {b[i - 1]}); formula not guaranteed"
            )
    return sum(bj * (j + 1) * j // 2 for j, bj in enumerate(b))


def multinomial(n: int, counts: Sequence[int]) -> int:
    """Exact multinomial coefficient n! / prod(counts[i]!)."""
    if sum(counts) != n:
        raise ValueError("counts must sum to n")
    out = math.factorial(n)
    for c in counts:
        out //= math.factorial(c)
    return out


def _compositions(n: int, caps: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    # Compositions of n into len(caps) parts with 0 <= part i <= caps[i],
    # in lexicographic order.
    if len(caps) == 1:
        if n <= caps[0]:
            yield (n,)
        return
    for first in range(min(n, caps[0]) + 1):
        for rest in _compositions(n - first, caps[1:]):
            yield (first,) + rest


def profile_diameter_bruteforce(
    profile: CompositionProfile, budget: int = 100_000
) -> int:
    """Exhaustive maximum of half the squared distance over arrangement pairs.

    Coordinate permutations are isometries that preserve the arrangement
    class, so one endpoint x can be pinned to the sorted arrangement.
    Another arrangement y of the class gives the contingency table
    T[a][b] = #{i : x_i = a, y_i = b}, whose row and column sums are
    both the counts, and |x - y|^2 = sum_{a,b} T[a][b] (a - b)^2.
    Conversely every nonnegative integer table with these margins comes
    from some y: fill the positions where x holds a with T[a][b] copies
    of each b.  So the maximum over the tables is the maximum over the
    arrangements.

    The tables are searched row by row as a dynamic program over
    (a, columns), with ``columns`` the column sums that rows 0 .. a-1
    left over.  Each row adds its own sum of T[a][b] (a - b)^2 to the
    objective, and which rows a, a+1, ... can still be filled in
    depends only on ``columns``, not on how the earlier rows used the
    rest.  So the best completion of rows a onward is a function of
    (a, columns) alone (optimal substructure), computed once and
    memoized: the result is still the maximum over every table.
    ``budget`` caps the number of arrangements, multinomial(n; counts).
    """
    counts = profile.counts
    total = multinomial(profile.n, counts)
    if total > budget:
        raise ValueError(f"{total} arrangements exceed the budget of {budget}")
    # weights[a][b] = (a - b)^2, the squared step of one entry T[a][b].
    weights = [[(a - b) * (a - b) for b in range(len(counts))] for a in range(len(counts))]
    best: Dict[Tuple[int, Tuple[int, ...]], int] = {}

    def widest(a: int, columns: Tuple[int, ...]) -> int:
        # Largest sum of T[r][b] (r - b)^2 over rows r >= a, given the
        # column sums the rows before a left over.
        if a == len(counts):
            return 0
        key = (a, columns)
        if key not in best:
            best[key] = max(
                sum(t * w for t, w in zip(row, weights[a]))
                + widest(a + 1, tuple(c - t for c, t in zip(columns, row)))
                for row in _compositions(counts[a], columns)
            )
        return best[key]

    return widest(0, counts) // 2


def alternating_square_identity(j: int) -> Tuple[int, int]:
    """Both sides of  sum_{i=0..j} (j-i)^2 (-1)^i = C(j+1, 2)."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    # The term of i has sign (-1)^i and square s^2 with s = j - i, so it
    # is positive exactly when s has the parity of j.
    lhs = sum(s * s for s in range(j, -1, -2)) - sum(s * s for s in range(j - 1, -1, -2))
    rhs = (j + 1) * j // 2
    return lhs, rhs


def multinomial_lemma_check(
    n: int, l: int, c: Sequence[float], t: float, budget: int = 10**6
) -> Tuple[float, float]:
    """Max multinomial term versus the mean bound for ordered compositions.

    Over compositions a of n into l + 1 parts with a_i <= a_j whenever
    c_i > c_j (a maximizer always satisfies this: transposing a violating
    pair strictly increases the product), returns

        lhs_max = max multinomial(n; a) * t^(sum c_i a_i)
        rhs     = (sum_i t^(c_i))^n / (n + 1)^l

    and the contract is lhs_max >= rhs, since there are at most (n+1)^l
    compositions in total.
    """
    if len(c) != l + 1:
        raise ValueError("c must have l + 1 entries")
    if not 0.0 < t < 1.0:
        raise ValueError("t must lie in (0, 1)")
    if any(ci < 0 for ci in c):
        raise ValueError("c entries must be nonnegative")
    total = math.comb(n + l, l)
    if total > budget:
        raise ValueError(f"{total} compositions exceed the budget of {budget}")
    # The pairs (i, j) with c_i > c_j, whose order a_i <= a_j is required.
    ordered = [(i, j) for i in range(l + 1) for j in range(l + 1) if c[i] > c[j]]
    lhs_max = 0.0
    for a in _compositions(n, (n,) * (l + 1)):
        if any(a[i] > a[j] for i, j in ordered):
            continue
        value = multinomial(n, a) * t ** sum(ci * ai for ci, ai in zip(c, a))
        if value > lhs_max:
            lhs_max = value
    rhs = sum(t ** ci for ci in c) ** n / (n + 1) ** l
    return lhs_max, rhs


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, correct for all n below 3.3 * 10^24.

    The witnesses are the primes up to 37, tried first as divisors.  A
    composite n below 41^2 = 1681 has a prime factor at most
    sqrt(n) < 41, so at most 37, and one of them divides it: an n below
    1681 that none divides is prime without a Miller-Rabin round.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(x: int) -> int:
    """Smallest prime strictly greater than x (x below 2^63)."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x >= 2 ** 63:
        raise ValueError("x out of the supported 64-bit range")
    if x < 2:
        return 2
    candidate = x + 1 if (x + 1) % 2 else x + 2  # even candidates above 2 are composite
    while not is_prime(candidate):
        candidate += 2
    return candidate

