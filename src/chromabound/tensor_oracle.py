"""Brute-force oracles for the indicator constructions behind the bounds.

The distinctness indicator sums sgn(sigma) over permutations that are
not full cycles, evaluated on tuples via their coincidence pattern: it
is 1 on fully distinct tuples, 0 on partial coincidences, and
(-1)^k (k-1)! on constant tuples.  The last value is proven: a constant
tuple is fixed by every permutation, so the indicator is the sign sum
over S_k, which is 0 for k >= 2, minus the sign sum over the (k-1)!
k-cycles, each of sign (-1)^(k-1).  Combined
with the product over pairs of 1 - (|x_i - x_j|^2 / 2)^(p-1) over F_p it
indicates tuples that form a simplex with all pairwise distances in
sqrt(2p) * {1, sqrt(2), ..., sqrt(m)}.

Everything here favors exhaustive enumeration over cleverness; these
are correctness oracles with deliberately small domains, not production
paths.  S_k is enumerated in one place, a cached table of its
non-k-cycles grouped by cycle partition: each partition's cycle labels
(the smallest element of each point's cycle) with the signed count of
its permutations.  The table is built from the set partitions with at
least two blocks, each counted in closed form, prod (|B| - 1)! with sign
(-1)^(k - #blocks): 876 rows at k = 7 instead of a walk over 5,040
permutations, which the tests keep as the table's oracle.  The partition
expansion reads its coefficients off that table, and the indicator of a
coincidence pattern sums the counts of the partitions on whose blocks
the pattern is constant.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from .lattice_combinatorics import count_box, is_prime, next_prime


class OddSquaredDistanceError(ValueError):
    """Some pair of points has odd squared distance."""


class NonPrimeModulusError(ValueError):
    """The configured modulus is not prime."""


class DiameterError(ValueError):
    """Pairwise half squared distances reach (m+1)*p, outside the valid window."""


class _SetPartitionFields(NamedTuple):
    blocks: FrozenSet[FrozenSet[int]]


class SetPartition(_SetPartitionFields):
    """Disjoint nonempty blocks covering {1, ..., k}."""

    __slots__ = ()

    def __new__(cls, blocks: FrozenSet[FrozenSet[int]]) -> "SetPartition":
        flat: List[int] = [i for block in blocks for i in block]
        if not flat or any(not block for block in blocks):
            raise ValueError("blocks must be nonempty")
        k = max(flat)
        if sorted(flat) != list(range(1, k + 1)):
            raise ValueError("blocks must partition {1, ..., k}")
        return super().__new__(cls, blocks)

    @classmethod
    def _make(cls, iterable) -> "SetPartition":
        # _replace builds its record here; validate it like any other.
        return cls(*iterable)

    @classmethod
    def of(cls, blocks) -> "SetPartition":
        return cls(frozenset(frozenset(b) for b in blocks))

    @property
    def is_trivial(self) -> bool:
        return len(self.blocks) == 1


@lru_cache(maxsize=None)
def _cycle_partitions(k: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    # The non-k-cycles of S_k acting on {0, ..., k-1}, grouped by cycle
    # partition: (labels, signed count) per partition in order of labels,
    # where labels[i] is the smallest element of i's cycle.  Every set
    # partition with at least two blocks is the cycle partition of
    # prod (|B| - 1)! permutations, one cyclic order per block, which
    # share a cycle type and hence the sign (-1)^(k - #blocks), so no
    # count is 0; the one-block partition's permutations are the
    # k-cycles.  Each point joins a block already open, led by its
    # smallest point, or opens its own; trying the leads in increasing
    # order yields the rows in order of labels.
    rows: List[Tuple[Tuple[int, ...], int]] = []
    labels: List[int] = []
    sizes: Dict[int, int] = {}

    def place(i: int) -> None:
        if i == k:
            if len(sizes) > 1:
                count = math.prod(math.factorial(size - 1) for size in sizes.values())
                rows.append((tuple(labels), -count if (k - len(sizes)) % 2 else count))
            return
        for lead in [*sizes, i]:
            sizes[lead] = sizes.get(lead, 0) + 1
            labels.append(lead)
            place(i + 1)
            labels.pop()
            sizes[lead] -= 1
        del sizes[i]

    place(0)
    return tuple(rows)


@lru_cache(maxsize=None)
def _pattern_indicator(pattern: Tuple[int, ...]) -> int:
    # Signed count of the non-k-cycles with pattern[sigma(i)] == pattern[i]
    # for all i, i.e. whose every cycle lies in one block of the pattern,
    # i.e. with pattern[labels[i]] == pattern[i] for all i.
    return sum(
        count
        for labels, count in _cycle_partitions(len(pattern))
        if all(pattern[j] == p for j, p in zip(labels, pattern))
    )


def distinctness_indicator(labels: Sequence) -> int:
    """Signed count of non-full-cycle permutations fixing the label tuple.

    Returns 1 when all labels are distinct, 0 when some but not all
    coincide, and (-1)^k (k-1)! when all k labels are equal.  Labels are
    compared by equality only (they need not be hashable) to find the
    coincidence pattern, the index of the first equal label for each
    position; the sum over the cycle partitions of S_k runs once per
    pattern.  Feasible for 2 <= k <= 7.
    """
    k = len(labels)
    if not 2 <= k <= 7:
        raise ValueError("tuple length must be between 2 and 7")
    pattern = []
    for i in range(k):
        for j in range(i):
            if labels[j] == labels[i]:
                pattern.append(j)
                break
        else:
            pattern.append(i)
    return _pattern_indicator(tuple(pattern))


def partition_coefficients(k: int) -> Dict[SetPartition, int]:
    """Coefficients c_P with  indicator = sum_P c_P prod_{B in P} [equal on B].

    Groups the signed non-full-cycle permutations of S_k, the terms of
    the indicator, by their cycle labels (one label row per cycle
    partition) and sums signs.  Only nontrivial partitions (two or more
    blocks) appear; every returned coefficient is nonzero.
    """
    if not 2 <= k <= 7:
        raise ValueError("k must be between 2 and 7")
    out: Dict[SetPartition, int] = {}
    for labels, count in _cycle_partitions(k):
        blocks = ({i + 1 for i, c in enumerate(labels) if c == lead} for lead in set(labels))
        out[SetPartition.of(blocks)] = count
    return out


class _PointConfigFields(NamedTuple):
    points: Tuple[Tuple[int, ...], ...]
    p: int
    m: int


class PointConfig(_PointConfigFields):
    """Integer points with a prime modulus p and distance-set size m.

    All pairwise squared distances must be even; the product indicator
    is valid while every half squared distance stays below (m+1)*p.
    """

    __slots__ = ()

    def __new__(cls, points: Tuple[Tuple[int, ...], ...], p: int, m: int) -> "PointConfig":
        if m < 1:
            raise ValueError("m must be a positive integer")
        if not is_prime(p):
            raise NonPrimeModulusError(f"{p} is not prime")
        if not points:
            raise ValueError("at least one point is required")
        dims = {len(pt) for pt in points}
        if len(dims) != 1:
            raise ValueError("points must share one dimension")
        for a, b in itertools.combinations(points, 2):
            if sum((x - y) ** 2 for x, y in zip(a, b)) % 2:
                raise OddSquaredDistanceError(
                    f"points {a} and {b} are at odd squared distance"
                )
        return super().__new__(cls, points, p, m)

    @classmethod
    def _make(cls, iterable) -> "PointConfig":
        # _replace builds its record here; validate it like any other.
        return cls(*iterable)

    def half_squared_distance(self, i: int, j: int) -> int:
        a, b = self.points[i], self.points[j]
        return sum((x - y) ** 2 for x, y in zip(a, b)) // 2


def forbidden_distance_product(cfg: PointConfig) -> int:
    """Product over pairs of  1 - (half squared distance)^(p-1)  mod p.

    Equals 1 exactly when every pairwise half squared distance is 0 mod p,
    which under the diameter window means each distance is 0 or lies in
    sqrt(2p) * {1, ..., sqrt(m)}; any other pair kills the product.
    """
    window = (cfg.m + 1) * cfg.p
    result = 1
    for i, j in itertools.combinations(range(len(cfg.points)), 2):
        h = cfg.half_squared_distance(i, j)
        if h >= window:
            raise DiameterError(
                f"half squared distance {h} reaches (m+1)p = {window}"
            )
        result = result * (1 - pow(h, cfg.p - 1, cfg.p)) % cfg.p
    return result % cfg.p


def simplex_indicator(cfg: PointConfig, k: int) -> int:
    """Distinctness indicator times the distance product, mod p.

    The configuration must hold exactly k + 1 points and p must exceed k
    so the constant-tuple value k! stays nonzero mod p.  Returns 1 on
    distinct tuples whose pairwise distances all lie in sqrt(2p) times the
    distance set, magnitude k! on the constant tuple, 0 otherwise.
    """
    if not 1 <= k <= 5:
        raise ValueError("k must be between 1 and 5")
    if len(cfg.points) != k + 1:
        raise ValueError(f"need exactly {k + 1} points, got {len(cfg.points)}")
    if cfg.p <= k:
        raise ValueError(f"modulus {cfg.p} must exceed k = {k}")
    h = distinctness_indicator(cfg.points)
    f = forbidden_distance_product(cfg)
    return h * f % cfg.p


class CliqueBoundReport(NamedTuple):
    """Exact extremal subset size against the counting rank bound."""

    n: int
    l: int
    m: int
    k: int
    p: int
    d_max: int
    ground_size: int
    extremal_size: int
    extremal_subset: Tuple[Tuple[int, ...], ...]
    rank_bound: int
    holds: bool


class SearchBudgetExceeded(RuntimeError):
    """Branch-and-bound node budget exhausted."""


def _largest_clique_free_subset(
    adjacency: List[List[bool]], clique_size: int, budget: int
) -> List[int]:
    # Largest vertex subset whose induced graph has no clique of
    # `clique_size` vertices; exact branch and bound.
    n = len(adjacency)
    best: List[int] = []
    nodes = 0

    def creates_clique(chosen: List[int], v: int) -> bool:
        neighbors = [u for u in chosen if adjacency[v][u]]
        if len(neighbors) < clique_size - 1:
            return False
        for combo in itertools.combinations(neighbors, clique_size - 1):
            if all(adjacency[a][b] for a, b in itertools.combinations(combo, 2)):
                return True
        return False

    def extend(i: int, chosen: List[int]) -> None:
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"exceeded {budget} search nodes")
        if len(chosen) + (n - i) <= len(best):
            return
        if i == n:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if not creates_clique(chosen, i):
            chosen.append(i)
            extend(i + 1, chosen)
            chosen.pop()
        extend(i + 1, chosen)

    extend(0, [])
    return best


def clique_bound_check(
    n: int,
    l: int,
    m: int,
    k: int,
    subset_budget: int = 500_000,
    parity: int = 0,
) -> CliqueBoundReport:
    """Exhaustively verify the counting bound on clique-free subsets.

    Ground set: the vectors of {0, ..., l}^n whose coordinate sum has the
    given parity (so all pairwise squared distances are even).  With p
    the smallest prime above d_max / (m+1), finds the largest subset
    containing no k+1 points pairwise at distances in sqrt(2p) times the
    distance set, and checks it against 2^(k+1) * count_box(n, l, k(p-1)).
    """
    if n < 1 or l < 0 or m < 1 or k < 1:
        raise ValueError("need n >= 1, l >= 0, m >= 1, k >= 1")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    # Either parity class holds at least floor((l+1)^n / 2) points, so one
    # of at most 24 needs (l+1)^n <= 49.  Past n = 6 the box exceeds 49
    # points whenever l >= 1, so the exponent is capped and a huge n is
    # rejected without being enumerated.
    if (l + 1) ** min(n, 6) > 49:
        raise ValueError(f"each parity class of {{0, ..., {l}}}^{n} exceeds 24 points")
    ground = [
        v
        for v in itertools.product(range(l + 1), repeat=n)
        if sum(v) % 2 == parity
    ]
    if len(ground) > 24:
        raise ValueError(f"ground set of {len(ground)} points exceeds 24")
    if not ground:
        raise ValueError("empty ground set for this parity")

    # Half squared distances of the pairs in combinations order.
    half = [
        sum((x - y) ** 2 for x, y in zip(a, b)) // 2
        for a, b in itertools.combinations(ground, 2)
    ]
    d_max = max(half, default=0)
    p = next_prime(d_max // (m + 1))
    forbidden = {p * j for j in range(1, m + 1)}

    size = len(ground)
    adjacency = [[False] * size for _ in range(size)]
    for (i, j), h in zip(itertools.combinations(range(size), 2), half):
        if h in forbidden:
            adjacency[i][j] = adjacency[j][i] = True

    chosen = _largest_clique_free_subset(adjacency, k + 1, subset_budget)
    rank_bound = (2 ** (k + 1)) * count_box(n, l, k * (p - 1))
    return CliqueBoundReport(
        n=n,
        l=l,
        m=m,
        k=k,
        p=p,
        d_max=d_max,
        ground_size=size,
        extremal_size=len(chosen),
        extremal_subset=tuple(ground[i] for i in chosen),
        rank_bound=rank_bound,
        holds=len(chosen) <= rank_bound,
    )
