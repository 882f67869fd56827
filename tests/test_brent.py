"""The best-first cell search of ``brent``, called directly."""

import pytest

from chromabound import brent
from chromabound.brent import bisect_cells, cell_search_max, runs


def plateau_rising(t):
    # 0.5 -> 1 on [0, 1/8), 1 up to 1/2, 1 -> 2 on [1/2, 5/8), then 2.
    if t < 0.125:
        return 0.5 + 4.0 * t
    if t < 0.5:
        return 1.0
    return 1.0 + 8.0 * (t - 0.5) if t < 0.625 else 2.0


def plateau_falling(t):
    # 1 up to 1/4, 1 -> 0.5 on (1/4, 1/2], 0.5 up to 3/4, then 0.5 -> 0.25.
    if t <= 0.25:
        return 1.0
    if t <= 0.5:
        return 1.0 - 2.0 * (t - 0.25)
    return 0.5 if t <= 0.75 else 0.5 - (t - 0.75)


def test_equal_peaks_go_to_the_smaller_t():
    # The product is exactly 1 on [1/8, 1/4] and on [5/8, 3/4] and below 1
    # elsewhere, so every point of both plateaus ties; the smallest point
    # of the first, a start end, wins.
    for t in (0.125, 0.2, 0.25, 0.625, 0.7, 0.75):
        assert plateau_falling(t) * plateau_rising(t) == 1.0
    t_star, value = cell_search_max(plateau_rising, plateau_falling, lambda a: 2.0 * plateau_falling(a))
    assert (t_star, value) == (0.125, 1.0)


def test_rising_is_never_evaluated_at_one():
    # t / (1 - t) rises on [0, 1) and has no value at 1; the product
    # t (1 - t) is at most 1 - a on [a, 1).
    seen = []

    def rising(t):
        seen.append(t)
        return t / (1.0 - t)

    t_star, value = cell_search_max(rising, lambda t: (1.0 - t) ** 2, lambda a: 1.0 - a)
    assert value == 0.25
    assert t_star == pytest.approx(0.5, abs=1e-8)
    assert 0.0 in seen
    assert max(seen) < 1.0


def test_visit_sees_every_end_once_with_the_best_value_so_far():
    seen = []

    def visit(t, best):
        seen.append((t, best))
        return (t * (1.0 - t), -t)

    best, _ = bisect_cells(visit, lambda a, b: b * (1.0 - a))
    ends = [t for t, _ in seen]
    assert ends[: brent._START_CELLS + 1] == [i / brent._START_CELLS for i in range(brent._START_CELLS + 1)]
    assert len(set(ends)) == len(ends)
    assert seen[1][1] == 0.0  # after t = 0, whose key has value 0
    assert best == (0.25, -0.5)


@pytest.mark.parametrize(
    "leaves, merged",
    [
        ([], []),
        ([(0.0, 0.25)], [[0.0, 0.25]]),
        ([(0.0, 0.25), (0.25, 0.5), (0.75, 1.0)], [[0.0, 0.5], [0.75, 1.0]]),
    ],
)
def test_runs_merge_adjacent_leaves(leaves, merged):
    assert runs(leaves) == merged


def hump_visit(seen):
    def visit(t, best):
        seen.append(t)
        return (t * (1.0 - t), -t) if 0.0 < t < 1.0 else None

    return visit


def test_a_loose_last_bound_is_split_and_pruned():
    # 1000 (1 - a) bounds t (1 - t) on [a, 1) very loosely, and b (1 - a)
    # bounds it on [a, b].  The last cell is bisected past _LEAF_WIDTH
    # until its bound falls to the best value, and no leaf ends at 1.
    seen = []
    best, leaves = bisect_cells(
        hump_visit(seen), lambda a, b: b * (1.0 - a) if b < 1.0 else 1000.0 * (1.0 - a)
    )
    assert best == (0.25, -0.5)
    assert any(1.0 - brent._LEAF_WIDTH < t < 1.0 for t in seen)
    assert all(b < 1.0 for _, b in leaves)

    rising, falling = (lambda t: t / (1.0 - t)), (lambda t: (1.0 - t) ** 2)
    tight = cell_search_max(rising, falling, lambda a: 1.0 - a)
    assert cell_search_max(rising, falling, lambda a: 1000.0 * (1.0 - a)) == tight


def test_a_last_cell_that_is_never_pruned_stops_at_the_last_width():
    seen = []
    best, leaves = bisect_cells(
        hump_visit(seen), lambda a, b: b * (1.0 - a) if b < 1.0 else 1e6
    )
    assert best == (0.25, -0.5)
    assert leaves[-1] == (1.0 - brent._LAST_WIDTH, 1.0)
    assert len(seen) < 100
