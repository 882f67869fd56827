import math

import numpy as np
import pytest

from chromabound import optimize
from chromabound.bound_engine import theta_ratio
from chromabound.lattice_theta import GRID
from chromabound.optimize import golden_section_max, maximize_on_unit_interval


def test_grid_is_fixed_interior_of_unit_interval():
    assert type(GRID) is tuple and len(GRID) == 4096
    assert 0.0 < GRID[0] and GRID[-1] < 1.0
    assert all(a < b for a, b in zip(GRID, GRID[1:]))


def test_golden_section_stops_below_float_spacing():
    # An xtol far below the float spacing of the bracket must still end;
    # the guard turns an endless loop into a test failure.
    evals = []

    def f(x):
        evals.append(x)
        assert len(evals) < 10_000, "golden_section_max does not terminate"
        return -(x - 0.3) ** 2

    x, v = golden_section_max(f, 0.0, 1.0, xtol=1e-30)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert v == f(x)


def golden_section_evaluations(lo, hi, xtol):
    """Evaluations pure golden section spends on [lo, hi]: two interior
    points, then one per shrink of the bracket by 1/phi to at most xtol."""
    return 2 + math.ceil(math.log((hi - lo) / xtol) / math.log((1.0 + math.sqrt(5.0)) / 2.0))


def _grid_bracket(f):
    vals = [f(t) for t in GRID]
    i = vals.index(max(vals))
    return GRID[i - 1], GRID[i + 1]


@pytest.mark.parametrize(
    "f",
    [
        pytest.param(lambda t: -((t - 0.3) ** 2) + 1.0, id="quadratic"),
        pytest.param(lambda t: theta_ratio(t, 1.0 / 11.0, 21), id="theta_ratio"),
    ],
)
def test_refinement_reaches_xtol_in_fewer_evaluations_than_golden_section(f):
    lo, hi = _grid_bracket(f)
    evals = []

    def counted(x):
        evals.append(x)
        return f(x)

    x, v = golden_section_max(counted, lo, hi, xtol=1e-12)
    assert v == f(x) and all(lo < e < hi for e in evals)
    # Every point evaluated so far lies outside the bracket around the
    # best one, so its ends are the nearest evaluated points (or lo, hi).
    a = max((e for e in evals if e < x), default=lo)
    b = min((e for e in evals if e > x), default=hi)
    assert b - a <= 1e-12
    assert len(evals) < golden_section_evaluations(lo, hi, 1e-12) == 44


def test_constant_function_returns_first_grid_point():
    # Every grid point is a tied candidate; none refines above the grid value.
    x, v = maximize_on_unit_interval(lambda t: 0.0 * t + 2.5)
    assert (x, v) == (GRID[0], 2.5)


def test_equal_grid_peaks_are_both_refined():
    # Two grid peaks of exactly 1.0.  The one at the lower index is a tent
    # with its apex on the grid; the other is min(left, right) of two lines
    # whose apex lies between GRID[3000] and GRID[3001] and exceeds 1.
    c1, c2 = GRID[1000], GRID[3000]
    apex = c2 + 0.5 * (GRID[3001] - c2)

    def f(t):
        tent = 1.0 - np.abs(t - c1)
        spike = np.minimum(1.0 + 10.0 * (t - c2), 1.0 + 1e-4 - 10.0 * (t - apex))
        return np.maximum(tent, spike)

    vals = [f(t) for t in GRID]
    assert vals[1000] == vals[3000] == 1.0 == max(vals)
    x, v = maximize_on_unit_interval(f)
    assert GRID[3000] < x < GRID[3001]
    assert v > 1.0


@pytest.fixture
def brackets(monkeypatch):
    """Brackets ``(lo, hi)`` of every golden-section refinement."""
    seen = []
    original = optimize.golden_section_max

    def spy(f, lo, hi, xtol=1e-12):
        seen.append((lo, hi))
        return original(f, lo, hi, xtol)

    monkeypatch.setattr(optimize, "golden_section_max", spy)
    return seen


def test_low_endpoints_are_not_refined(brackets):
    # One interior hump, both endpoints below their neighbours: a single
    # refinement, around the grid maximum.
    x, v = maximize_on_unit_interval(lambda t: -((t - 0.4) ** 2))
    assert len(brackets) == 1
    lo, hi = brackets[0]
    assert lo < 0.4 < hi and hi - lo < 3.0 / len(GRID)
    assert x == pytest.approx(0.4, abs=1e-6)


@pytest.mark.parametrize(
    "peak, bracket",
    [
        pytest.param(GRID[0], (0.5 * GRID[0], GRID[1]), id="first"),
        pytest.param(GRID[1], (GRID[0], GRID[2]), id="second"),
        pytest.param(GRID[2000], (GRID[1999], GRID[2001]), id="interior"),
        pytest.param(GRID[-2], (GRID[-3], GRID[-1]), id="next-to-last"),
    ],
)
def test_bracket_spans_the_grid_neighbours(brackets, peak, bracket):
    # A single grid peak at GRID[i] is refined on [GRID[i-1], GRID[i+1]];
    # the first bracket starts halfway to 0.  The last point's bracket,
    # ending halfway to 1, is pinned by the increasing-objective test.
    maximize_on_unit_interval(lambda t: -abs(t - peak))
    assert brackets == [bracket]


def test_increasing_objective_returns_right_end_maximum(brackets):
    x, v = maximize_on_unit_interval(lambda t: t * t)
    assert brackets == [(GRID[-2], 0.5 * (1.0 + GRID[-1]))]
    assert GRID[-1] < x <= 0.5 * (1.0 + GRID[-1])
    assert v == x * x


def test_two_interior_humps_are_both_refined(brackets):
    def f(t):
        return np.exp(-(((t - 0.3) / 0.05) ** 2)) + 0.9 * np.exp(-(((t - 0.7) / 0.05) ** 2))

    x, v = maximize_on_unit_interval(f)
    assert len(brackets) == 2
    assert all(any(lo < c < hi for lo, hi in brackets) for c in (0.3, 0.7))
    assert x == pytest.approx(0.3, abs=1e-4)

