import itertools
import math
import random

import pytest

from chromabound import bound_engine, brent
from chromabound.optimize import GRID
from chromabound import (
    BoundQuery,
    best_l,
    chromatic_lower_bound,
    functional_equation_residual,
    gamma_chi,
    kupavskii_upper_base,
    maximize_over_t,
    one_minus_t_theta_max,
    table,
    theta_full,
    theta_ratio,
    theta_truncated,
)


def direct_ratio(t, gamma, l):
    """Oracle: both sums written out term by term."""
    num = sum(t ** (gamma * j * (j - 1) / 2.0) for j in range(1, l + 1))
    den = sum(t ** i for i in range(l))
    return num / den


def full_sums(t, gamma, top):
    """N_l(t) and D_l(t) for l = 1 .. top with the float operations of
    theta_ratio, every term added."""
    r = t ** gamma
    q = r
    num = term = den = p = 1.0
    nums, dens = [num], [den]
    for _ in range(top - 1):
        term = term * q
        num = num + term
        q = q * r
        p = p * t
        den = den + p
        nums.append(num)
        dens.append(den)
    return nums, dens


@pytest.fixture
def search_log(monkeypatch):
    """The l that best_l refines, and for each search the (gamma, lo, hi)
    it covers with the (best, leaves) of its cell search, each leaf as
    ``(a, b, N at a, D at a, N at b, D at b)``, the form ``_no_op`` takes."""
    refined, pruned = [], []
    refine, search, bisect = bound_engine._refine_l, bound_engine._search, bound_engine.bisect_cells

    def counting(gamma, l, runs, tol):
        refined.append(l)
        return refine(gamma, l, runs, tol)

    def searching(gamma, lo, hi, tol):
        pruned.append(((gamma, lo, hi), None))
        return search(gamma, lo, hi, tol)

    def keeping(visit, bound):
        (gamma, lo, hi), _ = pruned[-1]
        best, cells = bisect(visit, bound)

        def sums(t):
            r = t ** gamma
            return bound_engine._running_sums(r, r, hi), bound_engine._running_sums(t, 1.0, hi)

        pruned[-1] = ((gamma, lo, hi), (best, [(a, b, *sums(a), *sums(b)) for a, b in cells]))
        return best, cells

    monkeypatch.setattr(bound_engine, "_refine_l", counting)
    monkeypatch.setattr(bound_engine, "_search", searching)
    monkeypatch.setattr(bound_engine, "bisect_cells", keeping)
    return refined, pruned


class TestThetaRatio:
    def test_limit_at_zero(self):
        assert theta_ratio(0.0, 0.5, 4) == 1.0

    def test_at_one(self):
        assert theta_ratio(1.0, 0.5, 4) == pytest.approx(1.0, abs=1e-14)

    def test_derived_point(self):
        oracle = (1 + math.sqrt(0.2) + 0.2 ** 1.5) / (1 + 0.2 + 0.04)
        assert oracle == pytest.approx(1.239238963387056, abs=1e-13)
        assert theta_ratio(0.2, 0.5, 3) == pytest.approx(oracle, rel=1e-13)

    def test_matches_direct_form(self):
        for t in (0.1, 0.5, 0.9):
            for gamma in (0.25, 0.6):
                for l in (1, 3, 8):
                    assert theta_ratio(t, gamma, l) == pytest.approx(
                        direct_ratio(t, gamma, l), rel=1e-13
                    )

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            theta_ratio(0.5, 0.5, 0)


class TestMaximizeOverT:
    def test_known_maximum_gamma_half_l3(self):
        _, value = maximize_over_t(0.5, 3)
        assert value == pytest.approx(1.23956674, abs=1e-7)

    def test_l_one_is_identically_one(self):
        _, value = maximize_over_t(0.5, 1)
        assert value == 1.0

    @pytest.mark.parametrize("gamma", [1.0 / 11.0, 0.5, 1.5])
    def test_l_one_reports_an_interior_point(self, gamma):
        # Callers raise t_star to negative powers (criterion 6.5), so the
        # tie of R_1 = 1 must not resolve to t = 0.
        t_star, value = maximize_over_t(gamma, 1)
        assert 0.0 < t_star < 1.0
        assert value == 1.0

    def test_nontrivial_near_gamma_one(self):
        _, value = maximize_over_t(0.99, 2)
        assert value > 1.0

    def test_value_attained_at_reported_point(self):
        t_star, value = maximize_over_t(0.4, 4)
        assert theta_ratio(t_star, 0.4, 4) == pytest.approx(value, rel=1e-12)


class TestBestL:
    def test_gamma_half(self):
        l_star, _, value = best_l(0.5)
        assert l_star == 3
        assert value == pytest.approx(1.2395667, abs=1e-7)

    def test_gamma_third(self):
        _, _, value = best_l(1.0 / 3.0)
        assert value == pytest.approx(1.466299, abs=1e-6)

    def test_gamma_two_thirds(self):
        _, _, value = best_l(2.0 / 3.0)
        assert value == pytest.approx(1.118433, abs=1e-6)

    def test_window_respects_argmax_bound(self):
        for gamma in (0.2, 0.35, 0.6, 0.85):
            l_star, _, _ = best_l(gamma)
            assert l_star < 2.0 / gamma + 1

    @pytest.mark.parametrize(
        "m, k", [(1, 1), (2, 1), (2, 2), (5, 2), (10, 1), (10, 7), (100, 1), (200, 1)]
    )
    def test_scans_exactly_the_proven_window(self, search_log, m, k):
        # The refined l run upward from the lower edge max(2, ceil((m+1)/k))
        # and stay below ceil(2(m+1)/k); R_1 is identically 1.  Refining
        # from l = 2 gave a float-noise l_star below the window: 73 at
        # m = 100 and 104 at m = 200.  Every l above the last refined one
        # is a float no-op on every leaf, and the last refined one is not.
        lo, hi = max(2, -(-(m + 1) // k)), -(-2 * (m + 1) // k) - 1
        refined, pruned = search_log
        l_star, _, _ = best_l(k / (m + 1))
        assert refined == list(range(lo, lo + len(refined)))
        assert refined[-1] <= hi
        assert lo <= l_star <= refined[-1]
        ((_, _, top), (_, leaves)), = pruned
        assert top == hi
        no_op = [all(bound_engine._no_op(l, leaf) for leaf in leaves) for l in range(lo + 1, hi + 1)]
        assert no_op == [False] * (len(refined) - 1) + [True] * (hi - refined[-1])

    @pytest.mark.parametrize("m", [1000, 100000])
    def test_large_windows_refine_one_l(self, search_log, m):
        # A cell that ends at t = 1 is bisected until it is pruned, so the
        # leaf at t = 1 no longer keeps every l of the window alive (all
        # 1001 l were refined at m = 1000 when that leaf stopped at 2^-6).
        refined, pruned = search_log
        l_star, _, value = best_l(1.0 / (m + 1))
        assert refined == [m + 1]
        assert l_star == m + 1 and value > 1.0
        ((_, lo, hi), (_, leaves)), = pruned
        assert (lo, hi) == (m + 1, 2 * m + 1)
        assert all(b < 1.0 for _, b, *_ in leaves)

    @pytest.mark.parametrize(
        "gamma",
        sorted({k / (m + 1) for m in range(1, 31) for k in range(1, 4)} | {0.15, 0.3, 0.7}),
    )
    def test_sweep_matches_fresh_maximization_per_l(self, gamma):
        # The grid sweep gives, bit for bit, what a fresh maximize_over_t
        # gives for every l of the window.
        l_ref, t_ref, v_ref = 1, 0.0, 1.0
        for l in range(2, math.ceil(2.0 / gamma)):
            t, v = maximize_over_t(gamma, l)
            if v > v_ref:
                l_ref, t_ref, v_ref = l, t, v
        l_star, t_star, value = best_l(gamma)
        assert l_star == l_ref
        assert t_star.hex() == t_ref.hex()
        assert value.hex() == v_ref.hex()

    @pytest.mark.parametrize("gamma", [1.0, 1.5, 3.0])
    def test_trivial_for_gamma_at_least_one(self, gamma):
        assert best_l(gamma) == (1, 0.0, 1.0)


class TestSearchProofs:
    """The three facts the pure-Python search of best_l rests on."""

    def test_full_sums_mirror_theta_ratio(self):
        # A gamma above 1 ends _stopped_sum after a few terms; l = 1 adds none.
        for t in (0.0, 0.1, 0.5, 0.97, 1.0):
            for gamma, l in itertools.product((0.3, 1.0 / 51.0, 1.5, 3.0), (1, 6, 101)):
                nums, dens = full_sums(t, gamma, l)
                assert nums[-1].hex() == theta_truncated(t, gamma, l).hex()
                assert (nums[-1] / dens[-1]).hex() == theta_ratio(t, gamma, l).hex()

    @pytest.mark.parametrize("gamma", [1.0 / 501.0, 1.0 / 51.0, 1.0 / 3.0, 0.9])
    def test_cell_bound_holds(self, gamma):
        # R_l(t) <= N_l(b) / D_l(a) on [a, b], times (1 + _SLACK), for every
        # l up to the window's top (1002 at gamma = 1/501) and at dense
        # samples of cells of several widths, at both ends of [0, 1] and
        # at random.
        rng = random.Random(18)
        top = math.ceil(2.0 / gamma) - 1
        slack = 1.0 + brent._SLACK
        for width in (2.0 ** -9, 2.0 ** -6, 2.0 ** -3, 0.5):
            for a in [0.0, 1.0 - width] + [rng.uniform(0.0, 1.0 - width) for _ in range(5)]:
                b = a + width
                nb, _ = bound_engine._running_sums(b ** gamma, b ** gamma, top)
                da, _ = bound_engine._running_sums(a, 1.0, top)
                bounds = [bound_engine._at(nb, l) / bound_engine._at(da, l) * slack for l in range(1, top + 1)]
                for i in range(17):
                    t = a + (b - a) * i / 16.0 if i < 16 else b
                    nums, dens = full_sums(t, gamma, top)
                    assert all(n / d <= bd for n, d, bd in zip(nums, dens, bounds)), (a, b, t)

    @pytest.mark.parametrize("gamma", [1.0 / 501.0, 1.0 / 51.0, 0.3])
    def test_early_stopped_sums_equal_full_sums(self, gamma):
        rng = random.Random(53)
        top = math.ceil(2.0 / gamma) - 1
        grid = list(GRID)[:: 16 if top > 500 else 1]
        points = grid + [0.0, 1.0, 1.0 - 2.0 ** -53] + [rng.random() for _ in range(64)]
        ls = sorted({1, 2, max(2, math.ceil(1.0 / gamma)), top})
        def padded(values):
            return list(map(float.hex, values + values[-1:] * (top - len(values))))

        for t in points:
            nums, dens = full_sums(t, gamma, top)
            early_nums, _ = bound_engine._running_sums(t ** gamma, t ** gamma, top)
            early_dens, _ = bound_engine._running_sums(t, 1.0, top)
            assert padded(early_nums) == list(map(float.hex, nums))
            assert padded(early_dens) == list(map(float.hex, dens))
            for l in ls:
                assert bound_engine._ratio(t, gamma, l).hex() == (nums[l - 1] / dens[l - 1]).hex()

    @pytest.mark.parametrize("m", [50, 100, 500])
    def test_skipped_l_repeat_the_last_refined_bit_for_bit(self, search_log, m):
        gamma = 1.0 / (m + 1)
        refined, pruned = search_log
        best_l(gamma)
        ((_, _, hi), (_, leaves)), = pruned
        assert refined[-1] < hi
        for a, b, *_ in leaves:
            for t in (a, a + 0.25 * (b - a), a + 0.5 * (b - a), a + 0.75 * (b - a), b):
                nums, dens = full_sums(t, gamma, hi)
                ratios = [n / d for n, d in zip(nums, dens)]
                assert len(set(ratios[refined[-1] - 1:])) == 1, t


class TestChromaticLowerBound:
    @pytest.mark.parametrize(
        "m,k,expected",
        [(4, 1, 1.848150), (5, 1, 2.013079), (4, 3, 1.158048)],
    )
    def test_table_anchors(self, m, k, expected):
        result = chromatic_lower_bound(BoundQuery(m, k))
        assert result.value == pytest.approx(expected, abs=1e-6)
        assert result.warning is None

    def test_flagged_when_k_exceeds_m(self):
        result = chromatic_lower_bound(BoundQuery(1, 2))
        assert result.warning is not None

    def test_result_internally_consistent(self):
        r = chromatic_lower_bound(BoundQuery(2, 1))
        assert r.gamma == pytest.approx(1.0 / 3.0)
        assert theta_ratio(r.t_star, r.gamma, r.l_star) == pytest.approx(
            r.value, rel=1e-12
        )
        assert r.l_star < 2.0 / r.gamma + 1

    def test_query_validation(self):
        with pytest.raises(ValueError):
            BoundQuery(0, 1)


class TestAsymptoticLowerBound:
    def test_dominated_by_exact_maximization(self):
        # The closed-form rate GAMMA_CHI * sqrt((m + 1) / k) at m = k = 1.
        exact = chromatic_lower_bound(BoundQuery(1, 1)).value
        assert exact == pytest.approx(1.239566, abs=1e-6)
        assert exact >= gamma_chi().value * math.sqrt(2.0)


class TestKupavskiiBase:
    def test_m1_is_four(self):
        assert kupavskii_upper_base(1) == 4.0

    def test_m4_is_six(self):
        assert kupavskii_upper_base(4) == 6.0

    def test_sandwich_up_to_fifty(self):
        for m in range(1, 51):
            lower = chromatic_lower_bound(BoundQuery(m, 1)).value
            assert lower <= kupavskii_upper_base(m)


class TestTable:
    def test_shape_and_ordering(self):
        results = table(4, 2)
        cells = [(r.m, r.k) for r in results]
        assert cells == [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]

    def test_gamma_determinism(self):
        results = {(r.m, r.k): r for r in table(5, 4)}
        assert abs(results[(3, 2)].value - results[(1, 1)].value) < 1e-9
        assert abs(results[(5, 2)].value - results[(2, 1)].value) < 1e-9
        assert abs(results[(5, 4)].value - results[(2, 2)].value) < 1e-9

    def test_values_exceed_one(self):
        assert all(r.value > 1.0 for r in table(4, 4))


class TestStructuralInequalities:
    def test_best_l_dominates_theta_floor(self):
        gc = gamma_chi().value
        for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
            _, _, value = best_l(gamma)
            assert value >= gc / math.sqrt(gamma) - 1e-9
            assert value >= one_minus_t_theta_max(gamma)[1] - 1e-9

    def test_dropping_last_term_improves_past_threshold(self):
        for gamma in (0.3, 0.5, 0.8):
            l = math.ceil(2.0 / gamma)
            t_star, value = maximize_over_t(gamma, l)
            assert theta_ratio(t_star, gamma, l - 1) > value


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda gamma: maximize_over_t(gamma, 3), "gamma"),
        (lambda tol: maximize_over_t(0.3, 3, tol), "tol"),
        (best_l, "gamma"),
        (lambda tol: best_l(0.3, tol), "tol"),
        (lambda tol: chromatic_lower_bound(BoundQuery(m=2, k=1), tol), "tol"),
        (lambda tol: table(2, 1, tol), "tol"),
        (lambda gamma: theta_ratio(0.5, gamma, 3), "gamma"),
        (lambda gamma: theta_truncated(0.5, gamma, 3), "gamma"),
        (lambda gamma: theta_full(0.5, gamma), "gamma"),
        (lambda tail_tol: theta_full(0.5, 1.0, tail_tol), "tail_tol"),
        (one_minus_t_theta_max, "gamma"),
        (lambda tol: one_minus_t_theta_max(0.5, tol), "tol"),
        (gamma_chi, "tol"),
        (functional_equation_residual, "x"),
    ],
    ids=[
        "maximize_over_t", "maximize_over_t-tol", "best_l", "best_l-tol",
        "chromatic_lower_bound-tol", "table-tol", "theta_ratio", "theta_truncated",
        "theta_full", "theta_full-tail_tol", "one_minus_t_theta_max",
        "one_minus_t_theta_max-tol", "gamma_chi-tol", "functional_equation_residual-x",
    ],
)
def test_nan_gamma_is_rejected(call, name):
    # Every positive argument (gamma unless the id names another) goes
    # through special_functions.check_positive.  NaN fails every
    # comparison, so a check `x <= 0` let it through.
    for value in (math.nan, 0.0):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            call(value)
