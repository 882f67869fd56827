import math

import numpy as np
import pytest

from chromabound import (
    dn_theta,
    e8_series,
    functional_equation_residual,
    gamma_chi,
    jacobi_theta,
    jacobi_theta_and_tail,
    one_minus_t_theta_max,
    theta_full,
    theta_ratio,
    theta_truncated,
)
from chromabound import special_functions
from chromabound.optimize import maximize_on_unit_interval
from chromabound.special_functions import _MODULAR_SWITCH, _theta_of_power, check_unit_interval


def direct_partial_theta(t, gamma, terms):
    """Oracle: direct summation with explicit triangular exponents."""
    return sum(t ** (gamma * j * (j - 1) / 2.0) for j in range(1, terms + 1))


def direct_theta3(q, terms=60):
    return 1.0 + 2.0 * sum(q ** (n * n) for n in range(1, terms + 1))


def direct_theta4(q, terms=60):
    return 1.0 + 2.0 * sum((-1) ** n * q ** (n * n) for n in range(1, terms + 1))


def direct_theta2(q, terms=60):
    return 2.0 * sum(q ** ((n + 0.5) ** 2) for n in range(terms))


class TestThetaTruncated:
    def test_at_zero_only_constant_term_survives(self):
        assert theta_truncated(0.0, 1.0, 5) == 1.0

    def test_at_one_counts_terms(self):
        for l in (1, 2, 7):
            assert theta_truncated(1.0, 0.37, l) == pytest.approx(l, abs=1e-12)

    def test_dyadic_example(self):
        # exponents 0, 1/2, 3/2 at t = 1/4: 1 + 1/2 + 1/8
        assert theta_truncated(0.25, 0.5, 3) == pytest.approx(1.625, abs=1e-15)

    def test_matches_direct_summation(self):
        for t in (0.1, 0.37, 0.8, 0.99):
            for gamma in (0.2, 0.5, 1.0):
                for l in (1, 2, 5, 12):
                    assert theta_truncated(t, gamma, l) == pytest.approx(
                        direct_partial_theta(t, gamma, l), rel=1e-13
                    )

    def test_monotone_in_l(self):
        values = [theta_truncated(0.6, 0.5, l) for l in range(1, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            theta_truncated(0.5, 0.5, 0)
        with pytest.raises(ValueError):
            theta_truncated(-0.1, 0.5, 3)
        with pytest.raises(ValueError):
            theta_truncated(1.1, 0.5, 3)

    def test_per_point_values(self):
        out = [theta_truncated(t, 0.5, 3) for t in (0.0, 0.25, 1.0)]
        assert out == [1.0, pytest.approx(1.625), 3.0]


class TestThetaFull:
    def test_at_zero(self):
        assert theta_full(0.0, 1.0) == 1.0

    def test_half_against_direct_summation(self):
        oracle = direct_partial_theta(0.5, 1.0, 40)
        value = theta_full(0.5, 1.0, 1e-15)
        assert value == pytest.approx(oracle, abs=1e-14)
        assert value == pytest.approx(1.6416325606551538, abs=1e-14)

    def test_dominates_every_truncation(self):
        full = theta_full(0.5, 1.0)
        for l in range(1, 50):
            assert full >= theta_truncated(0.5, 1.0, l)

    def test_rejects_t_at_or_above_one(self):
        with pytest.raises(ValueError):
            theta_full(1.0, 1.0)

    def test_matches_direct_summation(self):
        for t in (0.1, 0.5, 0.93):
            oracle = direct_partial_theta(t, 0.6, 2000)
            assert theta_full(t, 0.6) == pytest.approx(oracle, rel=1e-12)


class TestJacobiTheta:
    def test_values_at_zero(self):
        assert jacobi_theta(3, 0.0) == 1.0
        assert jacobi_theta(4, 0.0) == 1.0
        assert jacobi_theta(2, 0.0) == 0.0

    def test_theta3_tenth(self):
        oracle = direct_theta3(0.1)
        assert oracle == pytest.approx(1.2002000020000003, abs=2e-16)
        assert jacobi_theta(3, 0.1) == pytest.approx(oracle, abs=1e-15)

    def test_against_direct_summation(self):
        for q in (0.05, 0.3, 0.7, 0.95):
            assert jacobi_theta(2, q) == pytest.approx(direct_theta2(q, 200), rel=1e-13)
            assert jacobi_theta(3, q) == pytest.approx(direct_theta3(q, 200), rel=1e-13)
            assert jacobi_theta(4, q) == pytest.approx(direct_theta4(q, 200), rel=1e-12)

    def test_theta3_dominates_theta4(self):
        for q in np.linspace(0.0, 0.999, 300).tolist():
            assert jacobi_theta(3, q) >= jacobi_theta(4, q) - 1e-15

    def test_theta4_alternating_bracket(self):
        for q in np.linspace(0.0, 0.99, 100):
            v = jacobi_theta(4, q)
            assert 1 - 2 * q - 1e-12 <= v <= 1 - 2 * q + 2 * q ** 4 + 1e-12

    @pytest.mark.parametrize("q", [0.05, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("kind", [2, 3, 4])
    def test_tail_bounds_the_omitted_terms(self, kind, q):
        # Paired terms 2 q^(e_n) of a direct 400-term sum; magnitudes fall
        # strictly, so the omitted ones are those no larger than the next
        # term, which the tail reports as tail * (1 - q) / 2.
        value, tail = jacobi_theta_and_tail(kind, q)
        if kind == 2:
            terms = [2.0 * q ** ((n + 0.5) ** 2) for n in range(400)]
        else:
            sign = 1.0 if kind == 3 else -1.0
            terms = [1.0] + [2.0 * sign ** n * q ** (n * n) for n in range(1, 400)]
        nxt = tail * (1.0 - q) / 2.0
        kept = [c for c in terms if abs(c) > 2.0 * nxt * (1.0 + 1e-9)]
        omitted = [c for c in terms if abs(c) <= 2.0 * nxt * (1.0 + 1e-9)]
        assert math.fsum(kept) == pytest.approx(value, rel=1e-14)
        assert abs(math.fsum(omitted)) <= tail
        assert 0.0 < tail < 1e-16 * abs(value)
        assert jacobi_theta(kind, q) == value

    def test_tail_vanishes_at_zero(self):
        for kind in (2, 3, 4):
            assert jacobi_theta_and_tail(kind, 0.0)[1] == 0.0

    def test_rejects_bad_kind_and_domain(self):
        with pytest.raises(ValueError):
            jacobi_theta(1, 0.5)
        with pytest.raises(ValueError):
            jacobi_theta(3, 1.0)


class TestFunctionalEquation:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_small_residual_at_anchors(self, x):
        assert functional_equation_residual(x) < 1e-12

    def test_residual_on_log_grid(self):
        for x in np.logspace(-1, 1, 25):
            assert functional_equation_residual(float(x)) < 1e-10

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            functional_equation_residual(0.0)


class TestThetaOfPower:
    @pytest.mark.parametrize("gamma", [0.05, 1.0 / 3.0, 1.0, 3.0])
    def test_agrees_with_direct_sum(self, gamma):
        switch_t = math.exp(-math.pi / gamma)
        ts = [0.0, switch_t, math.nextafter(switch_t, 0.0), math.nextafter(switch_t, 1.0)]
        ts += [s ** (1.0 / gamma) for s in (1e-6, 0.01, 0.04, 0.05, 0.1, 0.5, 0.9, 0.97)]
        for t in ts:
            assert _theta_of_power(t, gamma) == pytest.approx(theta_full(t, gamma), rel=1e-14)
        assert _theta_of_power(0.0, gamma) == 1.0

    def test_switch_point_sums_directly(self):
        # At gamma = 1 the switch point is s = t exactly, which takes the
        # direct sum; the next float up takes the modular side.
        assert _theta_of_power(_MODULAR_SWITCH, 1.0) == theta_full(_MODULAR_SWITCH, 1.0, 1e-14)
        above = math.nextafter(_MODULAR_SWITCH, 1.0)
        assert _theta_of_power(above, 1.0) == special_functions._theta_modular(
            -math.log(above) / math.pi
        )


class TestGammaChi:
    def test_value(self):
        assert gamma_chi().value == pytest.approx(0.7998308498, abs=1e-9)

    def test_maximizer(self):
        assert gamma_chi().u_star == pytest.approx(1.25643, abs=1e-5)

    def test_inner_max(self):
        assert gamma_chi().inner_max == pytest.approx(0.638172686, abs=1e-9)

    def test_stationarity(self):
        assert gamma_chi().stationarity_residual() < 1e-10

    def test_consistency(self):
        gc = gamma_chi()
        assert gc.value == pytest.approx(math.sqrt(math.pi / 2) * gc.inner_max, rel=1e-14)


class TestOneMinusTThetaMax:
    def test_exceeds_one_for_gamma_half(self):
        _, value = one_minus_t_theta_max(0.5)
        assert value > 1.0

    def test_exceeds_scaled_constant(self):
        _, value = one_minus_t_theta_max(0.5)
        assert value >= gamma_chi().value * math.sqrt(2.0) - 1e-9
        assert value >= 1.13113

    def test_gamma_one_exceeds_constant(self):
        _, value = one_minus_t_theta_max(1.0)
        assert value >= gamma_chi().value - 1e-9

    def test_floor_over_gamma_grid(self):
        gc = gamma_chi().value
        for gamma in np.linspace(0.05, 1.0, 20):
            _, value = one_minus_t_theta_max(float(gamma))
            assert value >= gc / math.sqrt(gamma) - 1e-9

    def test_direct_sum_only_below_switch(self, monkeypatch):
        # Past s = t^gamma = e^-pi the direct series needs thousands of
        # terms near t = 1; the modular side takes those points.
        seen = []
        direct = special_functions.theta_full

        def spy(t, gamma=1.0, tail_tol=1e-15):
            seen.append(t ** gamma)
            return direct(t, gamma, tail_tol)

        monkeypatch.setattr(special_functions, "theta_full", spy)
        for gamma in (0.05, 0.5, 1.0, 3.0):
            one_minus_t_theta_max(gamma)
        assert seen and max(seen) <= _MODULAR_SWITCH

    def test_matches_direct_sum_maximization(self):
        for gamma in np.linspace(0.05, 1.0, 20)[:-1]:
            _, direct = maximize_on_unit_interval(
                lambda t: (1.0 - t) * theta_full(t, float(gamma), 1e-14), xtol=1e-12
            )
            assert one_minus_t_theta_max(float(gamma))[1] == pytest.approx(direct, rel=1e-14)
        # At gamma = 1 the supremum is the t -> 0 limit, which no grid
        # point reaches.
        assert one_minus_t_theta_max(1.0) == (0.0, 1.0)

    @pytest.mark.parametrize("gamma", [1.5, 3.0])
    def test_gamma_at_least_one_gives_the_limit_at_zero(self, gamma):
        # (1 - t) theta(t^gamma) <= (1 - t) / (1 - t) = 1 term by term.
        assert one_minus_t_theta_max(gamma) == (0.0, 1.0)
        for t in (1e-6, 0.01, 0.5, 0.99):
            assert (1.0 - t) * theta_full(t, gamma) <= 1.0

    @pytest.mark.parametrize("gamma, tol", [(0.0, 1e-12), (math.nan, 1e-12), (0.5, 0.0), (0.5, math.nan)])
    def test_rejects_bad_arguments(self, gamma, tol):
        with pytest.raises(ValueError, match="must be positive"):
            one_minus_t_theta_max(gamma, tol)

    def test_maximizer_is_a_critical_point(self):
        t_star, value = one_minus_t_theta_max(0.5)
        for dt in (-1e-5, 1e-5):
            assert (1 - (t_star + dt)) * theta_full(t_star + dt, 0.5) <= value + 1e-12


_E8 = e8_series(64)


@pytest.mark.parametrize("gamma", [0.07, 1.0 / 3.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "f",
    [
        pytest.param(lambda t, g: theta_truncated(t, g, 1), id="theta_truncated-l1"),
        pytest.param(lambda t, g: theta_truncated(t, g, 9), id="theta_truncated-l9"),
        pytest.param(lambda t, g: theta_full(t, g), id="theta_full"),
        pytest.param(lambda t, g: theta_ratio(t, g, 1), id="theta_ratio-l1"),
        pytest.param(lambda t, g: theta_ratio(t, g, 9), id="theta_ratio-l9"),
        pytest.param(lambda t, g: _E8.evaluate(t), id="ThetaSeries.evaluate"),
        pytest.param(lambda t, g: jacobi_theta(2, t), id="jacobi_theta-2"),
        pytest.param(lambda t, g: jacobi_theta(3, t), id="jacobi_theta-3"),
        pytest.param(lambda t, g: jacobi_theta(4, t), id="jacobi_theta-4"),
    ],
)
def test_scalar_array_contract(f, gamma):
    """A float, an int or a numpy scalar gives a Python float, at every
    point of a 4096-point grid; an array of several points is rejected."""
    for t in (0, 0.0, 0.3, np.float64(0.3), np.array(0.3)):
        assert type(f(t, gamma)) is float
    for t in np.linspace(0.0, 1.0, 4096, endpoint=False):
        value = f(t, gamma)
        assert type(value) is float and value == f(float(t), gamma)
    with pytest.raises(TypeError):
        f(np.array([0.25, 0.5]), gamma)


class TestCheckUnitInterval:
    @pytest.mark.parametrize("t", [0.0, 0.3, np.float64(0.3), np.array(0.3), 1.0, 0, 1])
    def test_scalar_comes_back_as_python_float(self, t):
        assert type(check_unit_interval(t, hi_open=False)) is float
        assert check_unit_interval(t, hi_open=False) == float(t)

    @pytest.mark.parametrize("hi_open", [False, True])
    def test_every_path_accepts_and_rejects_the_same_values(self, hi_open):
        # A Python float, an int, np.float64 and a 0-d array all pass
        # through float().
        values = [-1.0, -1e-300, -0.0, 0.0, 5e-324, 0.5, math.nextafter(1.0, 0.0), 1.0,
                  math.nextafter(1.0, 2.0), 2.0, math.inf, -math.inf, math.nan]
        for v in values:
            outcomes = set()
            ints = [int(v)] if math.isfinite(v) and v == int(v) else []
            for arg in (v, *ints, np.float64(v), np.array(v)):
                try:
                    check_unit_interval(arg, hi_open)
                    outcomes.add(True)
                except ValueError:
                    outcomes.add(False)
            assert len(outcomes) == 1, v
            expected = 0.0 <= v and (v < 1.0 if hi_open else v <= 1.0)
            assert outcomes == {expected}, v


_EVALUATORS = [
    pytest.param(lambda t: theta_truncated(t, 0.5, 4), id="theta_truncated"),
    pytest.param(lambda t: theta_full(t, 0.5), id="theta_full"),
    pytest.param(lambda t: theta_ratio(t, 0.5, 4), id="theta_ratio"),
    pytest.param(lambda t: jacobi_theta(3, t), id="jacobi_theta"),
    pytest.param(lambda t: jacobi_theta_and_tail(2, t), id="jacobi_theta_and_tail"),
    pytest.param(lambda t: dn_theta(4, t), id="dn_theta"),
    pytest.param(lambda t: _E8.evaluate(t), id="ThetaSeries.evaluate"),
    pytest.param(lambda t: _E8.tail_bound(t), id="ThetaSeries.tail_bound"),
]


@pytest.mark.parametrize("f", _EVALUATORS)
@pytest.mark.parametrize("t", [math.nan], ids=["float"])
def test_nan_is_rejected(f, t):
    # NaN fails every comparison, so it once passed the range check and
    # came back as nan (theta_full spun through its whole term budget).
    with pytest.raises(ValueError, match="must lie in"):
        f(t)
