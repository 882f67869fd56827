import bisect
import itertools
import math

import numpy as np
import pytest

from chromabound import (
    NoBoundError,
    TailBoundError,
    ThetaSeries,
    dn_series,
    dn_theta,
    double_cap_compare,
    e8_series,
    leech_series,
    mu_dn,
    mu_lattice,
    mu_z,
    ramanujan_tau,
)
from chromabound import optimize
from chromabound.lattice_combinatorics import is_prime
from chromabound.lattice_theta import GRID, _TAIL_MARGIN, _exceeds_one
from chromabound.special_functions import jacobi_theta, jacobi_theta_and_tail

SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def enumerate_even_norm_counts(n, max_norm):
    """Oracle: count vectors of Z^n with even squared norm by brute force."""
    reach = int(math.isqrt(max_norm)) + 1
    counts = {}
    for v in itertools.product(range(-reach, reach + 1), repeat=n):
        norm = sum(c * c for c in v)
        if norm <= max_norm and norm % 2 == 0:
            counts[norm] = counts.get(norm, 0) + 1
    return counts


def divisors(j):
    return [d for d in range(1, j + 1) if j % d == 0]


def convolved_norm_counts(n, limit):
    """Oracle: #{v in Z^n : |v|^2 = e} for e <= limit, one coordinate at a time."""
    counts = [1] + [0] * limit
    squares = []
    c = 1
    while c * c <= limit:
        squares.append(c * c)
        c += 1
    for _ in range(n):
        new = counts[:]  # the coordinate value 0 contributes identity
        for sq in squares:
            for e in range(limit - sq + 1):
                if counts[e]:
                    new[e + sq] += 2 * counts[e]
        counts = new
    return counts


class TestDnTheta:
    def test_at_zero(self):
        for n in (1, 2, 5):
            assert dn_theta(n, 0.0) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_vector_enumeration(self, n):
        max_norm = 120  # tail below 1e-30 for t <= 0.5
        counts = enumerate_even_norm_counts(n, max_norm)
        for t in (0.1, 0.3, 0.5):
            oracle = sum(c * t ** norm for norm, c in counts.items())
            assert dn_theta(n, t) == pytest.approx(oracle, abs=1e-10)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            dn_theta(2, 1.0)
        with pytest.raises(ValueError):
            dn_theta(0, 0.5)


class TestDnSeries:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_coefficients_against_enumeration(self, n):
        series = dn_series(n, 20)
        counts = enumerate_even_norm_counts(n, 40)
        for j in range(21):
            assert series.coeffs[j] == counts.get(2 * j, 0)

    def test_d8_kissing_number(self):
        assert dn_series(8, 4).coeffs[1] == 112

    @pytest.mark.parametrize(
        "n, K", [(1, 128), (2, 128), (3, 128), (8, 128), (16, 128), (24, 128), (64, 64)]
    )
    def test_coefficients_against_convolution(self, n, K):
        counts = convolved_norm_counts(n, 2 * K)
        assert dn_series(n, K).coeffs == tuple(counts[0::2])

    def test_evaluation_matches_closed_form(self):
        series = dn_series(3, 128)
        for t in (0.1, 0.3, 0.5):
            assert series.evaluate(t) == pytest.approx(dn_theta(3, t), rel=1e-12)


class TestE8Series:
    def test_first_coefficients(self):
        series = e8_series(8)
        oracle = [240 * sum(d ** 3 for d in divisors(j)) for j in (1, 2, 3)]
        assert oracle == [240, 2160, 6720]
        assert list(series.coeffs[1:4]) == oracle

    def test_metadata(self):
        series = e8_series(16)
        assert series.dim == 8
        assert len(series.coeffs) == 17
        assert series.coeffs[0] == 1


class TestLeechSeries:
    def test_tau_against_jacobi_identity(self):
        # Independent expansion: prod (1-q^n)^3 = sum (-1)^m (2m+1) q^(m(m+1)/2),
        # so the 24th power is the 8th power of that sparse series.
        K = 64
        limit = K - 1
        cube = [0] * (limit + 1)
        m = 0
        while m * (m + 1) // 2 <= limit:
            cube[m * (m + 1) // 2] += (-1) ** m * (2 * m + 1)
            m += 1

        def mul(a, b):
            out = [0] * (limit + 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b[: limit - i + 1]):
                        if bj:
                            out[i + j] += ai * bj
            return out

        p2 = mul(cube, cube)
        p4 = mul(p2, p2)
        p8 = mul(p4, p4)
        oracle = [0] + [p8[j - 1] for j in range(1, K + 1)]
        assert ramanujan_tau(K) == oracle

    def test_tau_multiplicative(self):
        # Hecke: tau(mn) = tau(m) tau(n) for coprime m, n.
        K = 2048
        tau = ramanujan_tau(K)
        assert tau[1] == 1
        for m in range(2, K + 1):
            for n in range(m + 1, K // m + 1):
                if math.gcd(m, n) == 1:
                    assert tau[m * n] == tau[m] * tau[n], (m, n)

    def test_tau_prime_power_recursion(self):
        # Hecke: tau(p^(r+1)) = tau(p) tau(p^r) - p^11 tau(p^(r-1)).
        K = 2048
        tau = ramanujan_tau(K)
        checked = 0
        for p in filter(is_prime, range(2, math.isqrt(K) + 1)):
            prev, cur = 1, p
            while cur * p <= K:
                assert tau[cur * p] == tau[p] * tau[cur] - p ** 11 * tau[prev], (p, cur)
                prev, cur = cur, cur * p
                checked += 1
        assert checked == 31  # prime powers p^(r+1) <= 2048 with r >= 1

    def test_anchor_coefficients(self):
        series = leech_series(8)
        assert series.coeffs[1] == 0
        assert series.coeffs[2] == 196560
        sigma11_3 = sum(d ** 11 for d in divisors(3))
        tau3 = ramanujan_tau(3)[3]
        assert 65520 * (sigma11_3 - tau3) // 691 == 16773120
        assert series.coeffs[3] == 16773120

    def test_integrality_and_nonnegativity(self):
        series = leech_series(512)
        assert all(isinstance(c, int) and c >= 0 for c in series.coeffs)

    def test_metadata(self):
        assert leech_series(16).dim == 24


class TestMu:
    def test_mu_z(self):
        result = mu_z()
        assert result.mu == pytest.approx(0.883337, abs=1e-6)
        assert result.mu > 1.0 / math.sqrt(2.0)
        assert result.mu > SQRT3_OVER_2
        assert result.mu == pytest.approx(1.0 / result.max_value, rel=1e-12)

    def test_mu_e8(self):
        result = mu_lattice(e8_series(512))
        assert result.mu == pytest.approx(0.88406, abs=1e-5)
        assert result.mu == pytest.approx(result.max_value ** (-1.0 / 8.0), rel=1e-12)
        assert result.tail_bound < 1e-9

    def test_mu_leech(self):
        result = mu_lattice(leech_series(512))
        assert result.mu == pytest.approx(0.88407, abs=1e-5)
        assert 0.0 < result.mu < 1.0

    def test_all_three_worse_than_known_bracket(self):
        values = [mu_z().mu, mu_lattice(e8_series(256)).mu, mu_lattice(leech_series(256)).mu]
        assert all(SQRT3_OVER_2 < v < 1.0 for v in values)

    def test_dn_convergence_to_mu_z(self):
        # The exact gap is mu_Z * (2^(1/n) - 1) up to a factor 1 + O(rho^n):
        # the odd-part theta contribution decays geometrically.
        base = mu_z().mu
        gaps = []
        for n in (8, 16, 32, 64):
            gap = mu_dn(n).mu - base
            model = base * (2.0 ** (1.0 / n) - 1.0)
            assert gap == pytest.approx(model, rel=1e-2)
            gaps.append(gap)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_dn_series_route_matches_closed_form(self):
        for n in (8, 16):
            via_series = mu_lattice(dn_series(n, 128)).mu
            assert via_series == pytest.approx(mu_dn(n).mu, abs=1e-9)

    def test_insufficient_truncation_raises(self):
        with pytest.raises(TailBoundError):
            mu_lattice(e8_series(2))

    @pytest.mark.parametrize("series", [e8_series(16), leech_series(29)], ids=["E8-16", "Leech-29"])
    def test_certification_edge(self, series):
        # The smallest K certified far enough past the maximizer at tol 1e-9,
        # not at 1e-12.
        result = mu_lattice(series, 1e-9)
        assert result.tail_bound < 1e-9
        with pytest.raises(TailBoundError, match="edge of the certified region"):
            mu_lattice(series, 1e-12)

    @pytest.mark.parametrize(
        "n, ks", [(21, (28, 32, 64, 512)), (38, (48, 64, 512))], ids=["D21", "D38"]
    )
    def test_argmax_does_not_depend_on_where_the_tail_certifies(self, n, ks):
        # At the smallest K the certified region ends one grid point past
        # t_star; the whole grid is scanned, so t_star is one float.
        results = [mu_lattice(dn_series(n, K)) for K in ks]
        assert len({r.t_star for r in results}) == 1
        assert len({r.mu for r in results}) == 1

    def test_maximizer_past_the_certified_region_raises(self):
        with pytest.raises(TailBoundError, match="at or past the edge of the certified region"):
            mu_lattice(dn_series(52, 16), 1e-12)

    @pytest.mark.parametrize(
        "series, error",
        [(e8_series(64), None), (dn_series(2, 1100), NoBoundError)],
        ids=["success", "no-bound"],
    )
    def test_counts_series_evaluations(self, monkeypatch, series, error):
        # The search evaluates the series at a few dozen points, not on the
        # grid; the tail is scanned up to the first grid point past t_star
        # and taken once more at t_star, or, on the no-bound path, taken at
        # the first three grid points and then at every grid point.
        calls = {"evaluate": 0, "tail_bound": 0}
        for name in calls:
            method = getattr(ThetaSeries, name)

            def counting(self, t, method=method, name=name):
                assert type(t) is float
                calls[name] += 1
                return method(self, t)

            monkeypatch.setattr(ThetaSeries, name, counting)
        if error is None:
            result = mu_lattice(series)
            assert calls["evaluate"] <= 128
            assert calls["tail_bound"] == bisect.bisect(GRID, result.t_star) + 2
        else:
            with pytest.raises(error):
                mu_lattice(series)
            assert calls["evaluate"] <= len(GRID) // 4
            assert calls["tail_bound"] == 3 + len(GRID)

    @pytest.mark.parametrize(
        "theta, tail, dim",
        [
            (lambda t: 1.0 + t, lambda t: 0.0, 1),  # 1 - t^2: each block bound exceeds 1
            (lambda t: 1.0 + t, lambda t: 1e-3 * t, 1),  # exceeds 1 only for t < 1e-3
            (lambda t: 1.0 + 5.0 * t, lambda t: 0.0, 1),
            *[(s.evaluate, s.tail_bound, s.dim) for s in (dn_series(2, 64), dn_series(5, 1024))],
        ],
        ids=["below-one", "tail-lifts-it", "above-one", "D2-64", "D5-1024"],
    )
    def test_exceeds_one_matches_a_pointwise_pass(self, theta, tail, dim):
        pointwise = any(
            theta(t) * (1.0 - t) ** dim + tail(t) * (1.0 - t) ** dim > 1.0 for t in GRID
        )
        assert _exceeds_one(theta, tail, dim) == pointwise

    def test_mu_z_argmax_does_not_depend_on_tol(self):
        t_stars = {mu_z(tol).t_star for tol in (1e-9, 1e-12, 1e-20)}
        assert len(t_stars) == 1

    def test_tail_bound_is_theta_remainder_at_t_star(self):
        z = mu_z()
        assert z.tail_bound == jacobi_theta_and_tail(3, z.t_star)[1]
        d8 = mu_dn(8)
        t3, tail3 = jacobi_theta_and_tail(3, d8.t_star)
        assert d8.tail_bound == 8 * tail3 * (t3 + tail3) ** 7 * _TAIL_MARGIN
        assert 0.0 < d8.tail_bound < 1e-10

    def test_tail_at_t_star_above_tol_raises(self):
        assert mu_z(1e-20).tail_bound < 1e-20
        with pytest.raises(TailBoundError, match="at the maximizer"):
            mu_z(1e-30)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_small_dn_has_no_bound(self, n):
        # theta_{D_n}(t)(1-t)^n stays below its t -> 0 limit 1, so mu = 1;
        # a larger tol does not change that.
        for tol in (1e-10, 1e-3):
            with pytest.raises(NoBoundError, match="not above its t -> 0 limit 1"):
                mu_dn(n, tol)

    def test_dn_past_the_float_range_raises(self):
        # theta3^500 overflows a float at cells the search visits.
        with pytest.raises(TailBoundError, match="theta_D500 leaves the float range"):
            mu_dn(500)

    @pytest.mark.parametrize("n, K", [(2, 1100), (5, 4096)])
    def test_long_dn_series_certifies_no_bound(self, n, K):
        # From K on, theta plus tail is finite and at most 1 on the whole grid.
        with pytest.raises(NoBoundError, match="at every grid point"):
            mu_lattice(dn_series(n, K))

    @pytest.mark.parametrize("n", [1, 5, 6, 8])
    def test_short_dn_series_asks_for_larger_k(self, n):
        # At K = 1 the tail certifies fewer than 3 grid points, whether or
        # not the lattice gives a bound (mu_dn(8) is about 0.963).
        with pytest.raises(TailBoundError, match="on too small a region; request larger K"):
            mu_lattice(dn_series(n, 1))

    def test_short_series_raises_at_every_tol(self):
        for tol in (1e-9, 1e-12):
            with pytest.raises(TailBoundError):
                mu_lattice(e8_series(12), tol)


def _series_case(series):
    return (
        lambda: mu_lattice(series),
        lambda t: series.evaluate(t) * (1.0 - t) ** series.dim,
        series.dim,
    )


_SEARCH_CASES = {
    **{f"E8-{K}": _series_case(e8_series(K)) for K in (512, 2048)},
    **{f"Leech-{K}": _series_case(leech_series(K)) for K in (512, 2048)},
    **{f"D{n}-series": _series_case(dn_series(n)) for n in (8, 16, 21, 24, 64)},
    "Z": (mu_z, lambda t: jacobi_theta(3, t) * (1.0 - t), 1),
    **{
        f"D{n}-closed": (lambda n=n: mu_dn(n), lambda t, n=n: dn_theta(n, t) * (1.0 - t) ** n, n)
        for n in (8, 16)
    },
}


class TestSearchAgainstGrid:
    """The cell search of ``_mu`` against the grid protocol it replaced:
    ``optimize.maximize_on_unit_interval`` on the same objective."""

    @pytest.mark.parametrize("case", list(_SEARCH_CASES), ids=list(_SEARCH_CASES))
    def test_same_maximum(self, case):
        run, objective, dim = _SEARCH_CASES[case]
        result = run()
        t_ref, max_ref = optimize.maximize_on_unit_interval(objective)
        assert result.max_value == pytest.approx(max_ref, rel=1e-13, abs=0.0)
        assert result.mu == pytest.approx(max_ref ** (-1.0 / dim), rel=1e-13, abs=0.0)
        assert abs(result.t_star - t_ref) <= 1e-6

    def test_certification_grid_is_the_optimize_grid(self):
        # numpy.linspace computes i * step, so (i + 1) / 4097 would not match.
        assert list(GRID) == np.linspace(0.0, 1.0, 4098)[1:-1].tolist()


class TestDoubleCapCompare:
    def test_mu_z_is_no_improvement(self):
        assert double_cap_compare(mu_z().mu) == "no improvement"

    def test_hypothetical_improvement(self):
        assert double_cap_compare(0.85) == "improvement"

    def test_boundary_is_not_strict_improvement(self):
        assert double_cap_compare(SQRT3_OVER_2) == "no improvement"

    def test_domain(self):
        with pytest.raises(ValueError):
            double_cap_compare(1.5)


class TestThetaSeriesType:
    def test_requires_unit_constant_term(self):
        with pytest.raises(ValueError):
            ThetaSeries(dim=2, coeffs=(2, 4))

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            ThetaSeries(dim=2, coeffs=(1, -4))

    def test_tail_bound_dominates_true_tail(self):
        # The true remainder past K from a series of length 2048, whose own
        # remainder is below the float resolution of the sum for t <= 0.95.
        ts = [0.1 * i for i in range(1, 10)] + [0.95]
        checked = [0.0] + ts + list(GRID[::97])
        longs = [e8_series(2048), leech_series(2048)]
        longs += [dn_series(n, 2048) for n in (1, 2, 8, 24, 64)]
        min_norm = {"E8": 2, "Leech": 4, "D1": 4, "D2": 2, "D8": 2, "D24": 2, "D64": 2}
        for full in longs:
            a = 2.0 / math.sqrt(min_norm[full.label] / 2)
            for K in (16, 32, 64):
                short = ThetaSeries(full.dim, full.coeffs[: K + 1], full.label)
                js = np.arange(K + 1, 4097)
                for t in ts:
                    true_tail = math.fsum(
                        c * t ** (2 * j) for j, c in enumerate(full.coeffs) if j > K
                    )
                    bound = short.tail_bound(t)
                    assert bound >= true_tail, (full.label, K, t)
                    # The integral of the docstring's steps 3-4 lies between x
                    # and x^-1 times the sum of step 2, so the bound lies
                    # between (1 - x) and (1 - x)/x^2 times that sum.
                    x = t * t
                    by_parts = (1 - x) * math.fsum((1 + a * np.sqrt(js)) ** full.dim * x ** js)
                    assert by_parts <= bound <= by_parts / x ** 2 * (1 + 1e-8), (full.label, K, t)
                assert all(math.isfinite(short.tail_bound(t)) for t in GRID), (full.label, K)
                assert short.tail_bound(0.0) == 0.0
                points = [short.tail_bound(np.float64(t)) for t in checked]
                assert points == [short.tail_bound(float(t)) for t in checked]
        # With no nonzero norm stored, the minimum norm is 2(K+1) = 4, not 2:
        # still above the true Leech tail, and below a bound that assumes norm 2.
        bare, leech = leech_series(1), longs[1]
        assert bare.coeffs == (1, 0)
        for t in ts:
            true_tail = math.fsum(c * t ** (2 * j) for j, c in enumerate(leech.coeffs) if j > 1)
            assert true_tail <= bare.tail_bound(t) < ThetaSeries(24, (1, 1)).tail_bound(t)
