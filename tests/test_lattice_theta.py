import functools
import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from chromabound import (
    NoBoundError,
    TailBoundError,
    ThetaSeries,
    dn_series,
    double_cap_compare,
    e8_series,
    leech_series,
    mu_capped,
    mu_lattice,
    mu_z,
    ramanujan_tau,
    z_series,
)
from chromabound import lattice_theta, optimize
from chromabound.lattice_combinatorics import is_prime
from chromabound.lattice_theta import DEFAULT_SERIES_LENGTH, MuResult
from chromabound.optimize import GRID
from chromabound.special_functions import jacobi_theta

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


def dn_theta(n, t):
    """Oracle: the closed form theta_{D_n} = (theta3^n + theta4^n) / 2."""
    return 0.5 * (jacobi_theta(3, t) ** n + jacobi_theta(4, t) ** n)


def e8_theta(t):
    """Oracle: the closed form theta_E8 = (theta2^8 + theta3^8 + theta4^8) / 2."""
    return 0.5 * sum(jacobi_theta(kind, t) ** 8 for kind in (2, 3, 4))


@functools.lru_cache(maxsize=None)
def closed_form_max(label):
    """Oracle: max theta(t)(1-t)^d of Dn, E8 or Z by the grid search, from its closed form."""
    if label == "E8":
        theta, dim = e8_theta, 8
    elif label == "Z":
        theta, dim = (lambda t: jacobi_theta(3, t)), 1
    else:
        dim = int(label[1:])
        theta = functools.partial(dn_theta, dim)
    return optimize.maximize_on_unit_interval(lambda t: theta(t) * (1.0 - t) ** dim)[1]


def mu_dn(n):
    """Oracle: mu of D_n from the closed form."""
    return closed_form_max(f"D{n}") ** (-1.0 / n)


def count_calls(monkeypatch):
    """Count the calls of the series' evaluators, each on a float t, Z's included."""
    calls = {"evaluate": 0, "_value_and_slope": 0, "tail_bound": 0}
    for name in calls:
        method = getattr(ThetaSeries, name)

        def counting(*args, method=method, name=name):
            assert type(args[-1]) is float
            calls[name] += 1
            return method(*args)

        monkeypatch.setattr(ThetaSeries, name, counting)
    return calls


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
    """The closed-form oracle against vector enumeration."""

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


def omitted_theta3_terms(K, t):
    """Oracle: the exact omitted tail  2 sum_{n > isqrt(K)} t^(n^2)  of Z's series, 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        total, n = mpmath.mpf(0), math.isqrt(K) + 1
        while True:
            term = 2 * t ** (n * n)
            total += term
            if term < total * mpmath.mpf(10) ** -45:
                return total
            n += 1


class TestZSeries:
    """Z's series r_1(j) at norm step 1, and the packing bounds on it."""

    def test_coefficients_against_brute_force(self):
        K = 4096
        counts = [0] * (K + 1)
        for n in range(-K, K + 1):
            if n * n <= K:
                counts[n * n] += 1
        series = z_series(K)
        assert series.coeffs == tuple(counts)
        assert (series.dim, series.step, series.label) == (1, 1, "Z")

    def test_evaluation_is_theta3(self):
        series = z_series(512)
        for t in (0.1, 0.3, 0.5, 0.7):
            assert series.evaluate(t) == pytest.approx(jacobi_theta(3, t), rel=1e-14)
            value, slope = series._value_and_slope(t)
            assert value == series.evaluate(t)
            exact = 2.0 * sum(n * n * t ** (n * n - 1) for n in range(1, 23))
            assert slope == pytest.approx(exact, rel=1e-14)

    @pytest.mark.parametrize("K", [16, 64, 512])
    def test_tail_bound_dominates_the_omitted_terms(self, K):
        # Compared as floats: at K = 512 and t <= 0.2 the omitted sum lies
        # below the float range, where the bound returns 0.0 too.
        series = z_series(K)
        for t in (0.01, 0.05, 0.1, 0.2, 0.28, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999):
            assert series.tail_bound(t) >= float(omitted_theta3_terms(K, t)), t

    @pytest.mark.parametrize("a", [0.05, 0.2, 0.3, 0.5, 0.8, 0.9, 0.99, 0.999])
    def test_last_cell_bound_dominates_theta3(self, a):
        bound = z_series(64)._last_cell_bound(a)
        points = [a + (1.0 - a) * i / 2000 for i in range(2000)]
        points += [1.0 - 10.0 ** -e for e in range(4, 13) if 1.0 - 10.0 ** -e >= a]
        assert max(jacobi_theta(3, t) * (1.0 - t) for t in points) <= bound


#: tail_bound and _last_cell_bound at ``_STEP_2_POINTS`` of the K = 64
#: series of even lattices, as the even-lattice formulas compute them
#: (t^2 as ``t ** 2``, lam = -2 ln t, a^2 as ``a * a``).  At a = 0.1176,
#: ``a ** 2`` differs from ``a * a`` in the last bit.
_STEP_2_POINTS = (0.05, 0.1176, 0.2, 0.3, 0.5, 0.8, 0.95)
_STEP_2_VALUES = {
    "E8": (
        (
            '0x1.00d142f6a6882p-523', '0x1.55a6bb2ab932ap-365', '0x1.cfee61f34633ep-267',
            '0x1.0f3b9ca02472bp-191', '0x1.f18139448d594p-97', '0x1.602f68eec6796p-9',
            '0x1.1b27ad121dfccp+24',
        ),
        (
            '0x1.5ebe8c04623acp+20', '0x1.5c3a9ddecd380p+17', '0x1.25571636a6d0fp+15',
            '0x1.0b3706321b5fap+13', '0x1.26ba1e2d9fee7p+9', '0x1.8e382070e0d32p+1',
            '0x1.3da6f80994b1cp-8',
        ),
    ),
    "Leech": (
        (
            '0x1.5843a4707939fp-469', '0x1.cd8d11827aa66p-311', '0x1.3c3c42616576dp-212',
            '0x1.76725d33c7297p-137', '0x1.64d5766006e7cp-42', '0x1.3def73695636ep+46',
            '0x1.65577a6de7d3ep+82',
        ),
        (
            '0x1.7cae25e5fd3cfp+45', '0x1.6febe7e35f9d3p+41', '0x1.df8688ac485e8p+37',
            '0x1.e4a0f999f506fp+33', '0x1.6485f46dd6188p+25', '0x1.dccb9b1526055p+5',
            '0x1.3a53961a99f69p-21',
        ),
    ),
    "D8": (
        (
            '0x1.00d142f6a6882p-523', '0x1.55a6bb2ab932ap-365', '0x1.cfee61f34633ep-267',
            '0x1.0f3b9ca02472bp-191', '0x1.f18139448d594p-97', '0x1.602f68eec6796p-9',
            '0x1.1b27ad121dfccp+24',
        ),
        (
            '0x1.5ebe8c04623acp+20', '0x1.5c3a9ddecd380p+17', '0x1.25571636a6d0fp+15',
            '0x1.0b3706321b5fap+13', '0x1.26ba1e2d9fee7p+9', '0x1.8e382070e0d32p+1',
            '0x1.3da6f80994b1cp-8',
        ),
    ),
}


@pytest.mark.parametrize("label", list(_STEP_2_VALUES))
def test_step_2_bounds_are_the_even_lattice_bounds_bit_for_bit(label):
    series = {"E8": e8_series, "Leech": leech_series, "D8": lambda K: dn_series(8, K)}[label](64)
    assert series.step == 2
    tails, lasts = _STEP_2_VALUES[label]
    assert [series.tail_bound(t).hex() for t in _STEP_2_POINTS] == list(tails)
    assert [series._last_cell_bound(a).hex() for a in _STEP_2_POINTS] == list(lasts)


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
            gap = mu_dn(n) - base
            model = base * (2.0 ** (1.0 / n) - 1.0)
            assert gap == pytest.approx(model, rel=1e-2)
            gaps.append(gap)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    @pytest.mark.parametrize("n", range(8, 25))
    def test_dn_series_route_matches_closed_form(self, n):
        # The D_n range of the benchmark's lattice workload, at its default K.
        assert mu_lattice(dn_series(n, 512)).mu == pytest.approx(mu_dn(n), rel=1e-12, abs=0.0)

    def test_insufficient_truncation_raises(self):
        with pytest.raises(TailBoundError):
            mu_lattice(e8_series(2))

    @pytest.mark.parametrize("series", [e8_series(16), leech_series(29)], ids=["E8-16", "Leech-29"])
    def test_certification_edge(self, series):
        # The smallest K that settles at tol 1e-9, not at 1e-12.
        result = mu_lattice(series, 1e-9)
        assert result.tail_bound < 1e-9
        with pytest.raises(TailBoundError, match="at the maximizer is not below 1e-12"):
            mu_lattice(series, 1e-12)

    @pytest.mark.parametrize(
        "n, ks", [(21, (56, 64, 512)), (38, (160, 256, 512))], ids=["D21", "D38"]
    )
    def test_argmax_does_not_depend_on_where_the_tail_certifies(self, n, ks):
        # From the smallest K that settles it on, t_star is one float: the
        # search for it never looks at the tail.
        results = [mu_lattice(dn_series(n, K)) for K in ks]
        assert len({r.t_star for r in results}) == 1
        assert len({r.mu for r in results}) == 1

    def test_maximizer_past_the_certified_region_raises(self):
        with pytest.raises(TailBoundError, match="at the maximizer is not below 1e-12"):
            mu_lattice(dn_series(52, 16), 1e-12)

    @pytest.mark.parametrize(
        "series, error",
        [(e8_series(64), None), (dn_series(2, 1100), NoBoundError)],
        ids=["success", "no-bound"],
    )
    def test_counts_series_evaluations(self, monkeypatch, series, error):
        # The maximizer's search evaluates the series at a few dozen points,
        # and the proof of the interval takes the series, its slope and
        # its tail once at each point it visits, and the tail once more
        # at t_star.
        calls = count_calls(monkeypatch)
        if error is None:
            mu_lattice(series)
            assert calls["evaluate"] <= 128
            assert calls["tail_bound"] == calls["_value_and_slope"] + 1 <= 300
        else:
            with pytest.raises(error):
                mu_lattice(series)
            assert calls["evaluate"] <= 128
            assert calls["tail_bound"] == calls["_value_and_slope"] < 100

    def test_mu_z_argmax_does_not_depend_on_tol(self):
        t_stars = {mu_z(tol).t_star for tol in (1e-9, 1e-12, 1e-13)}
        assert len(t_stars) == 1

    def test_z_tail_bound_is_packing_tail_at_t_star(self):
        # Z settles on the first prefix, 64 coefficients.
        z = mu_z()
        assert z.tail_bound == z_series(64).tail_bound(z.t_star)

    def test_tail_at_t_star_above_tol_raises(self):
        # At K = 16 the tail at the maximizer is about 7e-9; at the default
        # K the rounding margin, not the tail, stops a tol of 1e-30.
        assert mu_z(1e-12).tail_bound < 1e-26
        with pytest.raises(TailBoundError, match="at the maximizer"):
            mu_z(1e-30, 16)

    @pytest.mark.parametrize("n, K", [(2, 1100), (5, 4096)])
    def test_long_dn_series_certifies_no_bound(self, n, K):
        with pytest.raises(NoBoundError, match="at most 1 \\+ 1e-09 on all of \\(0, 1\\)"):
            mu_lattice(dn_series(n, K))

    @pytest.mark.parametrize(
        "n, error, match",
        [
            # With no nonzero norm stored, the tail bound takes the minimum
            # norm 4, which is D1's own, and already proves no bound.
            (1, NoBoundError, "gives no bound"),
            *((n, TailBoundError, "request larger K") for n in (5, 6, 8)),
        ],
        ids=["1", "5", "6", "8"],
    )
    def test_short_dn_series_asks_for_larger_k(self, n, error, match):
        # At K = 1 the tail bound is too large to prove anything, whether
        # or not the lattice gives a bound (mu_dn(8) is about 0.963).
        with pytest.raises(error, match=match):
            mu_lattice(dn_series(n, 1))

    def test_short_series_raises_at_every_tol(self):
        for tol in (1e-9, 1e-12):
            with pytest.raises(TailBoundError):
                mu_lattice(e8_series(12), tol)


_INTERVAL_CASES = {
    **{
        f"D{n}": (lambda tol, n=n: mu_capped(lambda K: dn_series(n, K), 512, tol))
        for n in range(8, 25)
    },
    "E8": lambda tol: mu_capped(e8_series, 512, tol),
    "Z": mu_z,
}


class TestInterval:
    """``mu_lattice`` proves [max_value, max_upper] for the maximum of the full objective."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("label", list(_INTERVAL_CASES))
    def test_contains_the_closed_form_maximum(self, label, tol):
        result = _INTERVAL_CASES[label](tol)
        exact = closed_form_max(label)
        # max_value is a float sum of the truncated series, the oracle one
        # of the closed form: they may differ by a few ulps.
        assert result.max_value <= exact * (1.0 + 1e-14)
        assert exact <= result.max_upper
        assert result.max_upper - result.max_value <= tol * result.max_value

    @pytest.mark.parametrize("K", [64, 8192])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_small_dn_proves_no_bound_in_few_evaluations(self, monkeypatch, n, K):
        series = dn_series(n, K)
        calls = count_calls(monkeypatch)
        with pytest.raises(NoBoundError, match="on all of"):
            mu_lattice(series)
        assert calls["_value_and_slope"] < 100

    @pytest.mark.parametrize(
        "label, K, most",
        [("leech", 24, 0), ("dn:64", 64, 0), ("dn:64", 128, 4), ("dn:64", 256, 6)],
    )
    def test_too_short_a_prefix_fails_at_once(self, monkeypatch, label, K, most):
        # The tail at the maximizer is not below tol, or the series plus
        # its tail exceeds the aim at a point the proof visits early.
        series = _builder(label)(K)
        calls = count_calls(monkeypatch)
        with pytest.raises(TailBoundError, match="request larger K"):
            mu_lattice(series)
        assert calls["_value_and_slope"] <= most

    @pytest.mark.parametrize(
        "run",
        [
            lambda tol: mu_lattice(e8_series(64), tol),
            lambda tol: mu_lattice(dn_series(16, 512), tol),
            lambda tol: mu_lattice(dn_series(5, 64), tol),
            mu_z,
        ],
        ids=["E8-64", "D16-512", "D5-64", "Z"],
    )
    @pytest.mark.parametrize("tol", [1e-15, 1e-20])
    def test_unreachable_tol_raises(self, monkeypatch, run, tol):
        # A quarter of the rounding margin of the cell bounds is above
        # 1e-15, so no cell about the maximizer could close: the proof
        # fails before its first evaluation and asks for a larger tol.
        calls = count_calls(monkeypatch)
        with pytest.raises(TailBoundError, match="request a larger tol$"):
            run(tol)
        assert calls["_value_and_slope"] == 0

    @pytest.mark.parametrize(
        "run, terms, dim",
        [
            (lambda tol: mu_lattice(e8_series(64), tol), 65, 8),
            (lambda tol: mu_lattice(dn_series(16, 512), tol), 513, 16),
            (lambda tol: mu_lattice(dn_series(5, 64), tol), 65, 5),
            (lambda tol: mu_z(tol, 64), 65, 1),
        ],
        ids=["E8-64", "D16-512", "D5-64", "Z"],
    )
    def test_tol_just_above_the_floor_fails_in_the_proof(self, monkeypatch, run, terms, dim):
        # Twice the floor (m - 1)/4 = (terms + dim + 16) 2^-53 is still
        # too small for the proof; it ends at a point it visits whose
        # bound is above the aim.
        calls = count_calls(monkeypatch)
        with pytest.raises(TailBoundError, match="exceeds"):
            run(2 * (terms + dim + 16) * 2.0 ** -53)
        assert 0 < calls["_value_and_slope"] <= 400


def _builder(label):
    """The series builder of a CLI lattice label: zn, e8, leech or dn:<n>."""
    if label.startswith("dn:"):
        n = int(label[len("dn:"):])
        return lambda K: dn_series(n, K)
    return {"zn": z_series, "e8": e8_series, "leech": leech_series}[label]


def _golden_series_cases():
    """(label, K) of every golden lattice-mu case."""
    spec = importlib.util.spec_from_file_location(
        "golden_generate", Path(__file__).parent / "golden" / "generate.py"
    )
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    for _, args in golden.CASES["lattice_mu"]:
        options = dict(zip(args[1::2], args[2::2]))
        yield options["--lattice"], int(options.get("--K", DEFAULT_SERIES_LENGTH))


_PREFIX_CASES = list(
    dict.fromkeys(
        [
            *_golden_series_cases(),
            # The draws of the benchmark's lattice workload, ends included.
            *(("leech", K) for K in (1536, 1537, 1800, 2047, 2048)),
            *(("e8", K) for K in (1024, 1333, 2048)),
            *((f"dn:{n}", DEFAULT_SERIES_LENGTH) for n in range(8, 25)),
        ]
    )
)


def _settle(run):
    """The MuResult of ``run``, or its error class and message."""
    try:
        return run()
    except (TailBoundError, NoBoundError) as exc:
        return type(exc), str(exc)


def _prefix_lengths(label, K, tol=1e-9):
    """The prefix lengths ``mu_capped`` builds for a CLI label, in order."""
    lengths = []
    build = _builder(label)
    _settle(lambda: mu_capped(lambda P: lengths.append(P) or build(P), K, tol))
    return lengths


class TestPrefix:
    """``mu_capped`` settles a lattice on a doubling prefix of at most K
    coefficients, with the outcome of the full series."""

    @pytest.mark.parametrize("label, K", _PREFIX_CASES, ids=[f"{l}-{K}" for l, K in _PREFIX_CASES])
    def test_same_outcome_as_the_full_series(self, label, K):
        build = _builder(label)
        prefix = _settle(lambda: mu_capped(build, K))
        full = _settle(lambda: mu_lattice(build(K)))
        if not isinstance(full, MuResult):
            assert prefix == full
            return
        assert isinstance(prefix, MuResult)
        for name in ("lattice_label", "dim"):
            assert getattr(prefix, name) == getattr(full, name)
        for name in ("t_star", "mu", "max_value"):
            assert getattr(prefix, name).hex() == getattr(full, name).hex(), name
        assert 0.0 <= prefix.tail_bound < 1e-9

    @pytest.mark.parametrize(
        "label, K, lengths",
        [
            ("leech", 2048, [64]),
            ("dn:64", 8192, [64, 128, 256, 512]),
            ("dn:5", 8192, [64]),  # no bound, proven on the first prefix
            ("e8", 16, [16]),
            ("dn:21", 28, [28]),  # fails at the cap
            ("leech", 24, [24]),  # fails at K, as before
            ("leech", 63, [63]),
            ("zn", 8192, [64]),
            ("zn", 16, [16]),  # fails at the cap
        ],
    )
    def test_schedule(self, label, K, lengths):
        assert _prefix_lengths(label, K) == lengths

    def test_tol_below_the_margin_stops_at_the_first_prefix(self):
        # The rounding margin of the proof grows with the prefix, so no
        # longer prefix can meet a tol it leaves no room for.
        lengths = []
        error = _settle(
            lambda: mu_capped(lambda P: lengths.append(P) or dn_series(5, P), 8192, 1e-15)
        )
        assert lengths == [64]
        assert error[0] is lattice_theta._TolBelowMarginError
        assert "tol 1e-15" in error[1] and error[1].endswith("request a larger tol")

    def test_lengths_double_up_to_the_cap_and_stop(self):
        # A stand-in that certifies at no length: the error raised is that
        # of the series built at the cap.
        lengths = []
        short = e8_series(2)
        error = _settle(lambda: mu_capped(lambda P: lengths.append(P) or short, 1000))
        assert lengths == [64, 128, 256, 512, 1000]
        assert error == _settle(lambda: mu_lattice(short))
        assert error[0] is TailBoundError


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
}


class TestSearchAgainstGrid:
    """The cell search of ``mu_lattice`` against the grid protocol it replaced:
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


def rising_points(K):
    """The grid points with t^2 <= K/(K+1), compared exactly."""
    return [t for t in GRID if Fraction(t) ** 2 <= Fraction(K, K + 1)]


def _truncations(full, ks):
    return [ThetaSeries(full.dim, full.coeffs[: K + 1], full.label) for K in ks]


class TestCertification:
    """``ThetaSeries.tail_bound`` rises in t up to t^2 = K/(K+1); no proof
    of ``mu_lattice`` relies on it."""

    @pytest.mark.parametrize(
        "series",
        [
            *_truncations(e8_series(8192), (16, 24, 29, 64, 512, 1536, 2048, 8192)),
            *_truncations(leech_series(2048), (16, 24, 29, 64, 512, 1536, 2048)),
            *[s for n in (1, 2, 4, 8, 16, 24, 64) for s in _truncations(dn_series(n, 512), (16, 100, 512))],
        ],
        ids=lambda s: f"{s.label}-{len(s.coeffs) - 1}",
    )
    def test_float_tail_bound_rises_on_the_grid(self, series):
        K = len(series.coeffs) - 1
        points = rising_points(K)
        assert len(points) > 3
        values = [series.tail_bound(t) for t in points]
        assert all(a <= b for a, b in zip(values, values[1:]))
        # Past the rising region the exact bound is above 0.34 (K >= 16).
        assert all(series.tail_bound(t) > 0.34 for t in GRID[len(points) :])


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
