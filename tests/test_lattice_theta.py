import bisect
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
)
from chromabound import optimize
from chromabound.brent import cell_search_max
from chromabound.lattice_combinatorics import is_prime
from chromabound.lattice_theta import DEFAULT_SERIES_LENGTH, GRID, MuResult, _exceeds_one
from chromabound.special_functions import check_positive, jacobi_theta, jacobi_theta_and_tail

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


def mu_dn(n):
    """Oracle: mu of D_n from the closed form, by the reference grid search."""
    _, max_value = optimize.maximize_on_unit_interval(lambda t: dn_theta(n, t) * (1.0 - t) ** n)
    return max_value ** (-1.0 / n)


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
        # grid.  The tail rises over the grid up to t^2 = K/(K+1), so it is
        # taken at the third grid point, at the first grid point past
        # t_star and at t_star, or, on the no-bound path, at the third grid
        # point and then at every grid point.
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
            assert bisect.bisect(GRID, result.t_star) > 3
            assert calls["tail_bound"] == 3
        else:
            with pytest.raises(error):
                mu_lattice(series)
            assert calls["evaluate"] <= len(GRID) // 4
            assert calls["tail_bound"] == 1 + len(GRID)

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

    def test_tail_at_t_star_above_tol_raises(self):
        assert mu_z(1e-20).tail_bound < 1e-20
        with pytest.raises(TailBoundError, match="at the maximizer"):
            mu_z(1e-30)

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


def _builder(label):
    """The series builder of a CLI lattice label: e8, leech or dn:<n>."""
    if label.startswith("dn:"):
        n = int(label[len("dn:"):])
        return lambda K: dn_series(n, K)
    return {"e8": e8_series, "leech": leech_series}[label]


def _golden_series_cases():
    """(label, K) of every golden lattice-mu case that builds a series."""
    spec = importlib.util.spec_from_file_location(
        "golden_generate", Path(__file__).parent / "golden" / "generate.py"
    )
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    for _, args in golden.CASES["lattice_mu"]:
        options = dict(zip(args[1::2], args[2::2]))
        if options["--lattice"] != "zn":
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
        if isinstance(full, tuple):
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
            ("dn:64", 8192, [64, 128]),  # D64 certifies from 82
            ("dn:5", 8192, [64]),  # no bound, proven on the first prefix
            ("e8", 16, [16]),
            ("dn:21", 28, [28]),
            ("leech", 24, [24]),  # fails at K, as before
            ("leech", 63, [63]),
        ],
    )
    def test_schedule(self, label, K, lengths):
        assert _prefix_lengths(label, K) == lengths

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


def rising_points(K):
    """The grid points with t^2 <= K/(K+1), compared exactly."""
    return [t for t in GRID if Fraction(t) ** 2 <= Fraction(K, K + 1)]


def _mu_by_scan(label, dim, theta, tail, last_bound, tol, remedy):
    """Oracle: the mu search that certified the grid point by point.

    The tail is scanned lazily in grid order: on the first 3 points,
    then on to the first certified point past the maximizer, or to the
    first uncertified point.
    """
    check_positive(tol, "tol")
    grid = GRID
    tails = []  # tail on grid[0], grid[1], ..., up to the first not below tol

    def certified(n):
        while len(tails) < n and (not tails or tails[-1] < tol):
            tails.append(tail(grid[len(tails)]))
        return len(tails) - (not tails[-1] < tol)

    count = certified(3)
    if count < 3:
        raise TailBoundError(f"tail bound below {tol} on too small a region; {remedy}")
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
        count = certified(len(grid))
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
        raise TailBoundError(f"tail bound {tail_at_star!r} at the maximizer is not below {tol}")
    return MuResult(label, dim, t_star, max_value ** (-1.0 / dim), max_value, tail_at_star)


def _outcome(run):
    """A MuResult with its floats as float.hex, or the error class and message."""
    r = _settle(run)
    if isinstance(r, tuple):
        return r
    return r.lattice_label, r.dim, *(x.hex() for x in (r.t_star, r.mu, r.max_value, r.tail_bound))


def _truncations(full, ks):
    return [ThetaSeries(full.dim, full.coeffs[: K + 1], full.label) for K in ks]


class TestCertification:
    """``mu_lattice`` certifies by one tail value on the rising region of
    ``ThetaSeries.tail_bound`` (its docstring's step 5)."""

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

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize(
        "family",
        [
            _truncations(e8_series(199), range(16, 200)),
            _truncations(leech_series(199), range(16, 200)),
            [s for n in range(1, 65) for s in _truncations(dn_series(n, 100), (16, 40, 100))],
        ],
        ids=["E8", "Leech", "Dn"],
    )
    def test_same_outcome_as_the_pointwise_scan(self, family, tol):
        for series in family:
            at_one = float(sum(series.coeffs))
            oracle = _outcome(
                lambda: _mu_by_scan(
                    series.label,
                    series.dim,
                    series.evaluate,
                    series.tail_bound,
                    lambda a: (1.0 - a) ** series.dim * at_one,
                    tol,
                    "request larger K",
                )
            )
            assert _outcome(lambda: mu_lattice(series, tol)) == oracle, series.label


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
