import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromabound import (
    CompositionProfile,
    alternating_square_identity,
    count_box,
    gf_upper_bound,
    is_prime,
    multinomial,
    multinomial_lemma_check,
    next_prime,
    profile_diameter,
    profile_diameter_bruteforce,
)
from chromabound.special_functions import _sparse_power


def enumerate_box_count(n, l, d):
    """Oracle: walk the whole box."""
    return sum(
        1 for v in itertools.product(range(l + 1), repeat=n) if sum(v) <= d
    )


def inclusion_exclusion_box_count(n, l, d):
    """Oracle: count_box by inclusion-exclusion over the coordinates above l."""
    d = min(d, n * l)
    return sum(
        (-1) ** j * math.comb(n, j) * math.comb(d - j * (l + 1) + n, n)
        for j in range(d // (l + 1) + 1)
    )


def dense_mul(a, b, limit):
    """Oracle: the product of two coefficient lists, truncated after q^limit."""
    out = [0] * (limit + 1)
    for i, ai in enumerate(a[: limit + 1]):
        for j, bj in enumerate(b[: limit + 1 - i]):
            out[i + j] += ai * bj
    return out


class TestSparsePower:
    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.dictionaries(st.integers(1, 45), st.integers(-9, 9), max_size=6),
        a=st.integers(0, 6),
        limit=st.integers(0, 40),
    )
    def test_matches_repeated_dense_multiplication(self, terms, a, limit):
        g = [1] + [0] * max(terms, default=0)
        for i, gi in terms.items():
            g[i] = gi
        oracle = [1] + [0] * limit
        for _ in range(a):
            oracle = dense_mul(oracle, g, limit)
        assert _sparse_power(g, a, limit) == oracle


def sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = b"\x00" * len(flags[i * i :: i])
    return [i for i in range(limit + 1) if flags[i]]


def random_admissible_profile(rng):
    # Build the nonincreasing reordered sequence first, then invert the
    # interleaving so the pairing precondition holds by construction.
    l = rng.randint(1, 4)
    b = sorted((rng.randint(0, 4) for _ in range(l + 1)), reverse=True)
    counts = [0] * (l + 1)
    hi, lo, take_hi = l, 0, True
    for pos in range(l, -1, -1):
        if take_hi:
            counts[hi] = b[pos]
            hi -= 1
        else:
            counts[lo] = b[pos]
            lo += 1
        take_hi = not take_hi
    return CompositionProfile(tuple(counts))


class TestCountBox:
    def test_tiny_case(self):
        assert count_box(2, 1, 1) == 3

    def test_whole_box(self):
        for n, l in ((2, 3), (4, 2)):
            assert count_box(n, l, n * l) == (l + 1) ** n

    def test_derived_case(self):
        assert enumerate_box_count(3, 2, 3) == 17
        assert count_box(3, 2, 3) == 17

    def test_against_enumeration(self):
        for n in range(1, 6):
            for l in range(0, 4):
                for d in range(0, n * l + 1):
                    assert count_box(n, l, d) == enumerate_box_count(n, l, d)

    def test_complement_symmetry(self):
        for n in range(1, 8):
            for l in range(1, 4):
                for d in range(0, n * l):
                    total = count_box(n, l, d) + count_box(n, l, n * l - d - 1)
                    assert total == (l + 1) ** n

    def test_matches_one_expansion_per_call(self):
        # The partial sum of a fresh expansion, as count_box took it before
        # it kept one expansion per box; d runs past n * l.
        for n in range(1, 11):
            for l in range(0, 5):
                for d in range(0, n * l + 3):
                    fresh = sum(_sparse_power([1] * (l + 1), n, min(d, n * l)))
                    assert count_box(n, l, d) == fresh, (n, l, d)

    def test_big_integer_exactness(self):
        # 40 coordinates, full box: must equal 5^40 exactly
        assert count_box(40, 4, 160) == 5 ** 40

    def test_large_n_against_inclusion_exclusion(self):
        # Sizes far beyond the enumeration oracle, including d >= n * l.
        for n in (400, 997, 1000):
            for l in range(1, 5):
                for d in (n // 3, n * l // 2, n * l - 1, n * l, n * l + 5):
                    assert count_box(n, l, d) == inclusion_exclusion_box_count(n, l, d)

    def test_domain(self):
        with pytest.raises(ValueError):
            count_box(0, 1, 1)
        with pytest.raises(ValueError):
            count_box(1, 1, -1)


class TestGfUpperBound:
    def test_first_example(self):
        assert gf_upper_bound(2, 1, 1, 0.5) == pytest.approx(4.5)
        assert count_box(2, 1, 1) <= 4.5

    def test_second_example(self):
        value = gf_upper_bound(3, 2, 3, 0.6)
        assert value == pytest.approx(1.96 ** 3 / 0.216, rel=1e-12)
        assert count_box(3, 2, 3) <= value

    def test_dominates_count_everywhere(self):
        ts = [i / 20 for i in range(1, 20)]
        for n in range(1, 8):
            for l in range(0, 4):
                for d in range(0, n * l + 1):
                    count = count_box(n, l, d)
                    assert all(count <= gf_upper_bound(n, l, d, t) * (1 + 1e-12) for t in ts)

    def test_minimized_bound_is_reasonably_tight(self):
        ts = [i / 200 for i in range(1, 200)]
        for n in range(2, 7):
            for l in range(1, 4):
                d = n * l // 2
                best = min(gf_upper_bound(n, l, d, t) for t in ts)
                assert count_box(n, l, d) <= best <= count_box(n, l, d) * n ** l

    @pytest.mark.parametrize("t", [0.9, 0.5])
    def test_past_float_range_is_infinite(self, t):
        # At t = 0.9, base ** n alone exceeds a float; at t = 0.5, t ** d
        # alone underflows to 0.  count_box(1000, 4, 2000) is about 10^698.
        bound = gf_upper_bound(1000, 4, 2000, t)
        assert bound == math.inf
        assert count_box(1000, 4, 2000) <= bound

    def test_domain(self):
        with pytest.raises(ValueError):
            gf_upper_bound(2, 1, 1, 0.0)
        with pytest.raises(ValueError):
            gf_upper_bound(2, 1, 1, 1.0)


class TestProfileDiameter:
    def test_three_distinct_symbols(self):
        profile = CompositionProfile((1, 1, 1))
        assert profile_diameter_bruteforce(profile) == 4
        assert profile_diameter(profile) == 4

    def test_constant_profile(self):
        assert profile_diameter(CompositionProfile((5,))) == 0

    def test_two_symbols(self):
        profile = CompositionProfile((1, 1))
        assert profile_diameter(profile) == 1
        assert profile_diameter_bruteforce(profile) == 1

    def test_two_zeros_one_one(self):
        profile = CompositionProfile((2, 1))
        assert profile_diameter_bruteforce(profile) == 1

    def test_formula_matches_bruteforce_on_random_profiles(self):
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            profile = random_admissible_profile(rng)
            if profile.n == 0 or multinomial(profile.n, profile.counts) > 3000:
                continue
            assert profile_diameter(profile) == profile_diameter_bruteforce(profile)
            checked += 1

    def test_rejects_inadmissible_profile(self):
        # counts (0, 0, 5): b = (0, 0, 5) is increasing at the tail
        with pytest.raises(ValueError, match="index"):
            profile_diameter(CompositionProfile((0, 0, 5)))

    def test_bruteforce_budget(self):
        with pytest.raises(ValueError, match="budget"):
            profile_diameter_bruteforce(CompositionProfile((10, 10)), budget=10)

    @pytest.mark.parametrize("k", [6, 7])
    def test_bruteforce_on_many_coordinates(self, k):
        # 12 and 14 coordinates, 7.5e6 and 6.8e8 arrangements: the
        # memoized table search stays fast where the plain one took
        # seconds (k = 6) and did not finish in 90 s (k = 7).
        profile = CompositionProfile((2,) * k)
        assert profile_diameter_bruteforce(profile, budget=10**9) == profile_diameter(profile)


def recursive_arrangements(counts):
    """Oracle: depth-first placement, smallest free symbol first."""
    n, work, prefix, out = sum(counts), list(counts), [], []

    def rec():
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for sym in range(len(work)):
            if work[sym]:
                work[sym] -= 1
                prefix.append(sym)
                rec()
                prefix.pop()
                work[sym] += 1

    rec()
    return out


class TestBruteforceAgainstArrangements:
    def test_every_small_count_vector(self):
        # Every count vector with n <= 8 and l <= 3, and with n <= 6 and
        # l = 4, the ones whose pairing order is not monotone
        # (profile_diameter raises) included: the table search equals the
        # maximum over all arrangements, with one endpoint pinned to the
        # sorted arrangement.
        not_monotone = 0
        for l, n_max in ((0, 8), (1, 8), (2, 8), (3, 8), (4, 6)):
            for counts in itertools.product(range(n_max + 1), repeat=l + 1):
                if sum(counts) > n_max:
                    continue
                arrangements = recursive_arrangements(counts)
                expected = max(
                    sum((x - y) ** 2 for x, y in zip(arrangements[0], other))
                    for other in arrangements
                )
                profile = CompositionProfile(counts)
                assert profile_diameter_bruteforce(profile) == expected // 2, counts
                try:
                    profile_diameter(profile)
                except ValueError:
                    not_monotone += 1
        assert not_monotone > 0


class TestAlternatingSquareIdentity:
    def test_zero(self):
        assert alternating_square_identity(0) == (0, 0)

    def test_small_cases(self):
        assert alternating_square_identity(2) == (3, 3)
        assert alternating_square_identity(3) == (6, 6)

    def test_holds_up_to_200(self):
        for j in range(201):
            lhs, rhs = alternating_square_identity(j)
            assert lhs == rhs == math.comb(j + 1, 2)

    def test_lhs_is_the_alternating_sum(self):
        for j in range(201):
            literal = sum((j - i) ** 2 * (-1) ** i for i in range(j + 1))
            assert alternating_square_identity(j)[0] == literal


class TestMultinomialLemma:
    def test_two_part_example(self):
        lhs, rhs = multinomial_lemma_check(2, 1, (0.0, 1.0), 0.5)
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(2.25 / 3.0)
        assert lhs >= rhs

    def test_single_part(self):
        lhs, rhs = multinomial_lemma_check(3, 0, (1.2,), 0.4)
        assert lhs == pytest.approx(0.4 ** 3.6)
        assert rhs == pytest.approx(0.4 ** 3.6)

    def test_random_sweep(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 8)
            l = rng.randint(0, 3)
            c = tuple(rng.uniform(0.0, 4.0) for _ in range(l + 1))
            t = rng.uniform(0.05, 0.95)
            lhs, rhs = multinomial_lemma_check(n, l, c, t)
            assert lhs >= rhs - 1e-12

    def test_restricted_max_equals_unrestricted_max(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(1, 7)
            l = rng.randint(0, 3)
            c = tuple(rng.uniform(0.0, 3.0) for _ in range(l + 1))
            t = rng.uniform(0.1, 0.9)
            lhs, _ = multinomial_lemma_check(n, l, c, t)
            unrestricted = 0.0
            for a in itertools.product(range(n + 1), repeat=l + 1):
                if sum(a) != n:
                    continue
                value = multinomial(n, a) * t ** sum(
                    ci * ai for ci, ai in zip(c, a)
                )
                unrestricted = max(unrestricted, value)
            assert lhs == pytest.approx(unrestricted, rel=1e-12)

    def test_budget_and_validation(self):
        with pytest.raises(ValueError):
            multinomial_lemma_check(2, 1, (0.0,), 0.5)
        with pytest.raises(ValueError):
            multinomial_lemma_check(100, 3, (0.0, 1.0, 2.0, 3.0), 0.5, budget=10)


class TestPrimes:
    def test_examples(self):
        assert next_prime(10) == 11
        assert next_prime(2) == 3
        assert next_prime(89) == 97

    def test_against_sieve(self):
        primes = sieve(20_000)
        for x in range(0, 2000):
            expected = next(p for p in primes if p > x)
            assert next_prime(x) == expected

    def test_is_prime_against_sieve(self):
        primes = set(sieve(20_000))
        for n in range(20_000):
            assert is_prime(n) == (n in primes)

    @pytest.mark.parametrize(
        "n, prime",
        [
            (1369, False),  # 37^2: the largest witness divides it
            (1669, True),  # the largest prime below 41^2, settled by trial division
            (1681, False),  # 41^2: no witness divides it, so Miller-Rabin decides
            (1693, True),  # the smallest prime above 41^2
            (1763, False),  # 41 * 43
            (1849, False),  # 43^2
            (561, False),  # Carmichael numbers: Fermat pseudoprimes to every coprime base
            (1105, False),
            (1729, False),
        ],
    )
    def test_is_prime_at_the_trial_division_cut(self, n, prime):
        assert is_prime(n) == prime

    def test_large_input(self):
        p = next_prime(2 ** 61)
        assert p > 2 ** 61
        assert is_prime(p)

    def test_range_check(self):
        with pytest.raises(ValueError):
            next_prime(2 ** 63)
