import itertools
import math
import random

import pytest

from chromabound import (
    DiameterError,
    NonPrimeModulusError,
    OddSquaredDistanceError,
    PointConfig,
    SetPartition,
    clique_bound_check,
    count_box,
    distinctness_indicator,
    forbidden_distance_product,
    next_prime,
    partition_coefficients,
    simplex_indicator,
    tensor_oracle,
)


def brute_indicator(labels):
    """Oracle: enumerate S_k directly from permutation tuples."""
    k = len(labels)
    total = 0
    for image in itertools.permutations(range(k)):
        # cycle count and length set
        seen, cycles, has_full = [False] * k, 0, False
        for start in range(k):
            if seen[start]:
                continue
            cycles += 1
            length, node = 0, start
            while not seen[node]:
                seen[node] = True
                node = image[node]
                length += 1
            if length == k:
                has_full = True
        if has_full:
            continue
        sign = -1 if (k - cycles) % 2 else 1
        if all(labels[i] == labels[image[i]] for i in range(k)):
            total += sign
    return total


def brute_partition_coefficients(k):
    """Oracle: group the non-k-cycles of S_k by cycle partition, with the
    sign from the inversion count."""
    out = {}
    for image in itertools.permutations(range(k)):
        seen, blocks = set(), []
        for start in range(k):
            block, node = set(), start
            while node not in seen:
                seen.add(node)
                block.add(node + 1)
                node = image[node]
            if block:
                blocks.append(frozenset(block))
        if len(blocks) == 1:
            continue
        inversions = sum(image[i] > image[j] for i, j in itertools.combinations(range(k), 2))
        key = frozenset(blocks)
        out[key] = out.get(key, 0) + (-1) ** inversions
    return {blocks: c for blocks, c in out.items() if c}


def cycle_partition_walk(k):
    """Oracle for tensor_oracle._cycle_partitions: walk the cycles of all
    k! permutations, label each point by the smallest point of its cycle
    (the first reached in increasing order), and sum the signs of the
    non-k-cycles per label row, rows in order."""
    sums = {}
    for images in itertools.permutations(range(k)):
        labels = [-1] * k
        n_cycles = 0
        for i in range(k):
            if labels[i] < 0:
                n_cycles += 1
                j = i
                while labels[j] < 0:
                    labels[j] = i
                    j = images[j]
        if n_cycles > 1:
            key = tuple(labels)
            sums[key] = sums.get(key, 0) + (-1 if (k - n_cycles) % 2 else 1)
    return tuple(sorted(sums.items()))


def coincidence_patterns(k, max_blocks):
    """Every coincidence pattern of k labels with at most max_blocks
    distinct values, as its restricted growth string (the constant tuple
    is the one-block pattern)."""
    out = [()]
    for _ in range(k):
        out = [p + (j,) for p in out for j in range(min(max(p, default=-1) + 2, max_blocks))]
    return out


def half_dist(a, b):
    return sum((x - y) ** 2 for x, y in zip(a, b)) // 2


class TestDistinctnessIndicator:
    def test_distinct_triple(self):
        assert distinctness_indicator(("a", "b", "c")) == 1

    def test_partial_coincidence(self):
        assert distinctness_indicator(("a", "a", "b")) == 0

    def test_constant_triple(self):
        assert distinctness_indicator(("a", "a", "a")) == -2

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_exhaustive_against_bruteforce(self, k):
        for labels in itertools.product(range(4), repeat=k):
            assert distinctness_indicator(labels) == brute_indicator(labels)

    @pytest.mark.parametrize("k", [6, 7])
    def test_long_tuples_against_bruteforce(self, k):
        for labels in [("a",) * k, ("x", 1, "x", 2.0, 1, "y", "x")[:k]]:
            assert distinctness_indicator(labels) == brute_indicator(labels)

    @pytest.mark.parametrize("k, max_blocks", [(6, 6), (7, 2)])
    def test_long_patterns_against_bruteforce(self, k, max_blocks):
        # Every pattern at k = 6; at k = 7 the constant tuple and every
        # two-block pattern (the brute force takes about 10 ms per tuple there).
        patterns = coincidence_patterns(k, max_blocks)
        assert len(patterns) == (203 if k == 6 else 64)
        for labels in patterns:
            assert distinctness_indicator(labels) == brute_indicator(labels)

    def test_unhashable_labels(self):
        # Lists compare by value and cannot be hashed.
        for labels in [([0], [1], [0]), ([0], [1], [2], [3]), ([1, 2],) * 4, ([], [0], [], [0])]:
            assert distinctness_indicator(labels) == brute_indicator(labels)
        assert distinctness_indicator(([1], [1], [2])) == 0

    def test_compares_by_equality_not_identity(self):
        # One nan object three times: nan != nan, so the labels are all
        # distinct.  An identity-first test such as tuple.index would find
        # every label equal to the first and give -2.
        x = float("nan")
        assert distinctness_indicator((x, x, x)) == 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_three_valued_structure(self, k):
        diagonal = (-1) ** k * math.factorial(k - 1)
        for labels in itertools.product(range(4), repeat=k):
            expected = (
                1
                if len(set(labels)) == k
                else diagonal
                if len(set(labels)) == 1
                else 0
            )
            assert distinctness_indicator(labels) == expected

    @pytest.mark.parametrize("k", list(range(2, 8)))
    def test_diagonal_sign_and_magnitude(self, k):
        value = distinctness_indicator((0,) * k)
        assert abs(value) == math.factorial(k - 1)
        assert value == (-1) ** k * math.factorial(k - 1)

    def test_rejects_out_of_range_length(self):
        with pytest.raises(ValueError):
            distinctness_indicator((1,))
        with pytest.raises(ValueError):
            distinctness_indicator(tuple(range(8)))


class TestPartitionCoefficients:
    def test_k2(self):
        coeffs = partition_coefficients(2)
        assert coeffs == {SetPartition.of([{1}, {2}]): 1}

    def test_k3(self):
        coeffs = partition_coefficients(3)
        assert coeffs[SetPartition.of([{1}, {2}, {3}])] == 1
        for pair in ({1, 2}, {1, 3}, {2, 3}):
            rest = {1, 2, 3} - pair
            assert coeffs[SetPartition.of([pair, rest])] == -1
        assert len(coeffs) == 4

    @pytest.mark.parametrize("k", list(range(2, 8)))
    def test_table_equals_the_permutation_walk(self, k):
        # The same rows in the same order, so everything read off the
        # table is unchanged.
        assert tensor_oracle._cycle_partitions(k) == cycle_partition_walk(k)

    @pytest.mark.parametrize("k", list(range(2, 8)))
    def test_coefficients_equal_those_of_the_permutation_walk(self, k, monkeypatch):
        coeffs = partition_coefficients(k)
        monkeypatch.setattr(tensor_oracle, "_cycle_partitions", cycle_partition_walk)
        assert list(partition_coefficients(k).items()) == list(coeffs.items())

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_trivial_partition_absent(self, k):
        assert not any(p.is_trivial for p in partition_coefficients(k))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_against_inversion_count_oracle(self, k):
        coeffs = partition_coefficients(k)
        assert {p.blocks: c for p, c in coeffs.items()} == brute_partition_coefficients(k)

    @pytest.mark.parametrize("k", list(range(2, 8)))
    def test_singletons_and_constant_tuple_sum(self, k):
        # On a constant tuple every block is equal, so the coefficients sum
        # to the indicator's diagonal value.
        coeffs = partition_coefficients(k)
        assert coeffs[SetPartition.of([{i} for i in range(1, k + 1)])] == 1
        assert sum(coeffs.values()) == (-1) ** k * math.factorial(k - 1)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_pointwise_reconstruction(self, k):
        coeffs = partition_coefficients(k)
        for labels in itertools.product("xyz", repeat=k):
            total = 0
            for part, c in coeffs.items():
                if all(
                    len({labels[i - 1] for i in block}) == 1 for block in part.blocks
                ):
                    total += c
            assert total == distinctness_indicator(labels)


class TestPointConfig:
    def test_rejects_odd_squared_distance(self):
        with pytest.raises(OddSquaredDistanceError):
            PointConfig(((0, 0), (1, 0)), p=5, m=1)

    def test_rejects_composite_modulus(self):
        with pytest.raises(NonPrimeModulusError):
            PointConfig(((0, 0), (1, 1)), p=6, m=1)

    def test_half_squared_distance(self):
        cfg = PointConfig(((0, 0), (3, 1)), p=5, m=1)
        assert cfg.half_squared_distance(0, 1) == 5


class TestForbiddenDistanceProduct:
    def test_equal_points(self):
        cfg = PointConfig(((1, 1), (1, 1)), p=5, m=1)
        assert forbidden_distance_product(cfg) == 1

    def test_distance_at_modulus(self):
        cfg = PointConfig(((0, 0), (3, 1)), p=5, m=1)  # half distance exactly p
        assert forbidden_distance_product(cfg) == 1

    def test_unit_half_distance_dies(self):
        cfg = PointConfig(((0, 0), (1, 1)), p=5, m=1)  # half distance 1
        assert forbidden_distance_product(cfg) == 0

    def test_diameter_window_enforced(self):
        # half distance 18 >= (m+1)p = 2*3 with p=3
        cfg = PointConfig(((0, 0), (6, 0)), p=3, m=1)
        with pytest.raises(DiameterError):
            forbidden_distance_product(cfg)


class TestSimplexIndicator:
    def test_forbidden_pair(self):
        # squared distance 2p: a 1-simplex at the first forbidden distance
        cfg = PointConfig(((0, 0), (3, 1)), p=5, m=1)
        assert simplex_indicator(cfg, 1) == 1

    def test_constant_tuple_magnitude(self):
        cfg = PointConfig(((1, 1), (1, 1), (1, 1)), p=7, m=1)
        value = simplex_indicator(cfg, 2)
        assert value == -2 % 7
        assert value in (2, 7 - 2)

    def test_partial_coincidence_is_zero(self):
        cfg = PointConfig(((0, 0), (0, 0), (1, 1)), p=7, m=1)
        assert simplex_indicator(cfg, 2) == 0

    def test_requires_modulus_above_k(self):
        cfg = PointConfig(((0, 0), (1, 1), (2, 0)), p=2, m=1)
        with pytest.raises(ValueError, match="exceed"):
            simplex_indicator(cfg, 2)

    def test_corpus_case_structure(self):
        rng = random.Random(1)
        cases = 0
        while cases < 150:
            k = rng.randint(1, 3)
            n = rng.randint(2, 3)
            m = rng.randint(1, 2)
            parity = rng.randint(0, 1)
            points = []
            while len(points) < k + 1:
                cand = tuple(rng.randint(0, 3) for _ in range(n))
                if sum(cand) % 2 == parity:
                    points.append(cand)
            points = tuple(points)
            d_max = max(
                (half_dist(a, b) for a, b in itertools.combinations(points, 2)),
                default=0,
            )
            p = next_prime(max(k, d_max // (m + 1)))
            cfg = PointConfig(points, p=p, m=m)

            if len(set(points)) == 1:
                expected = (-1) ** (k + 1) * math.factorial(k) % p
            elif len(set(points)) < len(points):
                expected = 0
            else:
                forbidden = {p * j for j in range(1, m + 1)}
                expected = int(
                    all(
                        half_dist(a, b) in forbidden
                        for a, b in itertools.combinations(points, 2)
                    )
                )
            assert simplex_indicator(cfg, k) == expected
            cases += 1


class TestCliqueBoundCheck:
    def test_tiny_instance_against_exhaustive_search(self):
        report = clique_bound_check(3, 2, 1, 1)
        ground = [
            v for v in itertools.product(range(3), repeat=3) if sum(v) % 2 == 0
        ]
        assert report.ground_size == len(ground)
        forbidden = {report.p * j for j in range(1, report.m + 1)}
        best = 0
        for size in range(len(ground), 0, -1):
            for subset in itertools.combinations(ground, size):
                if all(
                    half_dist(a, b) not in forbidden
                    for a, b in itertools.combinations(subset, 2)
                ):
                    best = size
                    break
            if best:
                break
        assert report.extremal_size == best
        assert report.holds

    def test_edge_free_ground_is_fully_kept(self):
        # n=2, l=1 even parity: {(0,0), (1,1)}; half distance 1 is never p*j
        report = clique_bound_check(2, 1, 1, 1)
        assert report.ground_size == 2
        assert report.extremal_size == 2
        assert report.holds

    def test_bound_uses_counting_function(self):
        report = clique_bound_check(2, 2, 1, 2)
        expected = 2 ** 3 * count_box(2, 2, 2 * (report.p - 1))
        assert report.rank_bound == expected

    def test_random_sweep(self):
        rng = random.Random(2)
        done = 0
        while done < 50:
            n = rng.randint(1, 3)
            l = rng.randint(0, 2)
            if (l + 1) ** n == 1:
                continue
            report = clique_bound_check(
                n, l, rng.randint(1, 2), rng.randint(1, 3), parity=rng.randint(0, 1) if l else 0
            )
            assert report.holds
            done += 1

    def test_oversized_box_rejected_before_enumeration(self, monkeypatch):
        def no_product(*args, **kwargs):
            raise AssertionError("the box was enumerated")

        monkeypatch.setattr(itertools, "product", no_product)
        with pytest.raises(ValueError, match="exceeds 24"):
            clique_bound_check(40, 1, 1, 1)

    @pytest.mark.parametrize("n, l", [(3, 2), (5, 1), (2, 6), (1, 48)])
    def test_box_of_at_most_49_points_is_enumerated(self, n, l):
        # The early cap lets every box whose smaller class fits through.
        report = clique_bound_check(n, l, 1, 1, parity=1)
        assert report.ground_size == ((l + 1) ** n) // 2

    @pytest.mark.parametrize("n, l, parity", [(6, 1, 1), (2, 7, 1), (1, 49, 1), (2, 6, 0)])
    def test_class_above_24_points_rejected(self, n, l, parity):
        # (2, 6, 0) is the 25-point even class of a 49-point box, caught by
        # the exact count after enumeration.
        with pytest.raises(ValueError, match="exceeds 24"):
            clique_bound_check(n, l, 1, 1, parity=parity)

    def test_budget(self):
        with pytest.raises(RuntimeError):
            clique_bound_check(3, 2, 1, 1, subset_budget=5)
