"""Invariant suites behind the ``verify`` CLI command.

Each check is one function, named after the check and registered to its
suite by ``@_suite(name)``; ``CHECKS`` lists each suite's checks in run
order, and ``SUITES`` maps each suite name to a zero-argument callable
that runs them and returns their CheckResult records.  A check comes in
one of two kinds:

- a sweep is a generator that yields a counterexample string for each
  failing case.  ``run_check`` keeps the first one, which stops the
  sweep, so a failing sweep reports the first failing case of its loop
  nest; a sweep that yields nothing passes.
- a margin check returns ``(passed, detail)``, with its worst point in
  the detail whether it passes or not.

Randomized sweeps use fixed seeds so repeated runs are identical.
Sample points are Python lists of floats, so no suite loads numpy.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Callable, Dict, List, NamedTuple, Tuple

from . import _SUITES, bound_engine, lattice_combinatorics as combi, special_functions, tensor_oracle


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str = ""


CHECKS: Dict[str, List[Callable]] = {suite: [] for suite in _SUITES}


def _suite(name: str) -> Callable[[Callable], Callable]:
    def register(check: Callable) -> Callable:
        CHECKS[name].append(check)
        return check

    return register


def _linspace(start: float, stop: float, num: int) -> List[float]:
    # ``num`` equispaced floats from start to stop, bit for bit those of
    # numpy.linspace: start + i * step, and stop itself last.
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def _argmin(values: List[float]) -> int:
    # Index of the first smallest value.
    return min(range(len(values)), key=values.__getitem__)


def run_check(suite: str, check: Callable) -> CheckResult:
    outcome = check()
    if isinstance(outcome, tuple):
        passed, detail = outcome
    else:
        first = next(outcome, None)
        passed, detail = first is None, first or ""
    return CheckResult(suite=suite, name=check.__name__, passed=bool(passed), detail=detail)


@_suite("theta")
def functional_equation_residual():
    worst_x, worst = 0.0, 0.0
    for x in (10.0 ** e for e in _linspace(math.log10(0.1), math.log10(10.0), 50)):
        r = special_functions.functional_equation_residual(x)
        if r > worst:
            worst_x, worst = x, r
    return worst < 1e-10, f"max residual {worst:.3e} at x = {worst_x:.4f}"


@_suite("theta")
def truncation_monotone_below_full():
    for t in (0.1, 0.4, 0.7, 0.95):
        for gamma in (0.2, 0.5, 0.9):
            full = special_functions.theta_full(t, gamma)
            prev = 0.0
            for l in range(1, 30):
                cur = special_functions.theta_truncated(t, gamma, l)
                if cur < prev - 1e-15 or cur > full + 1e-12:
                    yield f"t={t} gamma={gamma} l={l}"
                prev = cur


_QS = _linspace(0.0, 0.999, 200)


def _worst_past_zero(margins: List[float]) -> int:
    # Index of the smallest margin at q > 0.  Both theta checks hold with
    # margin exactly 0 at q = _QS[0] = 0, where every side is 1, so that
    # point is checked but would always be the one reported.
    return 1 + _argmin(margins[1:])


@_suite("theta")
def theta3_dominates_theta4():
    dominance = [special_functions.jacobi_theta(3, q) - special_functions.jacobi_theta(4, q) for q in _QS]
    i = _worst_past_zero(dominance)
    return min(dominance) >= -1e-15, f"min theta3 - theta4 {dominance[i]:.3e} at q = {_QS[i]:.4f}"


@_suite("theta")
def theta4_alternating_bracket():
    t4 = [special_functions.jacobi_theta(4, q) for q in _QS]
    bracket = [min(v - (1 - 2 * q), 1 - 2 * q + 2 * q ** 4 - v) for q, v in zip(_QS, t4)]
    i = _worst_past_zero(bracket)
    return min(bracket) >= -1e-12, f"min bracket margin {bracket[i]:.3e} at q = {_QS[i]:.4f}"


@_suite("theta")
def gamma_chi_stationarity():
    residual = special_functions.gamma_chi().stationarity_residual()
    return residual < 1e-10, f"residual {residual:.3e}"


@_suite("theta")
def one_minus_t_theta_max_floor():
    gc = special_functions.gamma_chi().value
    worst_gamma, worst = 0.0, math.inf
    for gamma in _linspace(0.05, 1.0, 20):
        _, value = special_functions.one_minus_t_theta_max(gamma, 1e-10)
        margin = value - gc / math.sqrt(gamma)
        if margin < worst:
            worst_gamma, worst = gamma, margin
    return worst >= -1e-9, f"min margin {worst:.3e} at gamma = {worst_gamma:.3f}"


@_suite("bounds")
def gamma_determinism():
    pairs = (((1, 1), (3, 2)), ((1, 1), (5, 3)), ((2, 1), (5, 2)), ((2, 2), (5, 4)))
    for (m1, k1), (m2, k2) in pairs:
        a = bound_engine.chromatic_lower_bound(bound_engine.BoundQuery(m1, k1))
        b = bound_engine.chromatic_lower_bound(bound_engine.BoundQuery(m2, k2))
        if abs(a.value - b.value) > 1e-9:
            yield f"({m1},{k1}) vs ({m2},{k2}): {a.value} != {b.value}"


@_suite("bounds")
def best_l_dominates_closed_forms():
    gc = special_functions.gamma_chi().value
    above_one, worst_gamma, worst = True, 0.0, math.inf
    for gamma in (0.15, 0.3, 0.5, 0.7, 0.9):
        _, _, value = bound_engine.best_l(gamma)
        above_one = above_one and value > 1.0
        margin = value - max(gc / math.sqrt(gamma), special_functions.one_minus_t_theta_max(gamma)[1])
        if margin < worst:
            worst_gamma, worst = gamma, margin
    return (
        above_one and worst >= -1e-9,
        f"min margin {worst:.3e} at gamma = {worst_gamma}" + ("" if above_one else "; a value is <= 1"),
    )


@_suite("bounds")
def l_star_window():
    for m in range(1, 11):
        l_star, _, _ = bound_engine.best_l(1.0 / (m + 1))
        if not m + 1 <= l_star <= 2 * m + 1:
            yield f"m={m}: l_star={l_star} outside [{m + 1}, {2 * m + 1}]"


@_suite("bounds")
def drop_last_term_improves():
    for gamma in (0.3, 0.5, 0.8):
        l = math.ceil(2.0 / gamma)
        t_star, value = bound_engine.maximize_over_t(gamma, l)
        dropped = bound_engine.theta_ratio(t_star, gamma, l - 1)
        if not dropped > value:
            yield f"gamma={gamma} l={l}: {dropped} <= {value}"


@functools.lru_cache(maxsize=1)
def _combinatorics_corpus() -> Tuple[List[List[int]], List[Tuple[int, int, List[float], float]]]:
    """The diameter cases (sorted symbol counts) and the multinomial cases
    ``(n, l, c, t)``, drawn in that order from one seeded stream.

    Drawn once per process and shared by the two checks that read it, so
    no caller may change it."""
    rng = random.Random(0)
    diameter = []
    for _ in range(200):
        l = rng.randint(1, 4)
        diameter.append(sorted((rng.randint(0, 4) for _ in range(l + 1)), reverse=True))
    multinomial = []
    for _ in range(100):
        n = rng.randint(1, 8)
        l = rng.randint(0, 3)
        c = [rng.uniform(0.0, 4.0) for _ in range(l + 1)]
        multinomial.append((n, l, c, rng.uniform(0.05, 0.95)))
    return diameter, multinomial


@_suite("combinatorics")
def count_box_complement():
    for n in range(1, 9):
        for l in range(0, 4):
            total = (l + 1) ** n
            for d in range(0, n * l):  # complement index stays nonnegative
                if combi.count_box(n, l, d) + combi.count_box(n, l, n * l - d - 1) != total:
                    yield f"n={n} l={l} d={d}"


@_suite("combinatorics")
def gf_bound_dominates_count():
    for n in range(1, 11):
        for l in range(0, 5):
            for d in range(0, n * l + 1, max(1, n * l // 6)):
                count = combi.count_box(n, l, d)
                bound = min(combi.gf_upper_bound(n, l, d, t) for t in _linspace(0.05, 0.95, 19))
                if count > bound * (1 + 1e-12):
                    yield f"n={n} l={l} d={d}: {count} > {bound}"


@_suite("combinatorics")
def diameter_formula_vs_bruteforce():
    # Each distinct profile is checked once, at its first draw: a repeat
    # gives the same result, so the first failing case is unchanged.
    seen = set()
    for b in _combinatorics_corpus()[0]:
        counts = [0] * len(b)  # invert the pairing reorder b = counts[order]
        for pos, src in enumerate(combi._pairing_order(list(range(len(b))))):
            counts[src] = b[pos]
        profile = combi.CompositionProfile(tuple(counts))
        if profile.counts in seen:
            continue
        seen.add(profile.counts)
        if profile.n == 0 or combi.multinomial(profile.n, profile.counts) > 3000:
            continue
        formula = combi.profile_diameter(profile)
        brute = combi.profile_diameter_bruteforce(profile)
        if formula != brute:
            yield f"counts={profile.counts}: {formula} != {brute}"


@_suite("combinatorics")
def alternating_square_identity():
    for j in range(0, 201):
        lhs, rhs = combi.alternating_square_identity(j)
        if lhs != rhs:
            yield f"j={j}: {lhs} != {rhs}"


@_suite("combinatorics")
def multinomial_max_dominates_mean():
    for n, l, c, t in _combinatorics_corpus()[1]:
        lhs, rhs = combi.multinomial_lemma_check(n, l, c, t)
        if lhs < rhs - 1e-12:
            yield f"n={n} l={l} c={c} t={t}: {lhs} < {rhs}"


@_suite("combinatorics")
def next_prime_vs_sieve():
    sieve_limit = 10_000
    composite = bytearray(sieve_limit + 1)
    for i in range(2, int(sieve_limit ** 0.5) + 1):
        if not composite[i]:
            composite[i * i :: i] = b"\x01" * len(composite[i * i :: i])
    for x in range(0, 500):
        expected = next(y for y in range(x + 1, sieve_limit) if y > 1 and not composite[y])
        if combi.next_prime(x) != expected:
            yield f"next_prime({x}) != {expected}"


def _expected_simplex_value(
    points: Tuple[Tuple[int, ...], ...], p: int, m: int, k: int
) -> int:
    if len(set(points)) == 1:
        return (-1) ** (k + 1) * math.factorial(k) % p
    if len(set(points)) < len(points):
        return 0
    forbidden = {p * j for j in range(1, m + 1)}
    for a, b in itertools.combinations(points, 2):
        if sum((x - y) ** 2 for x, y in zip(a, b)) // 2 not in forbidden:
            return 0
    return 1


def _simplex_corpus() -> List[Tuple[tensor_oracle.PointConfig, int]]:
    rng = random.Random(0)
    corpus: List[Tuple[tensor_oracle.PointConfig, int]] = []

    # Crafted anchors: a forbidden pair, a constant tuple, a partial coincidence.
    corpus.append((tensor_oracle.PointConfig(((0, 0), (3, 1)), p=5, m=1), 1))
    corpus.append((tensor_oracle.PointConfig(((1, 1), (1, 1), (1, 1)), p=7, m=1), 2))
    corpus.append((tensor_oracle.PointConfig(((0, 0), (0, 0), (1, 1)), p=7, m=1), 2))

    attempts = 0
    while len(corpus) < 220 and attempts < 5000:
        attempts += 1
        k = rng.randint(1, 3)
        n = rng.randint(2, 3)
        m = rng.randint(1, 2)
        pts = []
        base_parity = None
        while len(pts) < k + 1:
            cand = tuple(rng.randint(0, 3) for _ in range(n))
            par = sum(cand) % 2
            if base_parity is None:
                base_parity = par
            if par == base_parity:
                pts.append(cand)
        points = tuple(pts)
        d_max = 0
        for a, b in itertools.combinations(points, 2):
            d_max = max(d_max, sum((x - y) ** 2 for x, y in zip(a, b)) // 2)
        p = combi.next_prime(max(k, d_max // (m + 1)))
        corpus.append((tensor_oracle.PointConfig(points, p=p, m=m), k))
    return corpus


@_suite("tensor")
def indicator_three_valued():
    for k in range(2, 6):
        diagonal = (-1) ** k * math.factorial(k - 1)
        for labels in itertools.product(range(4), repeat=k):
            value = tensor_oracle.distinctness_indicator(labels)
            distinct = len(set(labels))
            expected = 1 if distinct == k else diagonal if distinct == 1 else 0
            if value != expected or value not in {1, 0, diagonal}:
                yield f"k={k} labels={labels}: {value}"


@_suite("tensor")
def diagonal_sign_and_magnitude():
    for k in range(2, 8):
        value = tensor_oracle.distinctness_indicator(("a",) * k)
        if value != (-1) ** k * math.factorial(k - 1):
            yield f"k={k}: diagonal {value}"


@_suite("tensor")
def partition_reconstruction():
    for k in range(2, 6):
        coeffs = tensor_oracle.partition_coefficients(k)
        if any(p.is_trivial for p in coeffs):
            yield f"k={k}: trivial partition present"
        # The reconstruction depends only on which positions are equal,
        # so it is summed once per coincidence pattern.
        recon: Dict[Tuple[int, ...], int] = {}
        for labels in itertools.product(range(3), repeat=k):
            pattern = tuple(labels.index(x) for x in labels)
            if pattern not in recon:
                recon[pattern] = sum(
                    c
                    for part, c in coeffs.items()
                    if all(len({labels[i - 1] for i in block}) == 1 for block in part.blocks)
                )
            if recon[pattern] != tensor_oracle.distinctness_indicator(labels):
                yield f"k={k} labels={labels}"


@_suite("tensor")
def simplex_indicator_cases():
    for cfg, k in _simplex_corpus():
        value = tensor_oracle.simplex_indicator(cfg, k)
        if value != _expected_simplex_value(cfg.points, cfg.p, cfg.m, k):
            yield f"points={cfg.points} p={cfg.p} m={cfg.m} k={k}"


@_suite("tensor")
def clique_bound_inequality():
    rng = random.Random(0)
    instances = 0
    while instances < 50:
        n = rng.randint(1, 3)
        l = rng.randint(0, 2)
        m = rng.randint(1, 2)
        k = rng.randint(1, 3)
        parity = rng.randint(0, 1)
        if (l + 1) ** n == 1 and parity == 1:
            continue
        report = tensor_oracle.clique_bound_check(n, l, m, k, parity=parity)
        instances += 1
        if not report.holds:
            yield f"n={n} l={l} m={m} k={k}: {report}"


def _run_suite(suite: str) -> List[CheckResult]:
    return [run_check(suite, check) for check in CHECKS[suite]]


SUITES: Dict[str, Callable[[], List[CheckResult]]] = {
    suite: functools.partial(_run_suite, suite) for suite in _SUITES
}


def run_suites(names: List[str]) -> List[CheckResult]:
    results: List[CheckResult] = []
    for name in names:
        results.extend(SUITES[name]())
    return results
