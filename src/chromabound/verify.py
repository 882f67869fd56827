"""Invariant suites behind the ``verify`` CLI command.

Each suite returns a list of CheckResult records; a failing check
carries a counterexample in its detail string.  Randomized sweeps use
fixed seeds so repeated runs are identical.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import _SUITES, bound_engine, lattice_combinatorics as combi, tensor_oracle
from .special_functions import (
    functional_equation_residual,
    gamma_chi,
    jacobi_theta,
    one_minus_t_theta_max,
    theta_full,
    theta_truncated,
)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _check(suite: str, name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail)


def theta_checks() -> List[CheckResult]:
    out: List[CheckResult] = []

    worst_x, worst = 0.0, 0.0
    for x in np.logspace(math.log10(0.1), math.log10(10.0), 50):
        r = functional_equation_residual(float(x))
        if r > worst:
            worst_x, worst = float(x), r
    out.append(
        _check(
            "theta",
            "functional_equation_residual",
            worst < 1e-10,
            f"max residual {worst:.3e} at x = {worst_x:.4f}",
        )
    )

    mono_ok, detail = True, ""
    for t in (0.1, 0.4, 0.7, 0.95):
        for gamma in (0.2, 0.5, 0.9):
            full = theta_full(t, gamma)
            prev = 0.0
            for l in range(1, 30):
                cur = theta_truncated(t, gamma, l)
                if cur < prev - 1e-15 or cur > full + 1e-12:
                    mono_ok, detail = False, f"t={t} gamma={gamma} l={l}"
                    break
                prev = cur
    out.append(_check("theta", "truncation_monotone_below_full", mono_ok, detail))

    qs = np.linspace(0.0, 0.999, 200)
    t3, t4 = jacobi_theta(3, qs), jacobi_theta(4, qs)
    dominance = t3 - t4
    i = int(np.argmin(dominance))
    out.append(
        _check(
            "theta",
            "theta3_dominates_theta4",
            dominance[i] >= -1e-15,
            f"min theta3 - theta4 {dominance[i]:.3e} at q = {qs[i]:.4f}",
        )
    )
    bracket = np.minimum(t4 - (1 - 2 * qs), 1 - 2 * qs + 2 * qs ** 4 - t4)
    i = int(np.argmin(bracket))
    out.append(
        _check(
            "theta",
            "theta4_alternating_bracket",
            bracket[i] >= -1e-12,
            f"min bracket margin {bracket[i]:.3e} at q = {qs[i]:.4f}",
        )
    )

    gc = gamma_chi()
    out.append(
        _check(
            "theta",
            "gamma_chi_stationarity",
            gc.stationarity_residual() < 1e-10,
            f"residual {gc.stationarity_residual():.3e}",
        )
    )

    worst_gamma, worst = 0.0, math.inf
    for gamma in np.linspace(0.05, 1.0, 20):
        _, value = one_minus_t_theta_max(float(gamma), 1e-10)
        margin = value - gc.value / math.sqrt(gamma)
        if margin < worst:
            worst_gamma, worst = float(gamma), margin
    out.append(
        _check(
            "theta",
            "one_minus_t_theta_max_floor",
            worst >= -1e-9,
            f"min margin {worst:.3e} at gamma = {worst_gamma:.3f}",
        )
    )
    return out


def bounds_checks() -> List[CheckResult]:
    out: List[CheckResult] = []
    gc = gamma_chi().value

    pairs = (((1, 1), (3, 2)), ((1, 1), (5, 3)), ((2, 1), (5, 2)), ((2, 2), (5, 4)))
    ok, detail = True, ""
    for (m1, k1), (m2, k2) in pairs:
        a = bound_engine.chromatic_lower_bound(bound_engine.BoundQuery(m1, k1))
        b = bound_engine.chromatic_lower_bound(bound_engine.BoundQuery(m2, k2))
        if abs(a.value - b.value) > 1e-9:
            ok, detail = False, f"({m1},{k1}) vs ({m2},{k2}): {a.value} != {b.value}"
            break
    out.append(_check("bounds", "gamma_determinism", ok, detail))

    above_one, worst_gamma, worst = True, 0.0, math.inf
    for gamma in (0.15, 0.3, 0.5, 0.7, 0.9):
        _, _, value = bound_engine.best_l(gamma)
        above_one = above_one and value > 1.0
        margin = value - max(gc / math.sqrt(gamma), one_minus_t_theta_max(gamma)[1])
        if margin < worst:
            worst_gamma, worst = gamma, margin
    out.append(
        _check(
            "bounds",
            "best_l_dominates_closed_forms",
            above_one and worst >= -1e-9,
            f"min margin {worst:.3e} at gamma = {worst_gamma}"
            + ("" if above_one else "; a value is <= 1"),
        )
    )

    ok, detail = True, ""
    for m in range(1, 11):
        l_star, _, _ = bound_engine.best_l(1.0 / (m + 1))
        if l_star > 2 * m + 1:
            ok, detail = False, f"m={m}: l_star={l_star} > {2 * m + 1}"
            break
    out.append(_check("bounds", "l_star_window", ok, detail))

    ok, detail = True, ""
    for gamma in (0.3, 0.5, 0.8):
        l = math.ceil(2.0 / gamma)
        t_star, value = bound_engine.maximize_over_t(gamma, l)
        dropped = bound_engine.theta_ratio(t_star, gamma, l - 1)
        if not dropped > value:
            ok, detail = False, f"gamma={gamma} l={l}: {dropped} <= {value}"
            break
    out.append(_check("bounds", "drop_last_term_improves", ok, detail))
    return out


def combinatorics_checks(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    rng = random.Random(seed)

    ok, detail = True, ""
    for n in range(1, 9):
        for l in range(0, 4):
            total = (l + 1) ** n
            for d in range(0, n * l):  # complement index stays nonnegative
                lhs = combi.count_box(n, l, d) + combi.count_box(n, l, n * l - d - 1)
                if lhs != total:
                    ok, detail = False, f"n={n} l={l} d={d}"
                    break
    out.append(_check("combinatorics", "count_box_complement", ok, detail))

    ok, detail = True, ""
    for n in range(1, 11):
        for l in range(0, 5):
            for d in range(0, n * l + 1, max(1, n * l // 6)):
                count = combi.count_box(n, l, d)
                bound = min(
                    combi.gf_upper_bound(n, l, d, t)
                    for t in np.linspace(0.05, 0.95, 19)
                )
                if count > bound * (1 + 1e-12):
                    ok, detail = False, f"n={n} l={l} d={d}: {count} > {bound}"
                    break
    out.append(_check("combinatorics", "gf_bound_dominates_count", ok, detail))

    ok, detail = True, ""
    for _ in range(200):
        l = rng.randint(1, 4)
        b = sorted((rng.randint(0, 4) for _ in range(l + 1)), reverse=True)
        counts = [0] * (l + 1)  # invert the pairing reorder b = counts[order]
        for pos, src in enumerate(combi._pairing_order(list(range(l + 1)))):
            counts[src] = b[pos]
        profile = combi.CompositionProfile(tuple(counts))
        if profile.n == 0 or combi.multinomial(profile.n, profile.counts) > 3000:
            continue
        formula = combi.profile_diameter(profile)
        brute = combi.profile_diameter_bruteforce(profile)
        if formula != brute:
            ok, detail = False, f"counts={profile.counts}: {formula} != {brute}"
            break
    out.append(_check("combinatorics", "diameter_formula_vs_bruteforce", ok, detail))

    ok, detail = True, ""
    for j in range(0, 201):
        lhs, rhs = combi.alternating_square_identity(j)
        if lhs != rhs:
            ok, detail = False, f"j={j}: {lhs} != {rhs}"
            break
    out.append(_check("combinatorics", "alternating_square_identity", ok, detail))

    ok, detail = True, ""
    for _ in range(100):
        n = rng.randint(1, 8)
        l = rng.randint(0, 3)
        c = [rng.uniform(0.0, 4.0) for _ in range(l + 1)]
        t = rng.uniform(0.05, 0.95)
        lhs, rhs = combi.multinomial_lemma_check(n, l, c, t)
        if lhs < rhs - 1e-12:
            ok, detail = False, f"n={n} l={l} c={c} t={t}: {lhs} < {rhs}"
            break
    out.append(_check("combinatorics", "multinomial_max_dominates_mean", ok, detail))

    sieve_limit = 10_000
    composite = bytearray(sieve_limit + 1)
    for i in range(2, int(sieve_limit ** 0.5) + 1):
        if not composite[i]:
            composite[i * i :: i] = b"\x01" * len(composite[i * i :: i])
    ok, detail = True, ""
    for x in range(0, 500):
        expected = next(
            y for y in range(x + 1, sieve_limit) if y > 1 and not composite[y]
        )
        if combi.next_prime(x) != expected:
            ok, detail = False, f"next_prime({x}) != {expected}"
            break
    out.append(_check("combinatorics", "next_prime_vs_sieve", ok, detail))
    return out


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


def _simplex_corpus(seed: int = 0) -> List[Tuple[tensor_oracle.PointConfig, int]]:
    rng = random.Random(seed)
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


def tensor_checks(seed: int = 0) -> List[CheckResult]:
    out: List[CheckResult] = []
    rng = random.Random(seed)

    ok, detail = True, ""
    for k in range(2, 6):
        allowed = {1, 0, (-1) ** k * math.factorial(k - 1)}
        for labels in itertools.product(range(4), repeat=k):
            value = tensor_oracle.distinctness_indicator(labels)
            expected = (
                1
                if len(set(labels)) == k
                else (-1) ** k * math.factorial(k - 1)
                if len(set(labels)) == 1
                else 0
            )
            if value != expected or value not in allowed:
                ok, detail = False, f"k={k} labels={labels}: {value}"
                break
    out.append(_check("tensor", "indicator_three_valued", ok, detail))

    ok, detail = True, ""
    for k in range(2, 8):
        value = tensor_oracle.distinctness_indicator(("a",) * k)
        if value != (-1) ** k * math.factorial(k - 1):
            ok, detail = False, f"k={k}: diagonal {value}"
            break
    out.append(_check("tensor", "diagonal_sign_and_magnitude", ok, detail))

    ok, detail = True, ""
    for k in range(2, 6):
        coeffs = tensor_oracle.partition_coefficients(k)
        if any(p.is_trivial for p in coeffs):
            ok, detail = False, f"k={k}: trivial partition present"
            break
        for labels in itertools.product(range(3), repeat=k):
            recon = 0
            for part, c in coeffs.items():
                for block in part.blocks:
                    vals = {labels[i - 1] for i in block}
                    if len(vals) > 1:
                        break
                else:
                    recon += c
            if recon != tensor_oracle.distinctness_indicator(labels):
                ok, detail = False, f"k={k} labels={labels}"
                break
    out.append(_check("tensor", "partition_reconstruction", ok, detail))

    ok, detail = True, ""
    for cfg, k in _simplex_corpus(seed):
        value = tensor_oracle.simplex_indicator(cfg, k)
        expected = _expected_simplex_value(cfg.points, cfg.p, cfg.m, k)
        if value != expected:
            ok, detail = False, f"points={cfg.points} p={cfg.p} m={cfg.m} k={k}"
            break
    out.append(_check("tensor", "simplex_indicator_cases", ok, detail))

    ok, detail = True, ""
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
            ok, detail = False, f"n={n} l={l} m={m} k={k}: {report}"
            break
    out.append(_check("tensor", "clique_bound_inequality", ok, detail))
    return out


SUITES: Dict[str, Callable[[], List[CheckResult]]] = dict(
    zip(_SUITES, (theta_checks, bounds_checks, combinatorics_checks, tensor_checks))
)


def run_suites(names: List[str]) -> List[CheckResult]:
    results: List[CheckResult] = []
    for name in names:
        results.extend(SUITES[name]())
    return results
