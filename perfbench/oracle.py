"""Output checks for every CLI invocation the benchmark makes.

The references here are computed with a few lines of the benchmark's own
arithmetic, never with chromabound code, so a defect in the package
cannot make its own output look right:

* a ``bound``/``table`` cell is re-evaluated at its reported
  ``(l_star, t_star)`` with a direct term-by-term sum, checked against
  the closed-form floor ``Gamma_chi / sqrt(gamma)`` and the upper base
  ``2(sqrt(m) + 1)``, checked to be a local maximum in ``t``, and
  compared with every other cell of equal reduced ``k/(m+1)``;
* a ``lattice-mu`` result is re-evaluated at its reported ``t_star``
  from independent series (E8 from sigma_3, Leech as E4^3 - 720 Delta,
  D_n and Z from Jacobi theta sums), and ``dn:<n>`` is compared with an
  independent maximization of the closed form;
* ``l_star`` is used only as the term count to re-evaluate, never
  compared with a fixed value.

Each check raises ``OracleError`` with the reason; ``Ledger`` holds the
state shared across the invocations of one run.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Published anchors, written as the digits they are quoted with.
GAMMA_CHI_ANCHOR = 0.7998308498
CELL_ANCHORS = {(1, 1): 1.2395667, (2, 1): 1.4662990}  # truncated to 7 places
MU_ANCHORS = {"zn": (0.883337, 1e-6), "e8": (0.88406, 1e-5), "leech": (0.88407, 1e-5)}
VERIFY_CHECKS = 21

BOUND_KEYS = ("m", "k", "gamma", "l_star", "t_star", "value")
LATTICE_KEYS = ("lattice", "dim", "K", "t_star", "mu", "max_value", "tail_bound", "double_cap")
CONSTANTS_KEYS = (
    "gamma_chi", "u_star", "inner_max", "inv_sqrt_2", "sqrt3_over_2", "kupavskii_base_m1",
)

_REL = 1e-12  # re-evaluation agreement; float noise is ~1e-15 here
_SERIES_TERMS = 400  # q^400 * 400^11 is far below 1e-200 for every t* that occurs


class OracleError(Exception):
    """An invocation's output is wrong."""


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise OracleError(reason)


def _close(a: float, b: float, rel: float = _REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def gamma_chi() -> Tuple[float, float]:
    """(Gamma_chi, u*) from e^u = 1 + 2u by Newton's method."""
    u = 1.25
    for _ in range(50):
        u -= (math.exp(u) - 1.0 - 2.0 * u) / (math.exp(u) - 2.0)
    return math.sqrt(math.pi / 2.0) * (1.0 - math.exp(-u)) / math.sqrt(u), u


GAMMA_CHI, U_STAR = gamma_chi()


def ratio(t: float, gamma: float, l: int) -> float:
    """sum_{j=1..l} t^(gamma j(j-1)/2) / sum_{i=0..l-1} t^i, term by term."""
    num = sum(t ** (gamma * j * (j - 1) / 2.0) for j in range(1, l + 1))
    den = sum(t ** i for i in range(l))
    return num / den


def _theta3(t: float, sign: float = 1.0) -> float:
    """theta3(t) = 1 + 2 sum t^(n^2); theta4 with ``sign = -1``."""
    total, n = 1.0, 1
    while True:
        term = t ** (n * n)
        if term < 1e-22:
            return total
        total += 2.0 * sign ** n * term
        n += 1


def _dn_objective(n: int, t: float) -> float:
    return 0.5 * (_theta3(t) ** n + _theta3(t, -1.0) ** n) * (1.0 - t) ** n


def _series_value(coeffs: Sequence[float], t: float) -> float:
    q = t * t
    return math.fsum(c * q ** j for j, c in enumerate(coeffs))


def _e8_coeffs(count: int) -> List[float]:
    sigma3 = [0] * count
    for d in range(1, count):
        for j in range(d, count, d):
            sigma3[j] += d ** 3
    return [1.0] + [240.0 * s for s in sigma3[1:]]


def _leech_coeffs(count: int) -> List[float]:
    """Theta series of the Leech lattice as E4^3 - 720 * Delta."""
    e4 = np.array(_e8_coeffs(count))
    e4_cubed = np.convolve(np.convolve(e4, e4)[:count], e4)[:count]
    euler = np.zeros(count)  # prod (1 - q^n), pentagonal number theorem
    euler[0] = 1.0
    k = 1
    while k * (3 * k - 1) // 2 < count:
        sign = -1.0 if k % 2 else 1.0
        euler[k * (3 * k - 1) // 2] += sign
        if k * (3 * k + 1) // 2 < count:
            euler[k * (3 * k + 1) // 2] += sign
        k += 1
    eta24 = np.zeros(count)
    eta24[0] = 1.0
    for _ in range(24):
        eta24 = np.convolve(eta24, euler)[:count]
    delta = np.concatenate(([0.0], eta24[: count - 1]))
    return list(e4_cubed - 720.0 * delta)


def _golden_max(f, lo: float, hi: float) -> Tuple[float, float]:
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    while b - a > 1e-13:
        x1, x2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
        if f(x1) < f(x2):
            a = x1
        else:
            b = x2
    x = 0.5 * (a + b)
    return x, f(x)


def mu_dn_closed_form(n: int) -> float:
    """mu of D_n maximized from (theta3^n + theta4^n)/2, grid then golden section."""
    grid = np.arange(1, 512) / 512.0
    squares = np.arange(1, 160) ** 2
    powers = grid[:, None] ** squares[None, :]
    theta3 = 1.0 + 2.0 * powers.sum(axis=1)
    theta4 = 1.0 + 2.0 * (powers * (-1.0) ** np.arange(1, 160)).sum(axis=1)
    i = int(np.argmax(0.5 * (theta3 ** n + theta4 ** n) * (1.0 - grid) ** n))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
    _, best = _golden_max(lambda t: _dn_objective(n, t), lo, hi)
    return best ** (-1.0 / n)


class Ledger:
    """State shared by the invocations of one run: equal-gamma values and
    lazily built reference series."""

    def __init__(self) -> None:
        self._by_gamma: Dict[Fraction, Tuple[Tuple[int, int], float]] = {}
        self._series: Dict[str, List[float]] = {}
        self._mu_dn: Dict[int, float] = {}

    def series(self, label: str) -> List[float]:
        if label not in self._series:
            build = _leech_coeffs if label == "leech" else _e8_coeffs
            self._series[label] = build(_SERIES_TERMS)
        return self._series[label]

    def mu_dn(self, n: int) -> float:
        if n not in self._mu_dn:
            self._mu_dn[n] = mu_dn_closed_form(n)
        return self._mu_dn[n]

    def record_cell(self, m: int, k: int, value: float) -> None:
        key = Fraction(k, m + 1)
        seen = self._by_gamma.setdefault(key, ((m, k), value))
        _require(
            _close(seen[1], value),
            f"cells {seen[0]} and {(m, k)} share gamma {key} but give {seen[1]!r} and {value!r}",
        )


def _parse_json(stdout: str) -> Dict[str, object]:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        raise OracleError(f"output is not JSON: {exc}") from None
    _require(isinstance(doc, dict), "output is not a JSON object")
    return doc


def _require_keys(record: Dict[str, object], keys: Sequence[str], what: str) -> None:
    missing = [k for k in keys if k not in record]
    _require(not missing, f"{what}: missing key(s) {missing}")


def check_cell(record: Dict[str, object], m: int, k: int, ledger: Ledger) -> None:
    """One lower-bound cell, as printed by ``bound`` or inside ``table``."""
    _require_keys(record, BOUND_KEYS, f"cell ({m},{k})")
    _require(record["m"] == m and record["k"] == k, f"cell ({m},{k}) reported as ({record['m']},{record['k']})")
    gamma = k / (m + 1)
    _require(record["gamma"] == gamma, f"cell ({m},{k}): gamma {record['gamma']!r} != {gamma!r}")
    l_star, t_star, value = record["l_star"], float(record["t_star"]), float(record["value"])
    _require(isinstance(l_star, int) and l_star >= 1, f"cell ({m},{k}): bad l_star {l_star!r}")
    _require(0.0 <= t_star < 1.0, f"cell ({m},{k}): t_star {t_star!r} outside [0, 1)")
    again = ratio(t_star, gamma, l_star)
    _require(_close(again, value), f"cell ({m},{k}): value {value!r} but the ratio at (l*, t*) is {again!r}")
    for t in (t_star * (1.0 - 1e-3), t_star * (1.0 + 1e-3)):
        if 0.0 < t < 1.0:
            _require(ratio(t, gamma, l_star) <= value + 1e-12, f"cell ({m},{k}): t_star is not a maximum")
    floor = GAMMA_CHI / math.sqrt(gamma) - 1e-9
    _require(value >= floor, f"cell ({m},{k}): value {value!r} below Gamma_chi/sqrt(gamma) = {floor!r}")
    _require(value <= 2.0 * (math.sqrt(m) + 1.0), f"cell ({m},{k}): value {value!r} above 2(sqrt(m)+1)")
    anchor = CELL_ANCHORS.get((m, k))
    if anchor is not None:
        _require(anchor <= value < anchor + 1e-7, f"cell ({m},{k}): value {value!r} does not start {anchor}")
    ledger.record_cell(m, k, value)


def _option(argv: Sequence[str], name: str, default: Optional[str] = None) -> Optional[str]:
    return argv[argv.index(name) + 1] if name in argv else default


def check_lattice(argv: Sequence[str], doc: Dict[str, object], ledger: Ledger) -> None:
    _require_keys(doc, LATTICE_KEYS, "lattice-mu")
    label = _option(argv, "--lattice")
    K = int(_option(argv, "--K", "512"))
    dims = {"zn": 1, "e8": 8, "leech": 24}
    names = {"zn": "Z", "e8": "E8", "leech": "Leech"}
    n = int(label.split(":", 1)[1]) if label.startswith("dn:") else None
    dim = n if n is not None else dims[label]
    _require(doc["dim"] == dim, f"{label}: dim {doc['dim']!r} != {dim}")
    _require(doc["lattice"] == (f"D{n}" if n is not None else names[label]), f"{label}: label {doc['lattice']!r}")
    _require(doc["K"] == K, f"{label}: K {doc['K']!r} != {K}")
    t_star, mu, max_value = float(doc["t_star"]), float(doc["mu"]), float(doc["max_value"])
    _require(0.0 < t_star < 1.0, f"{label}: t_star {t_star!r} outside (0, 1)")
    _require(_close(mu, max_value ** (-1.0 / dim)), f"{label}: mu {mu!r} != max_value^(-1/d)")
    tail = float(doc["tail_bound"])
    _require(0.0 <= tail < float(doc["tol"]), f"{label}: tail bound {tail!r} not below tol")
    expected = "improvement" if mu < math.sqrt(3.0) / 2.0 else "no improvement"
    _require(doc["double_cap"] == expected, f"{label}: double_cap {doc['double_cap']!r}")
    if label == "zn":
        again = _theta3(t_star) * (1.0 - t_star)
    elif n is not None:
        again = _dn_objective(n, t_star)
    else:
        again = _series_value(ledger.series(label), t_star) * (1.0 - t_star) ** dim
    _require(_close(again, max_value), f"{label}: max_value {max_value!r} but the series at t* gives {again!r}")
    if n is not None:
        closed = ledger.mu_dn(n)
        _require(abs(mu - closed) <= 1e-9, f"{label}: mu {mu!r} but the closed form gives {closed!r}")
    else:
        anchor, tol = MU_ANCHORS[label]
        _require(abs(mu - anchor) <= tol, f"{label}: mu {mu!r} is not {anchor}")


def check_constants(doc: Dict[str, object]) -> None:
    _require_keys(doc, CONSTANTS_KEYS, "constants")
    value = float(doc["gamma_chi"])
    _require(_close(value, GAMMA_CHI), f"gamma_chi {value!r} != {GAMMA_CHI!r}")
    _require(abs(value - GAMMA_CHI_ANCHOR) < 1e-10, f"gamma_chi {value!r} does not start {GAMMA_CHI_ANCHOR}")
    _require(abs(float(doc["u_star"]) - U_STAR) <= 1e-9, f"u_star {doc['u_star']!r} != {U_STAR!r}")
    _require(_close(float(doc["inv_sqrt_2"]), 1.0 / math.sqrt(2.0)), "inv_sqrt_2 is wrong")
    _require(_close(float(doc["sqrt3_over_2"]), math.sqrt(3.0) / 2.0), "sqrt3_over_2 is wrong")
    _require(float(doc["kupavskii_base_m1"]) == 4.0, "kupavskii_base_m1 is not 4")


def check_invocation(
    argv: Sequence[str], returncode: int, stdout: str, ledger: Ledger
) -> None:
    """Raise OracleError unless ``chromabound <argv>`` exited 0 with correct output."""
    _require(returncode == 0, f"exit status {returncode}")
    command = argv[0]
    if command == "--version":
        _require(stdout.startswith("chromabound, version "), f"version output {stdout[:60]!r}")
        return
    if command == "verify":
        lines = stdout.strip().splitlines()
        summary = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
        _require(bool(lines) and lines[-1] == summary, f"verify did not print {summary!r}")
        _require(sum(line.startswith("ok ") for line in lines) == VERIFY_CHECKS, "verify: ok lines missing")
        return
    doc = _parse_json(stdout)
    _require_keys(doc, ("command", "tol"), command)
    _require(doc["command"] == command, f"JSON command {doc['command']!r} != {command!r}")
    if command == "bound":
        check_cell(doc, int(_option(argv, "--m")), int(_option(argv, "--k")), ledger)
    elif command == "table":
        m_max, k_max = int(_option(argv, "--m-max")), int(_option(argv, "--k-max"))
        cells = [(m, k) for m in range(1, m_max + 1) for k in range(1, min(m, k_max) + 1)]
        _require_keys(doc, ("results",), "table")
        results = doc["results"]
        _require(isinstance(results, list) and len(results) == len(cells), f"table: {len(results)} cells, expected {len(cells)}")
        for (m, k), record in zip(cells, results):
            check_cell(record, m, k, ledger)
    elif command == "lattice-mu":
        check_lattice(argv, doc, ledger)
    elif command == "constants":
        check_constants(doc)
    else:
        raise OracleError(f"no oracle for command {command!r}")
