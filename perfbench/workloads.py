"""Command lines of the benchmark workloads, generated from the seed.

A workload is a list of ``chromabound`` argument vectors per pass.  The
program under test only ever sees these argument vectors.

Seeded parameters are drawn as Weyl sequences ``frac(offset + i * step)``
with the offsets taken from the seed: each parameter is uniform on its
range, as with independent draws, but every block of consecutive passes
covers the range evenly.  So the cost of a pass, and the medians of a
run, vary little from seed to seed, while the cells themselves differ.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List

Command = List[str]

TABLE: Command = ["table", "--m-max", "10", "--k-max", "10", "--format", "json"]
ANCHOR_CELLS = ((1, 1), (2, 1))
CELLS_PER_PASS = 10
M_MAX, K_MAX = 50, 3

# Irrational steps, one per seeded parameter, so the parameters of one
# pass are not correlated with each other.
_STEPS = ((math.sqrt(5.0) - 1.0) / 2.0, math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0)


def _offsets(seed: int) -> List[float]:
    rng = random.Random(seed)
    return [rng.random() for _ in _STEPS]


def _draw(offsets: List[float], which: int, index: int, low: int, high: int) -> int:
    """Integer in [low, high] from the ``which``-th Weyl sequence at ``index``."""
    u = (offsets[which] + index * _STEPS[which]) % 1.0
    return low + min(int(u * (high - low + 1)), high - low)


def bound_command(m: int, k: int) -> Command:
    return ["bound", "--m", str(m), "--k", str(k), "--format", "json"]


def bounds(seed: int, pass_index: int) -> List[Command]:
    """The 10x10 table, the two anchor cells and CELLS_PER_PASS seeded
    cells with m uniform on 1..50 and k uniform on 1..min(m, 3)."""
    offsets = _offsets(seed)
    commands = [TABLE] + [bound_command(m, k) for m, k in ANCHOR_CELLS]
    for i in range(pass_index * CELLS_PER_PASS, (pass_index + 1) * CELLS_PER_PASS):
        m = _draw(offsets, 0, i, 1, M_MAX)
        k = _draw(offsets, 1, i, 1, min(m, K_MAX))
        commands.append(bound_command(m, k))
    return commands


def lattice(seed: int, pass_index: int) -> List[Command]:
    """lattice-mu for Leech (K in 1536..2048), E8 (K in 1024..2048),
    D_n (n in 8..24, default K) and Z."""
    offsets = _offsets(seed)
    leech_k = _draw(offsets, 0, pass_index, 1536, 2048)
    e8_k = _draw(offsets, 1, pass_index, 1024, 2048)
    n = _draw(offsets, 2, pass_index, 8, 24)
    tail = ["--format", "json"]
    return [
        ["lattice-mu", "--lattice", "leech", "--K", str(leech_k)] + tail,
        ["lattice-mu", "--lattice", "e8", "--K", str(e8_k)] + tail,
        ["lattice-mu", "--lattice", f"dn:{n}"] + tail,
        ["lattice-mu", "--lattice", "zn"] + tail,
    ]


def verify(seed: int, pass_index: int) -> List[Command]:
    """``constants`` and all 21 verify checks.  The seed has no effect:
    the suites carry fixed internal seeds."""
    return [["constants", "--format", "json"], ["verify", "--suite", "all"]]


WORKLOADS: Dict[str, Callable[[int, int], List[Command]]] = {
    "bounds": bounds,
    "lattice": lattice,
    "verify": verify,
}
