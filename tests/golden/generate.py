"""The golden record: every number a set of CLI calls prints, one JSON file per command.

Each case runs the CLI in-process (click's test runner) with
``--format json`` and keeps the parsed output, or, where the call fails,
its exit code, the class of the error behind it and its message.
``verify`` keeps the detail of every check instead of its ok lines.
``tests/test_golden.py`` reruns the cases and compares them with the
record: integers, strings, error classes and messages exactly, floats to
``ULPS`` units in the last place.

The test never rewrites the record.  A change that moves a printed
number regenerates it and says what moved::

    PYTHONPATH=src python tests/golden/generate.py

which rewrites every file and prints each entry that moved, with its
move in ulps, and per file the count and the largest relative move.
The record is not an oracle: correctness rests on ``verify``, the
benchmark's oracle and the other tests.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import click
from click.testing import CliRunner

from chromabound import verify
from chromabound.cli import cli

HERE = Path(__file__).resolve().parent

#: Floats may move this many units in the last place (another libm, or
#: another Python) before a case counts as moved.
ULPS = 4

_LATTICE_K = (16, 24, 29, 32, 512, 2048)

#: Command family -> (case name, CLI arguments before --format json).
CASES: Dict[str, List[Tuple[str, List[str]]]] = {
    "constants": [("constants", ["constants"])],
    "bound": [
        (f"m{m}_k{k}", ["bound", "--m", str(m), "--k", str(k)])
        for m in (100, 200, 500)
        for k in (1, 2, 3)
    ],
    "table": [("m50_k50", ["table", "--m-max", "50", "--k-max", "50"])],
    "lattice_mu": [
        ("zn", ["lattice-mu", "--lattice", "zn"]),
        *((f"dn{n}", ["lattice-mu", "--lattice", f"dn:{n}"]) for n in range(1, 65)),
        *((f"dn21_K{K}", ["lattice-mu", "--lattice", "dn:21", "--K", str(K)]) for K in (28, 64)),
        *(
            (f"{name}_K{K}", ["lattice-mu", "--lattice", name, "--K", str(K)])
            for name in ("e8", "leech")
            for K in _LATTICE_K
        ),
    ],
}

FAMILIES = (*CASES, "verify")


def run_cli(args: List[str]) -> Dict[str, object]:
    """The parsed JSON output of one CLI call, or its exit code, error class and message."""
    result = CliRunner().invoke(cli, [*args, "--format", "json"], standalone_mode=False)
    error = result.exception
    if error is None:
        return {"exit": 0, "output": json.loads(result.stdout)}
    if not isinstance(error, click.ClickException):
        raise error
    # lattice-mu re-raises a library error as a ClickException; name the original.
    return {
        "exit": error.exit_code,
        "error": type(error.__context__ or error).__name__,
        "message": error.format_message(),
    }


def family_record(family: str) -> Dict[str, object]:
    """Case name -> record, for one family, computed now."""
    if family == "verify":
        return {
            f"{r.suite}.{r.name}": {"passed": r.passed, "detail": r.detail}
            for r in verify.run_suites(list(verify.SUITES))
        }
    return {name: run_cli(args) for name, args in CASES[family]}


def path_of(family: str) -> Path:
    return HERE / f"{family}.json"


def load(family: str) -> Dict[str, object]:
    with open(path_of(family), encoding="utf-8") as handle:
        return json.load(handle)


def _ordered(x: float) -> int:
    # The float's bits as an integer that counts ulps: consecutive floats
    # map to consecutive integers, with -0.0 and 0.0 both at 0.
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFFFFFFFFFFFFFF)


def ulps(a: float, b: float) -> int:
    """How many floats lie from a to b; 0 for two equal or two nan values."""
    if math.isnan(a) or math.isnan(b):
        return 0 if math.isnan(a) and math.isnan(b) else sys.maxsize
    return abs(_ordered(a) - _ordered(b))


def moves(old: object, new: object, path: str = "") -> Iterator[Tuple[str, object, object, int]]:
    """Each leaf where ``new`` differs from ``old``, as (path, old, new, ulps).

    Two floats yield their ulp distance when they differ; anything else
    that differs (another type, key, length or value) yields
    ``sys.maxsize``, which no tolerance forgives.
    """
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from moves(old[key], new[key], f"{path}/{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from moves(a, b, f"{path}[{i}]")
    elif type(old) is float and type(new) is float:
        if old.hex() != new.hex():
            yield path, old, new, ulps(old, new)
    elif type(old) is not type(new) or old != new:
        yield path, old, new, sys.maxsize


def main() -> None:
    for family in FAMILIES:
        new = family_record(family)
        old = load(family) if path_of(family).exists() else None
        with open(path_of(family), "w", encoding="utf-8") as handle:
            json.dump(new, handle, indent=1, sort_keys=True)
            handle.write("\n")
        if old is None:
            print(f"{family}: new record, {len(new)} cases")
            continue
        moved = list(moves(old, new))
        for path, a, b, n in moved:
            shown = "changed" if n == sys.maxsize else f"{n} ulp"
            print(f"{family}{path}: {a!r} -> {b!r} ({shown})")
        rel = max(
            (abs(b - a) / abs(a) for _, a, b, n in moved if n != sys.maxsize and a),
            default=0.0,
        )
        print(f"{family}: {len(moved)} moved, largest relative move {rel:.3g}")


if __name__ == "__main__":
    main()
