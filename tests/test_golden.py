"""Every number of the golden record (tests/golden/) is printed again.

The cases run in-process and are compared with the checked-in record:
integers, strings, error classes and messages exactly, floats to
``ULPS`` units in the last place.  A change that moves a printed number
regenerates the record with ``tests/golden/generate.py``, which lists
the moves; this test never writes it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).parent / "golden" / "generate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("family", golden.FAMILIES)
def test_record_is_reproduced(family):
    moved = [
        (path, old, new, n)
        for path, old, new, n in golden.moves(golden.load(family), golden.family_record(family))
        if n > golden.ULPS
    ]
    assert not moved, "\n".join(
        f"{path}: {old!r} -> {new!r} ({'changed' if n == sys.maxsize else f'{n} ulp'})"
        for path, old, new, n in moved[:20]
    )


def test_ulps_counts_floats_between():
    assert golden.ulps(1.0, 1.0) == 0
    assert golden.ulps(1.0, 1.0 + 2.0 ** -52) == 1
    assert golden.ulps(-0.0, 0.0) == 0
    assert golden.ulps(-5e-324, 5e-324) == 2
    assert golden.ulps(1.0, 2.0) == 2 ** 52


def test_moves_flag_every_kind_of_change():
    old = {"a": 1, "b": [0.5, "x"], "c": {"d": 1.0}}
    assert list(golden.moves(old, old)) == []
    new = {"a": 2, "b": [0.5, "y"], "c": {"d": 1.0 + 2.0 ** -52}}
    found = {path: n for path, _, _, n in golden.moves(old, new)}
    assert found == {"/a": sys.maxsize, "/b[1]": sys.maxsize, "/c/d": 1}
    assert [n for *_, n in golden.moves({"a": 1}, {"a": 1.0})] == [sys.maxsize]
    assert [n for *_, n in golden.moves([1.0], [1.0, 2.0])] == [sys.maxsize]
