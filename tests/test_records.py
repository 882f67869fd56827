"""The record contract: each of the package's ten records is an immutable
value, compared and hashed by its fields, and a record that validates
does so when it is built."""

import pytest

from chromabound import (
    BoundQuery,
    BoundResult,
    CliqueBoundReport,
    CompositionProfile,
    GammaChiResult,
    MuResult,
    PointConfig,
    SetPartition,
    ThetaSeries,
)
from chromabound.verify import CheckResult

# Record class -> the keyword arguments of one valid record, and one
# field with another valid value.
RECORDS = [
    (GammaChiResult, dict(value=0.8, u_star=1.25, inner_max=0.64), ("u_star", 1.5)),
    (BoundQuery, dict(m=2, k=1), ("k", 2)),
    (
        BoundResult,
        dict(m=2, k=1, gamma=1 / 3, l_star=4, t_star=0.5, value=1.46, warning=None),
        ("warning", "k > m: bound may be trivial"),
    ),
    (ThetaSeries, dict(dim=8, coeffs=(1, 240, 2160), label="E8"), ("label", "")),
    (
        MuResult,
        dict(lattice_label="E8", dim=8, t_star=0.28, mu=0.88, max_value=2.68,
             tail_bound=1e-20, max_upper=2.68),
        ("mu", 0.9),
    ),
    (CompositionProfile, dict(counts=(2, 1, 0)), ("counts", (1, 1))),
    (SetPartition, dict(blocks=frozenset({frozenset({1, 2}), frozenset({3})})),
     ("blocks", frozenset({frozenset({1, 2, 3})}))),
    (PointConfig, dict(points=((0, 0), (1, 1)), p=5, m=1), ("p", 7)),
    (
        CliqueBoundReport,
        dict(n=2, l=1, m=1, k=1, p=2, d_max=1, ground_size=2, extremal_size=2,
             extremal_subset=((0, 0), (1, 1)), rank_bound=8, holds=True),
        ("holds", False),
    ),
    (CheckResult, dict(suite="theta", name="gamma_chi_stationarity", passed=True, detail=""),
     ("passed", False)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, kwargs, change", RECORDS, ids=IDS)
class TestRecordContract:
    def test_fields_in_order(self, cls, kwargs, change):
        assert cls._fields == tuple(kwargs)
        assert cls(**kwargs) == cls(*kwargs.values())

    def test_fields_are_read_only(self, cls, kwargs, change):
        record = cls(**kwargs)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        assert record == cls(**kwargs)

    def test_equality_and_hash_by_value(self, cls, kwargs, change):
        assert cls(**kwargs) == cls(**kwargs)
        assert hash(cls(**kwargs)) == hash(cls(**kwargs))
        name, value = change
        other = cls(**{**kwargs, name: value})
        assert other != cls(**kwargs)
        assert len({cls(**kwargs), cls(**kwargs), other}) == 2
        replaced = cls(**kwargs)._replace(**{name: value})
        assert type(replaced) is cls and replaced == other

    def test_repr_names_its_fields(self, cls, kwargs, change):
        shown = repr(cls(**kwargs))
        assert shown.startswith(f"{cls.__name__}(")
        for name, value in kwargs.items():
            assert f"{name}={value!r}" in shown


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: BoundQuery(0, 1), ValueError, "m and k must be positive"),
        (lambda: BoundQuery(m=1, k=0), ValueError, "m and k must be positive"),
        (lambda: ThetaSeries(0, (1,)), ValueError, "dim must be a positive"),
        (lambda: ThetaSeries(dim=8, coeffs=(2, 240)), ValueError, "zero vector"),
        (lambda: ThetaSeries(8, ()), ValueError, "zero vector"),
        (lambda: ThetaSeries(8, (1, -1), "bad"), ValueError, "nonnegative"),
        (lambda: CompositionProfile(()), ValueError, "nonempty"),
        (lambda: CompositionProfile(counts=(1, -1)), ValueError, "nonnegative"),
        (lambda: SetPartition(frozenset()), ValueError, "nonempty"),
        (lambda: SetPartition.of([{1}, {3}]), ValueError, "partition"),
        (lambda: PointConfig(((0, 0), (1, 1)), p=4, m=1), ValueError, "not prime"),
        (lambda: PointConfig(((0, 0), (1, 0)), p=5, m=1), ValueError, "odd squared distance"),
        (lambda: PointConfig((), p=5, m=1), ValueError, "at least one point"),
        (lambda: PointConfig(((0, 0),), p=5, m=0), ValueError, "m must be"),
        # _replace builds a record too.
        (lambda: BoundQuery(1, 1)._replace(k=0), ValueError, "m and k must be positive"),
        (lambda: ThetaSeries(8, (1, 240))._replace(coeffs=(1, -1)), ValueError, "nonnegative"),
        (lambda: CompositionProfile((1,))._replace(counts=()), ValueError, "nonempty"),
        (lambda: SetPartition.of([{1}])._replace(blocks=frozenset({frozenset({2})})), ValueError, "partition"),
        (lambda: PointConfig(((0, 0),), p=5, m=1)._replace(p=6), ValueError, "not prime"),
    ],
    ids=[
        "BoundQuery-m", "BoundQuery-k", "ThetaSeries-dim", "ThetaSeries-zero",
        "ThetaSeries-empty", "ThetaSeries-negative", "CompositionProfile-empty",
        "CompositionProfile-negative", "SetPartition-empty", "SetPartition-gap",
        "PointConfig-prime", "PointConfig-parity", "PointConfig-empty", "PointConfig-m",
        "BoundQuery-replace", "ThetaSeries-replace", "CompositionProfile-replace",
        "SetPartition-replace", "PointConfig-replace",
    ],
)
def test_validation_at_construction(build, error, match):
    with pytest.raises(error, match=match):
        build()
