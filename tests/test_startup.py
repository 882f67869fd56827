"""Start-up: which layers a CLI command executes, and the lazy package.

The layer checks run in a fresh interpreter, since this test process has
long since executed every layer.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chromabound
import chromabound.cli as cli_module
from chromabound import verify

LAYERS = chromabound._LAYERS

# Imports chromabound.cli, runs it in-process on the argv given as JSON
# (none if empty) and prints the registered layers, the layers whose
# bodies ran (one not yet run is still a lazy module subclass), whether
# numpy was imported, and which of the modules the package could load
# for itself (``OWN_IMPORTS``) were imported although ``import click``
# alone does not import them.
PROBE = """
import contextlib, io, json, sys, types
import click
preloaded = set(sys.modules)
import chromabound.cli
argv = json.loads(sys.argv[1])
code = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = chromabound.cli.cli.main(args=argv, prog_name="chromabound", standalone_mode=False)
layers = {n.rpartition(".")[2]: m for n, m in sys.modules.items() if n.startswith("chromabound.")}
del layers["cli"]
print(json.dumps({
    "code": code or 0,
    "registered": sorted(layers),
    "executed": sorted(n for n, m in layers.items() if type(m) is types.ModuleType),
    "numpy": "numpy" in sys.modules,
    "own_imports": sorted(n for n in json.loads(sys.argv[2]) if n in sys.modules and n not in preloaded),
}))
"""

#: Standard modules that no command needs for itself: records are named
#: tuples, and only ``--format csv`` writes csv.
OWN_IMPORTS = ["csv", "dataclasses"]


def run_fresh(code, *args):
    """Run ``code`` in a fresh interpreter and parse the JSON it prints."""
    src = str(Path(cli_module.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def fresh(argv):
    return run_fresh(PROBE, json.dumps(argv), json.dumps(OWN_IMPORTS))


# Every lattice, Leech and D_n included, since their power kernel
# _sparse_power lives in special_functions.
LATTICE_LAYERS = ["brent", "lattice_theta", "special_functions"]
SCALAR_LAYERS = ["bound_engine", "brent", "special_functions"]
# lattice_combinatorics takes _sparse_power from special_functions, which
# takes its cell search from brent.
COMBINATORICS_LAYERS = ["brent", "lattice_combinatorics", "special_functions"]


@pytest.mark.parametrize(
    "argv, executed",
    [
        (["--version"], []),
        (["bound", "--help"], []),
        (["lattice-mu", "--help"], []),
        # The bound search takes its argument checks and its series kernel
        # (_stopped_sum) from special_functions.
        (["bound", "--m", "1", "--k", "1"], SCALAR_LAYERS),
        (["table", "--m-max", "2", "--k-max", "2"], SCALAR_LAYERS),
        # The mu search is pure Python; no command runs optimize.
        (["lattice-mu", "--lattice", "zn"], LATTICE_LAYERS),
        # kupavskii_upper_base sits beside the other reference constants.
        (["constants"], ["brent", "special_functions"]),
        (["verify", "--suite", "all"], sorted(n for n in LAYERS if n not in ("lattice_theta", "optimize"))),
        # Each suite runs only the layers its checks call.
        (["verify", "--suite", "theta"], ["brent", "special_functions", "verify"]),
        (["verify", "--suite", "bounds"], [*SCALAR_LAYERS, "verify"]),
        (["verify", "--suite", "combinatorics"], [*COMBINATORICS_LAYERS, "verify"]),
        (["verify", "--suite", "tensor"], sorted([*COMBINATORICS_LAYERS, "tensor_oracle", "verify"])),
        (["lattice-mu", "--lattice", "dn:16"], LATTICE_LAYERS),
        (["lattice-mu", "--lattice", "e8"], LATTICE_LAYERS),
        (["lattice-mu", "--lattice", "leech"], LATTICE_LAYERS),
    ],
    ids=[
        "version", "bound-help", "lattice-mu-help", "bound", "table", "lattice-mu", "constants",
        "verify", "verify-theta", "verify-bounds", "verify-combinatorics", "verify-tensor",
        "lattice-mu-dn16", "lattice-mu-e8", "lattice-mu-leech",
    ],
)
def test_command_executes_only_its_layers(argv, executed):
    found = fresh(argv)
    assert found["code"] == 0
    assert found["registered"] == sorted(LAYERS)
    assert found["executed"] == executed
    assert not found["numpy"]
    assert found["own_imports"] == []


@pytest.mark.parametrize(
    "argv, own_imports",
    [
        (["table", "--m-max", "2", "--k-max", "2", "--format", "csv"], ["csv"]),
        (["table", "--m-max", "2", "--k-max", "2", "--format", "json"], []),
        (["lattice-mu", "--lattice", "e8", "--format", "csv"], ["csv"]),
    ],
    ids=["table-csv", "table-json", "lattice-mu-csv"],
)
def test_csv_is_imported_only_for_csv_output(argv, own_imports):
    # The positive controls show that the probe sees an import of csv.
    found = fresh(argv)
    assert found["code"] == 0
    assert found["own_imports"] == own_imports


# Runs chromabound.cli in-process on the argv given as arguments and
# prints whether json was imported.  PROBE imports json itself before its
# snapshot, so this probe imports nothing but click and the package first.
JSON_PROBE = """
import contextlib, io, sys
import click
assert "json" not in sys.modules
import chromabound.cli
with contextlib.redirect_stdout(io.StringIO()):
    chromabound.cli.cli.main(args=sys.argv[1:], prog_name="chromabound", standalone_mode=False)
print("true" if "json" in sys.modules else "false")
"""


@pytest.mark.parametrize(
    "argv, loads_json",
    [
        (["--version"], False),
        (["verify", "--suite", "all"], False),
        (["constants"], False),
        (["table", "--m-max", "2", "--k-max", "2", "--format", "csv"], False),
        # The positive control shows that the probe sees an import of json.
        (["constants", "--format", "json"], True),
    ],
    ids=["version", "verify", "constants", "table-csv", "constants-json"],
)
def test_json_is_imported_only_for_json_output(argv, loads_json):
    assert run_fresh(JSON_PROBE, *argv) is loads_json


def test_importing_cli_registers_every_layer_and_runs_none():
    # perfbench's tracer finds the layers in sys.modules after this import.
    found = fresh([])
    assert found["registered"] == sorted(LAYERS)
    assert found["executed"] == []
    assert not found["numpy"]
    assert found["own_imports"] == []


# The commands of the CI step "Commands run without numpy".
NUMPY_FREE_COMMANDS = [
    ["bound", "--m", "50", "--k", "1"],
    ["table", "--m-max", "10", "--k-max", "10"],
    ["constants"],
    ["verify", "--suite", "all"],
    ["lattice-mu", "--lattice", "zn"],
    ["lattice-mu", "--lattice", "leech", "--K", "2048"],
]


def test_scalar_calls_leave_numpy_unloaded():
    # With sys.modules["numpy"] = None any import of numpy raises
    # ImportError, so the interpreter exits with an error if an evaluator
    # (on a float or an int), optimize or one of the commands needs numpy.
    code = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import chromabound as cb
import chromabound.cli
from chromabound import optimize
e8 = cb.e8_series(16)
for t in (0.5, 0):
    cb.theta_truncated(t, 0.5, 3), cb.theta_full(t, 0.5), cb.theta_ratio(t, 0.5, 3)
    cb.jacobi_theta(3, t), cb.jacobi_theta_and_tail(2, t)
    e8.evaluate(t), e8.tail_bound(t)
cb.one_minus_t_theta_max(0.5), cb.functional_equation_residual(1)
optimize.maximize_on_unit_interval(lambda t: cb.theta_ratio(t, 1.0 / 11.0, 21))
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = chromabound.cli.cli.main(args=argv, prog_name="chromabound", standalone_mode=False)
    codes.append(code or 0)
print(json.dumps(codes))
"""
    assert run_fresh(code, json.dumps(NUMPY_FREE_COMMANDS)) == [0] * len(NUMPY_FREE_COMMANDS)


def test_suite_choices_match_registry():
    assert cli_module._SUITES == tuple(verify.SUITES)


def test_layer_table_names_every_module():
    package = Path(chromabound.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "cli"}
    assert sorted(LAYERS) == sorted(modules)


def test_every_public_name_is_its_layers_object():
    assert len(chromabound.__all__) == len(set(chromabound.__all__))
    listed = set(dir(chromabound))
    for name in chromabound.__all__:
        obj = getattr(chromabound, name)
        layer = sys.modules[obj.__module__]
        assert layer.__name__.rpartition(".")[2] in LAYERS
        assert getattr(layer, name) is obj
        assert name in listed


def test_every_public_name_is_used_in_the_package():
    # No public API that the engine does not use: each name in __all__ is
    # looked up somewhere in the package.  Names and attributes count;
    # strings, such as the entries of _EXPORTS, do not.
    used = set()
    for path in Path(chromabound.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(chromabound.__all__) - used) == []


def test_public_names_are_not_cached_in_the_package(monkeypatch):
    from chromabound import bound_engine

    monkeypatch.setattr(bound_engine, "table", "patched")
    assert chromabound.table == "patched"
    assert "table" not in vars(chromabound)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chromabound.no_such_name
    with pytest.raises(ImportError):
        from chromabound import no_such_name  # noqa: F401
