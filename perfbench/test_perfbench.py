"""Self-tests of the benchmark: the oracle rejects wrong output, the
result format matches BENCHMARK.json, and trace counts repeat.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "bounds": ("bound_p50_s", "bound_tail_s", "table_s"),
    "lattice": ("lattice_mu_p50_s", "lattice_mu_max_s"),
    "verify": ("verify_s",),
}


@pytest.fixture(scope="module")
def outputs():
    """Real CLI output for one command of each kind."""
    runner = run.ChildRunner()
    try:
        commands = {
            "bound": workloads.bound_command(2, 1),
            "table": ["table", "--m-max", "3", "--k-max", "2", "--format", "json"],
            "lattice-mu": ["lattice-mu", "--lattice", "dn:8", "--format", "json"],
            "constants": ["constants", "--format", "json"],
        }
        return {name: (argv, runner.run(argv)) for name, argv in commands.items()}
    finally:
        runner.close()


def _accepts(argv, returncode, stdout):
    oracle.check_invocation(argv, returncode, stdout, oracle.Ledger())


def _rejects(argv, returncode, stdout):
    with pytest.raises(oracle.OracleError):
        _accepts(argv, returncode, stdout)


@pytest.mark.parametrize("kind", ["bound", "table", "lattice-mu", "constants"])
def test_real_output_accepted(outputs, kind):
    argv, inv = outputs[kind]
    _accepts(argv, inv.returncode, inv.stdout)


def test_cell_off_by_1e6_rejected(outputs):
    argv, inv = outputs["bound"]
    doc = json.loads(inv.stdout)
    doc["value"] += 1e-6
    _rejects(argv, 0, json.dumps(doc))
    argv, inv = outputs["table"]
    doc = json.loads(inv.stdout)
    doc["results"][-1]["value"] -= 1e-6
    _rejects(argv, 0, json.dumps(doc))


def test_nonzero_exit_rejected(outputs):
    for argv, inv in outputs.values():
        _rejects(argv, 1, inv.stdout)


@pytest.mark.parametrize("kind", ["bound", "lattice-mu", "constants"])
def test_missing_key_rejected(outputs, kind):
    argv, inv = outputs[kind]
    doc = json.loads(inv.stdout)
    for key in list(doc):
        broken = copy.deepcopy(doc)
        del broken[key]
        _rejects(argv, 0, json.dumps(broken))


def test_unequal_cells_of_equal_gamma_rejected():
    ledger = oracle.Ledger()
    ledger.record_cell(2, 1, 1.4662990154200097)
    ledger.record_cell(5, 2, 1.4662990154200097)  # gamma = 1/3 again
    with pytest.raises(oracle.OracleError):
        ledger.record_cell(8, 3, 1.4662990154200097 * (1 + 1e-9))


def test_verify_summary_required():
    good = "\n".join(["ok   theta.x"] * 21 + ["21/21 checks passed"])
    _accepts(["verify", "--suite", "all"], 0, good)
    _rejects(["verify", "--suite", "all"], 0, good.replace("21/21", "20/21"))


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    value, pct = run.tail(values)
    assert pct == 90 and sum(v > value for v in values) == 10
    value, pct = run.tail(list(range(1, 67)))
    assert sum(v > value for v in range(1, 67)) >= 10
    assert run.tail([3.0, 1.0]) == (3.0, 100)


def test_trace_counts_repeat_exactly():
    sys.path.insert(0, str(ROOT / "src"))
    import chromabound.cli  # noqa: F401

    argv = ["table", "--m-max", "4", "--k-max", "2", "--format", "json"]
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        t.install()
        try:
            inv = run.run_inprocess(argv)
        finally:
            t.uninstall()
        assert inv.returncode == 0
        counts.append({k: v for k, v in t.metrics().items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["bound_engine.best_l.calls"] == 7


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in CONTRACT["workloads"]} == set(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in CONTRACT["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert len(names) == len(set(names)) and len(CONTRACT["per_layer"]) <= 128


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_pass_emits_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    specs = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {s["name"]: s["unit"] for s in specs}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        printed = {line.split("  ", 1)[1].split(" = ")[0]: line.rsplit(" ", 1)[1] for line in lines[1:-1]}
        for name in NAMED[workload]:
            assert printed[name] == "s"
        assert printed["failed_frac"] == "ratio"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "bounds", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
