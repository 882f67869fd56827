#!/usr/bin/env python3
"""chromabound benchmark: CLI invocations timed from interpreter start.

    python3 perfbench/run.py --workload bounds --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is taken from ``src/`` via
``PYTHONPATH=src``, so the working tree is measured without an install.

``--trace 0`` (end to end): one client in a closed loop starts
``python -m chromabound.cli <args>`` children one at a time, each after
the previous one has exited, and repeats the workload's pass until
``--seconds`` would be exceeded.  Every output is checked by ``oracle``.

``--trace 1`` (per layer): the pass-0 command list runs in this process
through ``chromabound.cli.cli.main(args, standalone_mode=False)``,
alternately with and without the ``tracer`` wrappers.

Lines before the last are the provenance stamp and every metric by name
with its unit; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where
``metrics`` holds the ``end_to_end`` (trace 0) or ``per_layer``
(trace 1) metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import oracle
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3  # before the first pass; one more before each pass
INVOCATION_TIMEOUT_S = 60.0
GRACE_S = 60.0  # a run stops starting invocations this long past --seconds
BLAS_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TAIL_BEYOND = 10

# The shared machine's speed drifts by tens of percent over minutes.  A
# fixed program that does not use chromabound (interpreter start, numpy
# import, scalar float loops and small array operations, like the CLI)
# runs before every pass; the *_ref_s metrics scale a timing by
# PROBE_REF_S / (median probe time of the run), i.e. they give seconds at
# the machine speed where the probe takes PROBE_REF_S.
PROBE = """
import numpy as np
acc = 0.0
for i in range(40000):
    t = (i % 997) / 997.0
    acc += t ** 0.37 / (1.0 + t)
x = np.linspace(0.0, 1.0, 4096)
for _ in range(300):
    x = np.sqrt(x * 0.999 + 0.001)
"""
PROBE_REF_S = 0.25


class SetupError(Exception):
    """The program cannot be run at all; no result is printed."""


@dataclass
class Invocation:
    argv: List[str]
    seconds: float
    maxrss_kib: int
    returncode: int
    stdout: str
    error: Optional[str] = None  # why the invocation counts as failed


def child_env() -> Dict[str, str]:
    """The user's environment, with the package from src/, the default
    thread setting (CHROMABOUND_THREADS unset) and BLAS pools capped at one
    thread: the package makes no BLAS calls, and on a 2-vCPU machine the
    pool threads each child would start only add noise."""
    env = dict(os.environ)
    env.pop("CHROMABOUND_THREADS", None)
    env["PYTHONPATH"] = "src"
    env.update(BLAS_CAPS)
    return env


class ChildRunner:
    """Runs ``python -m chromabound.cli`` children one at a time."""

    def __init__(self) -> None:
        self._env = child_env()
        self._out = tempfile.TemporaryFile(dir=ROOT)

    def close(self) -> None:
        self._out.close()

    def run(self, argv: Sequence[str]) -> Invocation:
        """``python -m chromabound.cli <argv>``."""
        return self.spawn(["-m", "chromabound.cli", *argv], argv)

    def spawn(self, python_args: Sequence[str], argv: Sequence[str]) -> Invocation:
        self._out.seek(0)
        self._out.truncate()
        lock, state = threading.Lock(), {"done": False, "killed": False}
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *python_args],
            cwd=ROOT, env=self._env, stdin=subprocess.DEVNULL,
            stdout=self._out, stderr=subprocess.DEVNULL,
        )

        def kill() -> None:
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(INVOCATION_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                state["done"] = True
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self._out.seek(0)
        stdout = self._out.read().decode("utf-8", "replace")
        inv = Invocation(list(argv), seconds, usage.ru_maxrss, proc.returncode, stdout)
        if state["killed"]:
            inv.error = f"timed out after {INVOCATION_TIMEOUT_S:.0f} s"
        return inv


def run_inprocess(argv: Sequence[str]) -> Invocation:
    """``chromabound.cli.cli.main(argv, standalone_mode=False)`` with stdout captured."""
    import click
    from chromabound.cli import cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(args=list(argv), prog_name="chromabound", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception as exc:  # the run goes on; the invocation counts as failed
            code, out = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
    return Invocation(list(argv), time.perf_counter() - start, 0, code, out.getvalue())


def check(inv: Invocation, ledger: oracle.Ledger) -> Invocation:
    if inv.error is None:
        try:
            oracle.check_invocation(inv.argv, inv.returncode, inv.stdout, ledger)
        except oracle.OracleError as exc:
            inv.error = str(exc)
    return inv


def tail(values: Sequence[float]) -> Tuple[float, int]:
    """Highest integer percentile with at least TAIL_BEYOND samples above
    it (nearest rank), as ``(value, percentile)``; the maximum below
    TAIL_BEYOND + 1 samples."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    return xs[max(math.ceil(pct * n / 100) - 1, 0)], pct


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    """Provenance of a result: code, machine, versions and child environment."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = dirty = None
    if (ROOT / ".git").exists():  # the benchmark's checkout need not be a repository
        sha = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        dirty = None if status is None else bool(status)
    env = child_env()
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": workload != "verify",
        "seconds": seconds,
        "trace": int(trace),
        "load": "in-process, one thread" if trace else "closed loop, one client, one child at a time",
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "child_env": {
            "PYTHONPATH": env["PYTHONPATH"],
            "CHROMABOUND_THREADS": "unset",
            **{name: env[name] for name in BLAS_CAPS},
        },
        "blas_caps_set_by_harness": sorted(BLAS_CAPS),
    }


def _check_checkout() -> None:
    if not (SRC / "chromabound" / "cli.py").is_file():
        raise SetupError(f"no chromabound package under {SRC}")


def time_setup(runner: ChildRunner, ledger: oracle.Ledger) -> float:
    """One ``--version`` from interpreter start (numpy + click import)."""
    inv = check(runner.run(["--version"]), ledger)
    if inv.error:
        raise SetupError(f"chromabound --version failed: {inv.error}")
    return inv.seconds


def time_probe(runner: ChildRunner) -> float:
    """One run of PROBE, a fixed program that does not use chromabound."""
    inv = runner.spawn(["-c", PROBE], ["probe"])
    if inv.returncode != 0 or inv.error:
        raise SetupError("the speed probe failed")
    return inv.seconds


def end_to_end(workload: str, seed: int, seconds: int) -> Tuple[Dict[str, float], List[Invocation], Dict[str, object]]:
    """Run passes of the workload until ``seconds`` would be exceeded."""
    make = workloads.WORKLOADS[workload]
    ledger = oracle.Ledger()
    runner = ChildRunner()
    try:
        setup_times = [time_setup(runner, ledger) for _ in range(SETUP_REPEATS)]
        probe_times = [time_probe(runner) for _ in range(SETUP_REPEATS)]
        start = time.perf_counter()
        passes: List[Tuple[float, List[Invocation]]] = []
        while True:
            setup_times.append(time_setup(runner, ledger))  # spread over the run
            probe_times.append(time_probe(runner))
            pass_start = time.perf_counter()
            invs = []
            for argv in make(seed, len(passes)):
                invs.append(runner.run(argv))
                if time.perf_counter() - start > seconds + GRACE_S:
                    break
            passes.append((time.perf_counter() - pass_start, invs))
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(w for w, _ in passes) > seconds or elapsed > seconds + GRACE_S:
                break
    finally:
        runner.close()
    invocations = [check(inv, ledger) for _, invs in passes for inv in invs]
    per_pass = [[inv.seconds for inv in invs] for _, invs in passes]
    probe_s = statistics.median(probe_times)
    metrics: Dict[str, float] = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(w for w, _ in passes),
        "cmd_p50_s": statistics.median(statistics.median(p) for p in per_pass),
        "peak_rss_mb": statistics.median(max(inv.maxrss_kib for inv in invs) / 1024.0 for _, invs in passes),
        "probe_s": probe_s,
    }
    metrics["wall_ref_s"] = metrics["wall_s"] * PROBE_REF_S / probe_s
    metrics["cmd_p50_ref_s"] = metrics["cmd_p50_s"] * PROBE_REF_S / probe_s
    extra: Dict[str, object] = {
        "passes": len(passes), "invocations": len(invocations), "setup_samples": len(setup_times),
    }

    def times(command: str) -> List[float]:
        return [inv.seconds for inv in invocations if inv.argv[0] == command]

    if workload == "bounds":
        bound_times = times("bound")
        metrics["bound_p50_s"] = statistics.median(bound_times)
        metrics["bound_tail_s"], extra["bound_tail_percentile"] = tail(bound_times)
        extra["bound_samples"] = len(bound_times)
        metrics["table_s"] = statistics.median(times("table"))
    elif workload == "lattice":
        metrics["lattice_mu_p50_s"] = metrics["cmd_p50_s"]
        metrics["lattice_mu_max_s"] = statistics.median(max(p) for p in per_pass)
    elif workload == "verify":
        metrics["verify_s"] = statistics.median(times("verify"))
    return metrics, invocations, extra


def traced(workload: str, seed: int, seconds: int) -> Tuple[Dict[str, float], List[Invocation], Dict[str, object]]:
    """Per-layer metrics from the pass-0 command list run in this process.

    A warm-up pass runs first, so lazy imports and caches are filled on
    both sides; then traced and untraced passes alternate until
    ``seconds`` would be exceeded.  Counts must repeat exactly in every
    traced pass; times are medians over the traced passes.
    """
    sys.path.insert(0, str(SRC))
    os.environ.pop("CHROMABOUND_THREADS", None)
    import chromabound.cli  # noqa: F401  (imports every layer)
    import tracer as tracer_mod

    commands = workloads.WORKLOADS[workload](seed, 0)
    ledger = oracle.Ledger()
    tracer = tracer_mod.Tracer()
    invocations: List[Invocation] = []

    def one_pass() -> float:
        start = time.perf_counter()
        invocations.extend(run_inprocess(argv) for argv in commands)
        return time.perf_counter() - start

    one_pass()  # warm-up
    start = time.perf_counter()
    traced_walls: List[float] = []
    untraced_walls: List[float] = []
    runs: List[Dict[str, float]] = []
    while True:
        tracer.reset()
        tracer.install()
        try:
            traced_walls.append(one_pass())
        finally:
            tracer.uninstall()
        runs.append(tracer.metrics())
        untraced_walls.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed + traced_walls[-1] + untraced_walls[-1] > seconds:
            break
    for inv in invocations:
        check(inv, ledger)
    repeat_ok = True
    metrics: Dict[str, float] = {}
    for name in runs[0]:
        values = [run.get(name, 0) for run in runs]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            repeat_ok &= all(v == values[0] for v in values)
    traced_s, untraced_s = statistics.median(traced_walls), statistics.median(untraced_walls)
    metrics["trace.traced_s"] = traced_s
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    extra = {"traced_passes": len(runs), "counts_repeat": repeat_ok, "commands": len(commands)}
    return metrics, invocations, extra


# Units of the metrics printed by name that are not in BENCHMARK.json.
NAMED_UNITS = {
    "wall_s": "s", "cmd_p50_s": "s", "probe_s": "s", "bound_p50_s": "s", "bound_tail_s": "s", "table_s": "s", "lattice_mu_p50_s": "s",
    "lattice_mu_max_s": "s", "verify_s": "s", "failed_frac": "ratio",
}


def load_contract() -> Dict[str, object]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: int, trace: bool, contract: Dict[str, object]) -> Tuple[Dict[str, object], List[str]]:
    """One workload; returns the result object and the lines to print before it."""
    measured, invocations, extra = (traced if trace else end_to_end)(workload, seed, seconds)
    failed = sum(inv.error is not None for inv in invocations)
    measured["failed_frac"] = failed / len(invocations)
    wanted = contract["per_layer" if trace else "end_to_end"]
    metrics: Dict[str, Dict[str, object]] = {}
    for spec in wanted:
        value = measured.get(spec["name"], 0 if trace else None)
        if value is None:
            raise SetupError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    lines = ["stamp " + json.dumps({**stamp(workload, seed, seconds, trace), **extra}, sort_keys=True)]
    units = {**{spec["name"]: spec["unit"] for spec in wanted}, **NAMED_UNITS}
    for name, unit in units.items():
        if name in measured:
            lines.append(f"{workload}  {name} = {measured[name]!r} {unit}")
    for inv in invocations:
        if inv.error:
            lines.append(f"{workload}  FAILED chromabound {' '.join(inv.argv)}: {inv.error}")
    if not extra.get("counts_repeat", True):
        lines.append(f"{workload}  FAILED per-layer counts differ between traced passes")
    correct = failed == 0 and extra.get("counts_repeat", True)
    result = {"correct": correct, "attempted": len(invocations), "failed": failed, "metrics": metrics}
    return result, lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        _check_checkout()
        contract = load_contract()
        results = {}
        for name in names:
            result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), contract)
            print("\n".join(lines), flush=True)
            results[name] = result
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
