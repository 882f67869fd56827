"""Per-layer trace of chromabound, taken from outside the package.

``Tracer.install`` wraps the public function of each layer in every
``chromabound`` module namespace that holds a reference to it (so
``bound_engine.theta_truncated`` and ``verify.theta_truncated`` are both
covered), plus the two ``ThetaSeries`` methods, the ``verify`` suite
registry and the click command callbacks.  ``uninstall`` restores the
originals.  No file of the package changes.

Each wrapper records a span; per span name the tracer sums

* ``calls``, and for functions of a series argument ``scalar_calls`` and
  ``points`` (summed length of array arguments),
* ``f_evals`` for ``golden_section_max`` (calls of its ``f`` argument),
* ``total_s`` (wall time of the span) and ``self_s`` (``total_s`` minus
  the time of the wrapped spans it called).

Span names are ``<defining module>.<function>``, with one exception: the
reference to ``golden_section_max`` held by ``lattice_theta`` is named
``lattice_theta.golden_section_max``, because it is the private
refinement inside ``mu_lattice`` rather than the shared optimizer.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (defining module, function, index of the series argument or None)
FUNCTIONS: Tuple[Tuple[str, str, Optional[int]], ...] = (
    ("bound_engine", "table", None),
    ("bound_engine", "chromatic_lower_bound", None),
    ("bound_engine", "best_l", None),
    ("bound_engine", "maximize_over_t", None),
    ("bound_engine", "theta_ratio", 0),
    ("optimize", "maximize_on_unit_interval", None),
    ("optimize", "golden_section_max", None),
    ("special_functions", "theta_truncated", 0),
    ("special_functions", "theta_full", 0),
    ("special_functions", "jacobi_theta", 1),
    ("lattice_theta", "leech_series", None),
    ("lattice_theta", "ramanujan_tau", None),
    ("lattice_theta", "e8_series", None),
    ("lattice_theta", "dn_series", None),
    ("lattice_theta", "mu_lattice", None),
    ("lattice_theta", "mu_z", None),
    ("lattice_combinatorics", "count_box", None),
    ("lattice_combinatorics", "profile_diameter_bruteforce", None),
    ("lattice_combinatorics", "multinomial_lemma_check", None),
    ("lattice_combinatorics", "next_prime", None),
    ("tensor_oracle", "distinctness_indicator", None),
    ("tensor_oracle", "simplex_indicator", None),
    ("tensor_oracle", "clique_bound_check", None),
    ("verify", "run_suites", None),
)
METHODS = (("lattice_theta", "ThetaSeries", "evaluate", 1), ("lattice_theta", "ThetaSeries", "tail_bound", 1))
RENAMED = {("lattice_theta", "golden_section_max"): "lattice_theta.golden_section_max"}
STATS = ("calls", "scalar_calls", "points", "f_evals", "self_s", "total_s")


class Tracer:
    """Span and count recorder for one in-process run of chromabound."""

    def __init__(self) -> None:
        self.stats: Dict[str, Dict[str, float]] = defaultdict(lambda: dict.fromkeys(STATS, 0))
        self.gammas: List[float] = []  # best_l arguments
        self.grid_points = 0  # mu_lattice grid points whose tail was bounded
        self.grid_certified = 0  # ... and found below tol
        self.checks_passed = 0
        self._stack: List[list] = []  # [child seconds, span name, call arguments]
        self._restore: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats.clear()
        self.gammas.clear()
        self.grid_points = self.grid_certified = self.checks_passed = 0

    def wrap(self, name: str, fn: Callable, series_arg: Optional[int] = None) -> Callable:
        stats, stack = self.stats, self._stack
        counts_f = name.endswith("golden_section_max")
        before = self._record_gamma if name == "bound_engine.best_l" else None
        after = {
            "lattice_theta.ThetaSeries.tail_bound": self._record_grid,
            "verify.run_suites": self._record_checks,
        }.get(name)

        def wrapper(*args, **kwargs):
            st = stats[name]
            st["calls"] += 1
            if series_arg is not None and len(args) > series_arg:
                shape = getattr(args[series_arg], "shape", ())
                if shape == ():
                    st["scalar_calls"] += 1
                else:
                    st["points"] += args[series_arg].size
            if counts_f:
                f = args[0]

                def counted(x):
                    st["f_evals"] += 1
                    return f(x)

                args = (counted,) + args[1:]
            if before is not None:
                before(args, kwargs)
            frame = [0.0, name, (args, kwargs)]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                st["total_s"] += elapsed
                st["self_s"] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result)
            return result

        return wrapper

    def _record_gamma(self, args: tuple, kwargs: dict) -> None:
        self.gammas.append(float(args[0] if args else kwargs["gamma"]))

    def _record_grid(self, result: object) -> None:
        # The array call of tail_bound made directly by mu_lattice bounds its grid.
        parent = self._stack[-1] if self._stack else None
        if parent and parent[1] == "lattice_theta.mu_lattice" and getattr(result, "shape", ()) != ():
            p_args, p_kwargs = parent[2]
            tol = p_args[1] if len(p_args) > 1 else p_kwargs.get("tol", 1e-9)
            self.grid_points += result.size
            self.grid_certified += int((result < tol).sum())

    def _record_checks(self, result: object) -> None:
        self.checks_passed += sum(1 for r in result if r.passed)

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer; chromabound.cli must already be imported."""
        modules = {n: m for n, m in sys.modules.items() if n == "chromabound" or n.startswith("chromabound.")}
        for mod_name, func_name, series_arg in FUNCTIONS:
            original = getattr(modules[f"chromabound.{mod_name}"], func_name)
            default = self.wrap(f"{mod_name}.{func_name}", original, series_arg)
            for ns_name, module in modules.items():
                short = ns_name.rpartition(".")[2]
                for attr, value in list(vars(module).items()):
                    if value is original:
                        renamed = RENAMED.get((short, attr))
                        new = self.wrap(renamed, original, series_arg) if renamed else default
                        self._patch(module, attr, new)
        for mod_name, cls_name, meth, series_arg in METHODS:
            cls = getattr(modules[f"chromabound.{mod_name}"], cls_name)
            self._patch(cls, meth, self.wrap(f"{mod_name}.{cls_name}.{meth}", vars(cls)[meth], series_arg))
        suites = modules["chromabound.verify"].SUITES
        for suite, fn in list(suites.items()):
            self._restore.append((suites, suite, fn))
            suites[suite] = self.wrap(f"verify.{suite}", fn)
        for cmd_name, command in modules["chromabound.cli"].cli.commands.items():
            self._patch(command, "callback", self.wrap(f"cli.{cmd_name}", command.callback))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def metrics(self) -> Dict[str, float]:
        """Flat ``<span>.<stat>`` values plus the derived per-layer ratios."""
        out: Dict[str, float] = {}
        for name, st in self.stats.items():
            for stat, value in st.items():
                out[f"{name}.{stat}"] = value
        best_l = self.stats["bound_engine.best_l"]["calls"]
        scanned = self.stats["bound_engine.maximize_over_t"]["calls"]
        distinct = len(set(self.gammas))
        out["bound_engine.best_l.distinct_gamma"] = distinct
        out["bound_engine.best_l.unique_frac"] = distinct / best_l if best_l else 0.0
        out["bound_engine.best_l.l_useful_frac"] = best_l / scanned if scanned else 0.0
        out["lattice_theta.mu_lattice.certified_frac"] = (
            self.grid_certified / self.grid_points if self.grid_points else 0.0
        )
        out["verify.checks_passed"] = self.checks_passed
        return out


if __name__ == "__main__":
    # Trace the library call table(10, 10) at its default tol and print the
    # bound-engine counts and the tracing overhead.
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import chromabound.cli  # noqa: F401  (imports every layer)
    from chromabound import bound_engine

    bound_engine.table(10, 10)  # warm-up
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    bound_engine.table(10, 10)
    traced_s = time.perf_counter() - start
    tracer.uninstall()
    start = time.perf_counter()
    bound_engine.table(10, 10)
    untraced_s = time.perf_counter() - start
    found = tracer.metrics()
    for key in (
        "bound_engine.best_l.calls", "bound_engine.best_l.distinct_gamma",
        "bound_engine.maximize_over_t.calls", "bound_engine.theta_ratio.calls",
        "bound_engine.theta_ratio.scalar_calls", "bound_engine.theta_ratio.points",
        "optimize.golden_section_max.calls", "optimize.golden_section_max.f_evals",
        "optimize.golden_section_max.total_s",
    ):
        print(f"{key} = {found[key]}")
    print(f"traced_s = {traced_s:.3f}  untraced_s = {untraced_s:.3f}  overhead = {traced_s / untraced_s - 1:.1%}")
