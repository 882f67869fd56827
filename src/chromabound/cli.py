"""Command-line front end.

Subcommands::

    chromabound constants                 # base constants and references
    chromabound bound --m 2 --k 1         # one lower-bound cell
    chromabound table --m-max 5 --k-max 4 # the full grid
    chromabound lattice-mu --lattice e8   # double-cap quantities
    chromabound verify --suite all        # invariant suites

Output formats: plain (default), json, csv.  A key=value config file
(``--config``) can preset ``tol``, ``K`` and ``format``: it becomes
click's ``default_map``, so a preset is converted and checked exactly
like the flag it stands for, an error names that flag, and an explicit
flag wins.  An empty value, an unknown key and a repeated key are usage
errors.

Exit status: 0 on success, 1 on verification failure, 2 on usage errors.

The layers are held as lazily loaded modules and their names looked up
at call time, so each command runs only the layers it uses.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from typing import Dict, Optional, Sequence

import click

from . import _SUITES, __version__, bound_engine, lattice_theta, special_functions, verify

_FORMATS = ("plain", "json", "csv")
_DEFAULT_TOL = 1e-9
_MIN_SERIES_K = 16

# Input caps.  At the caps, one CLI run each on a shared 2-vCPU machine
# took 0.11 s for bound --m 500 and 0.8 s for table at 50 x 50 (median
# of 5), and 0.4 s and 0.5 s for lattice-mu with leech and dn:64 at
# K = 8192 (median of 3); larger inputs are usage errors rather than
# runs of hours.  --k shares the cap of --m: for m <= MAX_M, every
# k > MAX_M has gamma = k / (m + 1) >= 1 and the flagged trivial result.
MAX_M = 500
MAX_TABLE_M = 50
MAX_TABLE_K = 50
MAX_SERIES_K = 8192
MAX_DN = 64


# Config keys and the parameters they preset.
_CONFIG_KEYS = {"tol": "tol", "K": "series_k", "format": "fmt"}


def _load_config(path: Optional[str]) -> Dict[str, str]:
    """Parameter name -> preset value string from a key=value file."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError:
        raise click.UsageError(f"{path}: not UTF-8 text")
    preset: Dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        name = _CONFIG_KEYS.get(key)
        if name is None:
            raise click.UsageError(
                f"{path}:{lineno}: unknown key {key!r}; use {', '.join(_CONFIG_KEYS)}"
            )
        if name in preset:
            raise click.UsageError(f"{path}:{lineno}: repeated key {key!r}")
        preset[name] = value
    return preset


def _check_tol(ctx: click.Context, param: click.Parameter, tol: float) -> float:
    if not 0 < tol < math.inf:  # also rejects nan
        raise click.BadParameter("tol must be a positive finite number")
    return tol


def _result_options(command):
    """--tol, --format and --output, shared by every command that prints a result."""
    command = click.option("--output", type=click.Path(dir_okay=False), default=None)(command)
    command = click.option(
        "--format", "fmt", type=click.Choice(_FORMATS), default="plain"
    )(command)
    return click.option(
        "--tol", type=float, default=_DEFAULT_TOL, callback=_check_tol, help="Solver tolerance."
    )(command)


def _render_records(
    records: Sequence[Dict[str, object]], fmt: str, tol: float, command: str
) -> str:
    if fmt == "json":
        doc: Dict[str, object] = {"command": command, "tol": tol}
        if len(records) == 1:
            doc.update(records[0])
        else:
            doc["results"] = list(records)
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = list(records[0].keys())
        writer.writerow(header)
        for rec in records:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in rec.values()])
        return buf.getvalue()
    width = max(len(k) for rec in records for k in rec)
    lines = [f"# {command}  (tol = {tol!r})"]
    for i, rec in enumerate(records):
        if i:
            lines.append("")
        for key, value in rec.items():
            shown = repr(value) if isinstance(value, float) else value
            lines.append(f"{key:<{width}} = {shown}")
    return "\n".join(lines) + "\n"


def _render_table_plain(records: Sequence[Dict[str, object]], tol: float) -> str:
    header = list(records[0].keys())
    rows = [
        [repr(v) if isinstance(v, float) else str(v) for v in rec.values()]
        for rec in records
    ]
    widths = [
        max(len(header[i]), max(len(row[i]) for row in rows))
        for i in range(len(header))
    ]
    lines = [f"# table  (tol = {tol!r})"]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def _deliver(text: str, output: Optional[str]) -> None:
    if output is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write {output}: {exc.strerror}")
        click.echo(f"wrote {output}", err=True)


@click.group()
@click.version_option(version=__version__, prog_name="chromabound")
@click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="key=value file presetting tol, K and format.",
)
@click.pass_context
def cli(ctx: click.Context, config: Optional[str]) -> None:
    """Bounds and verification oracles for multi-distance chromatic numbers."""
    preset = _load_config(config)
    ctx.default_map = {name: preset for name in cli.commands}


@cli.command()
@_result_options
def constants(tol: float, fmt: str, output: Optional[str]) -> None:
    """Base constant with its maximizer, plus reference constants."""
    gc = special_functions.gamma_chi(tol)
    record = {
        "gamma_chi": gc.value,
        "u_star": gc.u_star,
        "inner_max": gc.inner_max,
        "inv_sqrt_2": special_functions.INV_SQRT_2,
        "sqrt3_over_2": special_functions.SQRT3_OVER_2,
        "kupavskii_base_m1": bound_engine.kupavskii_upper_base(1),
    }
    _deliver(_render_records([record], fmt, tol, "constants"), output)


@cli.command()
@click.option(
    "--m", "m", type=click.IntRange(1, MAX_M), required=True,
    help="Number of forbidden distances.",
)
@click.option("--k", "k", type=click.IntRange(1, MAX_M), required=True, help="Clique parameter.")
@_result_options
def bound(m: int, k: int, tol: float, fmt: str, output: Optional[str]) -> None:
    """Lower bound for one (m, k) cell."""
    result = bound_engine.chromatic_lower_bound(bound_engine.BoundQuery(m=m, k=k), tol)
    record = result.to_dict()
    if result.warning:
        if fmt == "json":
            record["warning"] = result.warning
        else:
            click.echo(f"warning: {result.warning}", err=True)
    _deliver(_render_records([record], fmt, tol, "bound"), output)


@cli.command(name="table")
@click.option("--m-max", type=click.IntRange(1, MAX_TABLE_M), required=True)
@click.option("--k-max", type=click.IntRange(1, MAX_TABLE_K), required=True)
@_result_options
def table_cmd(m_max: int, k_max: int, tol: float, fmt: str, output: Optional[str]) -> None:
    """Full lower-bound grid, m ascending then k ascending."""
    results = bound_engine.table(m_max, k_max, tol)
    records = [r.to_dict() for r in results]
    if fmt == "plain":
        _deliver(_render_table_plain(records, tol), output)
    else:
        _deliver(_render_records(records, fmt, tol, "table"), output)


def _mu_for_label(label: str, K: int, tol: float) -> lattice_theta.MuResult:
    if label == "zn":
        return lattice_theta.mu_z(tol)
    if label == "e8":
        return lattice_theta.mu_lattice(lattice_theta.e8_series(K), tol)
    if label == "leech":
        return lattice_theta.mu_lattice(lattice_theta.leech_series(K), tol)
    if label.startswith("dn:"):
        digits = label[len("dn:"):]
        try:
            # int() alone would also take a sign, spaces, underscores and
            # non-ASCII digits; it raises past 4300 digits.
            if not (digits.isascii() and digits.isdigit()):
                raise ValueError(digits)
            n = int(digits)
        except ValueError:
            raise click.UsageError(f"bad lattice label {label!r}")
        if not 1 <= n <= MAX_DN:
            raise click.UsageError(f"dn:<n> needs 1 <= n <= {MAX_DN}")
        return lattice_theta.mu_lattice(lattice_theta.dn_series(n, K), tol)
    raise click.UsageError(
        f"unknown lattice {label!r}; use zn, dn:<n>, e8 or leech"
    )


@cli.command(name="lattice-mu")
@click.option(
    "--lattice", "label", required=True, help=f"zn, dn:<n> with n <= {MAX_DN}, e8 or leech."
)
@click.option(
    "--K", "series_k", type=click.IntRange(_MIN_SERIES_K, MAX_SERIES_K),
    # Called only when the option is processed, so that importing this
    # module and --help leave lattice_theta unloaded.
    default=lambda: lattice_theta.DEFAULT_SERIES_LENGTH,
    help="Series truncation index.",
)
@_result_options
def lattice_mu(label: str, series_k: int, tol: float, fmt: str, output: Optional[str]) -> None:
    """Double-cap quantity mu for a named lattice."""
    try:
        result = _mu_for_label(label, series_k, tol)
    except (lattice_theta.TailBoundError, lattice_theta.NoBoundError) as exc:
        raise click.ClickException(str(exc))
    record = {
        "lattice": result.lattice_label,
        "dim": result.dim,
        "K": series_k,
        "t_star": result.t_star,
        "mu": result.mu,
        "max_value": result.max_value,
        "tail_bound": result.tail_bound,
        "double_cap": lattice_theta.double_cap_compare(result.mu),
    }
    _deliver(_render_records([record], fmt, tol, "lattice-mu"), output)


@cli.command(name="verify")
@click.option(
    "--suite",
    type=click.Choice(_SUITES + ("all",)),
    required=True,
    help="Which invariant suite to run.",
)
def verify_cmd(suite: str) -> None:
    """Run invariant suites; exit 0 only if every check passes."""
    names = list(_SUITES) if suite == "all" else [suite]
    results = verify.run_suites(names)
    failures = 0
    for res in results:
        if res.passed:
            click.echo(f"ok   {res.suite}.{res.name}")
        else:
            failures += 1
            click.echo(f"FAIL {res.suite}.{res.name}: {res.detail}")
    click.echo(f"{len(results) - failures}/{len(results)} checks passed")
    if failures:
        sys.exit(1)


def main() -> None:
    cli(prog_name="chromabound")


if __name__ == "__main__":
    main()
