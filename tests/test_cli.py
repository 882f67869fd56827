import csv
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import chromabound.cli as cli_module
from chromabound import (
    _SUITES,
    BoundQuery,
    bound_engine,
    chromatic_lower_bound,
    dn_series,
    e8_series,
    lattice_combinatorics,
    lattice_theta,
    special_functions,
    table,
    tensor_oracle,
    verify,
)
from chromabound.cli import MAX_DN, MAX_M, MAX_SERIES_K, MAX_TABLE_K, MAX_TABLE_M, cli

REGISTERED = [(suite, check) for suite, checks in verify.CHECKS.items() for check in checks]

# The five nested sweeps: (suite, check, layer, function, a wrong stand-in
# for it, the first case of the check's loop nest).
BROKEN_SWEEPS = [
    ("combinatorics", "count_box_complement", lattice_combinatorics, "count_box", lambda n, l, d: 0, "n=1 l=1 d=0"),
    (
        "combinatorics", "gf_bound_dominates_count", lattice_combinatorics, "gf_upper_bound",
        lambda n, l, d, t: -1.0, "n=1 l=0 d=0: 1 > -1.0",
    ),
    ("tensor", "indicator_three_valued", tensor_oracle, "distinctness_indicator", lambda labels: 7, "k=2 labels=(0, 0): 7"),
    ("tensor", "partition_reconstruction", tensor_oracle, "distinctness_indicator", lambda labels: 7, "k=2 labels=(0, 0)"),
    (
        "theta", "truncation_monotone_below_full", special_functions, "theta_truncated",
        lambda t, gamma, l: -1.0, "t=0.1 gamma=0.2 l=1",
    ),
]


@pytest.fixture
def runner():
    return CliRunner()


class TestConstants:
    def test_json_contains_gamma_chi(self, runner):
        result = runner.invoke(cli, ["constants", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["gamma_chi"] == pytest.approx(0.7998308498, abs=1e-9)
        assert "tol" in doc

    def test_plain_reports_maximizer(self, runner):
        result = runner.invoke(cli, ["constants"])
        assert result.exit_code == 0
        assert "u_star" in result.stdout
        assert "1.25643" in result.stdout

    def test_csv_round_trips(self, runner):
        result = runner.invoke(cli, ["constants", "--format", "csv"])
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.stdout)))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(rows)
        assert buf.getvalue() == result.stdout
        header, values = rows
        assert "gamma_chi" in header


class TestBound:
    def test_known_cell(self, runner):
        result = runner.invoke(cli, ["bound", "--m", "2", "--k", "1"])
        assert result.exit_code == 0
        assert "1.466299" in result.stdout

    def test_l_star_reported(self, runner):
        result = runner.invoke(cli, ["bound", "--m", "1", "--k", "1", "--format", "json"])
        doc = json.loads(result.stdout)
        assert doc["l_star"] == 3

    def test_warning_when_k_exceeds_m(self, runner):
        result = runner.invoke(cli, ["bound", "--m", "1", "--k", "2"])
        assert result.exit_code == 0
        assert "k > m" in result.stderr

    def test_usage_error_on_nonpositive(self, runner):
        result = runner.invoke(cli, ["bound", "--m", "0", "--k", "1"])
        assert result.exit_code == 2

    def test_output_into_missing_directory_is_usage_error(self, runner, tmp_path):
        target = tmp_path / "missing" / "x.json"
        result = runner.invoke(cli, ["bound", "--m", "1", "--k", "1", "--output", str(target)])
        assert result.exit_code == 2
        assert f"Error: cannot write {target}: No such file or directory" in result.output

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_tol_must_be_positive_and_finite(self, runner, tmp_path, tol):
        flag = runner.invoke(cli, ["bound", "--m", "2", "--k", "1", "--tol", tol])
        assert flag.exit_code == 2
        assert "tol must be a positive finite number" in flag.output
        config = tmp_path / "settings.cfg"
        config.write_text(f"tol = {tol}\n")
        preset = runner.invoke(cli, ["--config", str(config), "lattice-mu", "--lattice", "e8"])
        assert preset.exit_code == 2
        assert "tol must be a positive finite number" in preset.output

    @pytest.mark.parametrize(
        "args, code",
        [(["bound", "--m", "2", "--k", "1"], 0), (["lattice-mu", "--lattice", "zn"], 1)],
        ids=["bound", "lattice-mu-zn"],
    )
    def test_tol_below_float_spacing_terminates(self, args, code):
        # A child process, so that a refinement that never ends shows up
        # as a timeout instead of a hung suite.  lattice-mu cannot prove an
        # interval narrower than the rounding margin of its cell bounds,
        # so it ends with an error instead.
        src = str(Path(cli_module.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "chromabound.cli", *args, "--tol", "1e-20", "--format", "json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == code, done.stderr
        if code:
            assert done.stderr.startswith("Error: ") and "Traceback" not in done.stderr
        else:
            assert json.loads(done.stdout)["tol"] == 1e-20


class TestTable:
    def test_header_contract(self, runner):
        result = runner.invoke(
            cli, ["table", "--m-max", "2", "--k-max", "2", "--format", "csv"]
        )
        assert result.exit_code == 0
        header = result.stdout.splitlines()[0]
        assert header == "m,k,gamma,l_star,t_star,value"

    def test_cells_and_determinism(self, runner):
        args = ["table", "--m-max", "3", "--k-max", "2", "--format", "csv"]
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.exit_code == 0
        assert first.stdout == second.stdout
        rows = list(csv.DictReader(io.StringIO(first.stdout)))
        values = {(int(r["m"]), int(r["k"])): float(r["value"]) for r in rows}
        assert values[(2, 1)] == pytest.approx(1.466299, abs=1e-6)
        assert values[(3, 2)] == pytest.approx(values[(1, 1)], abs=1e-9)

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "table.csv"
        result = runner.invoke(
            cli,
            ["table", "--m-max", "1", "--k-max", "1", "--format", "csv", "--output", str(target)],
        )
        assert result.exit_code == 0
        assert target.read_text().startswith("m,k,gamma")


class TestLatticeMu:
    def test_zn(self, runner):
        result = runner.invoke(cli, ["lattice-mu", "--lattice", "zn", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["mu"] == pytest.approx(0.883337, abs=1e-6)
        assert doc["double_cap"] == "no improvement"
        assert "tail_bound" in doc

    def test_zn_tail_not_below_tol_fails(self, runner):
        # At the default K the tail at zn's maximizer is far below 1e-30,
        # and the rounding margin ends the run instead; K = 16 leaves a tail
        # of about 7e-9.
        result = runner.invoke(
            cli, ["lattice-mu", "--lattice", "zn", "--K", "16", "--tol", "1e-30"]
        )
        assert result.exit_code == 1
        assert "not below 1e-30" in result.output

    def test_zn_failure_names_tol_not_k(self, runner):
        # A tol below the rounding margin of the proof: no K can help.
        result = runner.invoke(cli, ["lattice-mu", "--lattice", "zn", "--tol", "1e-30"])
        assert result.exit_code == 1
        assert "tol" in result.output.rpartition(";")[2]
        assert "K" not in result.output

    @pytest.mark.parametrize("tol", ["1e-12", "1e-30"])
    @pytest.mark.parametrize("label", ["zn", "dn:8", "e8", "leech"])
    def test_success_means_tail_below_tol(self, runner, label, tol):
        result = runner.invoke(
            cli, ["lattice-mu", "--lattice", label, "--tol", tol, "--format", "json"]
        )
        assert result.exit_code in (0, 1)
        if result.exit_code == 0:
            assert 0.0 <= json.loads(result.stdout)["tail_bound"] < float(tol)

    def test_e8(self, runner):
        result = runner.invoke(
            cli, ["lattice-mu", "--lattice", "e8", "--K", "128", "--format", "json"]
        )
        doc = json.loads(result.stdout)
        assert doc["mu"] == pytest.approx(0.88406, abs=1e-5)

    def test_leech(self, runner):
        result = runner.invoke(
            cli, ["lattice-mu", "--lattice", "leech", "--K", "128", "--format", "json"]
        )
        doc = json.loads(result.stdout)
        assert doc["mu"] == pytest.approx(0.88407, abs=1e-5)

    def test_dn_label(self, runner):
        result = runner.invoke(
            cli, ["lattice-mu", "--lattice", "dn:8", "--K", "64", "--format", "json"]
        )
        doc = json.loads(result.stdout)
        assert doc["lattice"] == "D8"
        assert doc["mu"] == pytest.approx(0.963279, abs=1e-5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_small_dn_names_the_limit(self, runner, n):
        # At the default K, theta plus the proven tail stays at most 1 + tol
        # on all of (0, 1).
        result = runner.invoke(cli, ["lattice-mu", "--lattice", f"dn:{n}"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a ClickException, not a crash
        assert result.output.startswith("Error: ")
        assert "not above its t -> 0 limit 1" in result.output
        assert "mu = 1 gives no bound" in result.output

    def test_small_dn_with_long_series_has_no_bound(self, runner):
        result = runner.invoke(cli, ["lattice-mu", "--lattice", "dn:2", "--K", "1100"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "mu = 1 gives no bound" in result.output

    def test_unknown_label(self, runner):
        # int() alone would take each dn: suffix here but the last, which
        # passes its 4300-digit limit.
        for label in ("fcc", "dn:+8", "dn: 8", "dn:0_8", "dn:\u0668", "dn:8 ", "dn:" + "9" * 5000):
            result = runner.invoke(cli, ["lattice-mu", "--lattice", label])
            assert result.exit_code == 2, label

    def test_k_floor(self, runner):
        result = runner.invoke(cli, ["lattice-mu", "--lattice", "e8", "--K", "8"])
        assert result.exit_code == 2


class TestInputCaps:
    """Each cap is admitted, cap + 1 is a usage error, and --help shows it."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        # Record what reaches the engine and compute a small stand-in, so
        # that a run at the cap costs milliseconds.
        # The stand-ins are computed before the patches: the real table
        # calls bound_engine.chromatic_lower_bound, which is patched.
        calls = []
        one_cell = table(1, 1)
        monkeypatch.setattr(
            bound_engine, "chromatic_lower_bound",
            lambda q, tol: calls.append(q) or one_cell[0],
        )
        monkeypatch.setattr(
            bound_engine, "table", lambda m_max, k_max, tol: calls.append((m_max, k_max)) or one_cell
        )
        # E8 stands in as a series too short to certify below the cap, so
        # that lattice-mu doubles its prefix all the way up to the cap.
        monkeypatch.setattr(
            lattice_theta, "e8_series",
            lambda K: calls.append(K) or e8_series(128 if K == MAX_SERIES_K else 2),
        )
        monkeypatch.setattr(
            lattice_theta, "dn_series", lambda n, K: calls.append((n, K)) or dn_series(8, 64)
        )
        return calls

    @pytest.mark.parametrize(
        "args, cap, reaches_engine",
        [
            (["bound", "--m", "{}", "--k", "1"], MAX_M, lambda c: [BoundQuery(c, 1)]),
            (["bound", "--m", "1", "--k", "{}"], MAX_M, lambda c: [BoundQuery(1, c)]),
            (["table", "--m-max", "{}", "--k-max", "1"], MAX_TABLE_M, lambda c: [(c, 1)]),
            (["table", "--m-max", "1", "--k-max", "{}"], MAX_TABLE_K, lambda c: [(1, c)]),
            # --K caps the prefix lengths, which double from 64.
            (
                ["lattice-mu", "--lattice", "e8", "--K", "{}", "--format", "json"],
                MAX_SERIES_K,
                lambda c: [64, 128, 256, 512, 1024, 2048, 4096, c],
            ),
            (["lattice-mu", "--lattice", "dn:{}", "--K", "64"], MAX_DN, lambda c: [(c, 64)]),
        ],
        ids=["bound-m", "bound-k", "table-m-max", "table-k-max", "lattice-K", "lattice-dn"],
    )
    def test_cap(self, runner, engine_calls, args, cap, reaches_engine):
        at_cap = runner.invoke(cli, [a.format(cap) for a in args])
        assert at_cap.exit_code == 0, at_cap.output
        assert engine_calls == reaches_engine(cap)
        if "json" in args:  # lattice-mu echoes the requested K, not the prefix that certified
            assert json.loads(at_cap.output)["K"] == cap
        over = runner.invoke(cli, [a.format(cap + 1) for a in args])
        assert over.exit_code == 2
        assert engine_calls == reaches_engine(cap)
        assert str(cap) in runner.invoke(cli, [args[0], "--help"]).output


class TestVerify:
    def test_theta_suite_passes(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "theta"])
        assert result.exit_code == 0
        assert "ok   theta.functional_equation_residual" in result.stdout

    def test_theta_checks_name_worst_point(self):
        # Every side is 1 at q = 0, a margin of 0 there that is never reported.
        details = {c.name: c.detail for c in verify.SUITES["theta"]()}
        for name in ("theta3_dominates_theta4", "theta4_alternating_bracket"):
            assert float(details[name].rpartition(" at q = ")[2]) > 0.0

    def test_theta_checks_still_check_q_zero(self, monkeypatch):
        real = special_functions.jacobi_theta
        monkeypatch.setattr(
            special_functions, "jacobi_theta", lambda n, q: real(n, q) + (n == 4 and q == 0.0)
        )
        for check in (verify.theta3_dominates_theta4, verify.theta4_alternating_bracket):
            result = verify.run_check("theta", check)
            assert not result.passed, result.detail

    def test_floor_checks_report_worst_gamma_and_margin(self):
        checks = {f"{c.suite}.{c.name}": c for c in verify.SUITES["theta"]() + verify.SUITES["bounds"]()}
        for name in ("theta.one_minus_t_theta_max_floor", "bounds.best_l_dominates_closed_forms"):
            check = checks[name]
            assert check.passed
            margin, at = check.detail.removeprefix("min margin ").split(" ", 1)
            assert float(margin) >= -1e-9
            assert at.startswith("at gamma = ")

    @pytest.mark.parametrize(
        "suite, check", REGISTERED, ids=[f"{suite}.{check.__name__}" for suite, check in REGISTERED]
    )
    def test_registered_check_passes(self, suite, check):
        result = verify.run_check(suite, check)
        assert result.passed, result.detail

    def test_registry_shape(self):
        assert tuple(verify.CHECKS) == tuple(verify.SUITES) == _SUITES
        names = [check.__name__ for _, check in REGISTERED]
        assert len(names) == 21
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize(
        "suite, check, layer, name, wrong, first", BROKEN_SWEEPS, ids=[f"{c[0]}.{c[1]}" for c in BROKEN_SWEEPS]
    )
    def test_failing_sweep_names_its_first_counterexample(
        self, monkeypatch, suite, check, layer, name, wrong, first
    ):
        # The checked function is wrong everywhere, so the first case of
        # the loop nest is the first counterexample.
        monkeypatch.setattr(layer, name, wrong)
        result = verify.run_check(suite, getattr(verify, check))
        assert result == verify.CheckResult(suite, check, False, first)

    @pytest.mark.parametrize(
        "corpus, digest",
        [
            ("_combinatorics_corpus", "e46c966f854f82be1c81a563b9c4975eb3267420a6e5cd834f115d05da9b4ccd"),
            ("_simplex_corpus", "498a5f9dc7c7efe7387800830fc512c1d15516bc2f0a81a0ee12bff82f53a7b8"),
        ],
    )
    def test_seeded_corpus_is_pinned(self, corpus, digest):
        # The SHA-256 of the repr of every case the checks draw from their
        # seeds (floats by repr, so to the bit): a change that drops, adds
        # or moves a case changes the digest.  The simplex corpus also
        # runs next_prime on each case.
        assert hashlib.sha256(repr(getattr(verify, corpus)()).encode()).hexdigest() == digest

    def test_diameter_check_runs_each_distinct_profile_once(self, monkeypatch):
        # The eligible corpus profiles in corpus order, each at its first
        # draw.  The corpus lists pairing-ordered counts b; the profile is
        # the one arrangement of b that _pairing_order maps back to b.
        expected = []
        for b in verify._combinatorics_corpus()[0]:
            counts = next(
                c for c in itertools.permutations(b) if lattice_combinatorics._pairing_order(c) == b
            )
            n = sum(counts)
            if n and lattice_combinatorics.multinomial(n, counts) <= 3000 and counts not in expected:
                expected.append(counts)
        assert len(expected) == 70
        calls = []
        bruteforce = lattice_combinatorics.profile_diameter_bruteforce

        def counted(profile, *args, **kwargs):
            calls.append(profile.counts)
            return bruteforce(profile, *args, **kwargs)

        monkeypatch.setattr(lattice_combinatorics, "profile_diameter_bruteforce", counted)
        result = verify.run_check("combinatorics", verify.diameter_formula_vs_bruteforce)
        assert result.passed
        assert calls == expected

    def test_plain_output_lists_every_check_once(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "all"])
        lines = result.stdout.splitlines()
        assert result.exit_code == 0
        assert len(lines) == 22 and all(line.startswith("ok   ") for line in lines[:21])
        assert lines[-1] == "21/21 checks passed"

    def test_unknown_suite_is_usage_error(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "nonsense"])
        assert result.exit_code == 2

    def test_all_suites_within_budget(self, runner):
        start = time.perf_counter()
        result = runner.invoke(cli, ["verify", "--suite", "all"])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        assert elapsed < 120.0


class TestConfigFile:
    def test_config_presets_and_flag_override(self, runner, tmp_path):
        config = tmp_path / "settings.cfg"
        config.write_text("format = json\ntol = 1e-8\n")
        preset = runner.invoke(cli, ["--config", str(config), "constants"])
        assert preset.exit_code == 0
        doc = json.loads(preset.stdout)
        assert doc["tol"] == 1e-8
        overridden = runner.invoke(
            cli, ["--config", str(config), "constants", "--format", "csv"]
        )
        assert overridden.exit_code == 0
        assert overridden.stdout.splitlines()[0].startswith("gamma_chi")

    def test_k_preset_reaches_lattice_mu(self, runner, tmp_path):
        config = tmp_path / "settings.cfg"
        config.write_text("K = 64\nformat = json\n")
        result = runner.invoke(cli, ["--config", str(config), "lattice-mu", "--lattice", "dn:8"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["K"] == 64
        assert doc["mu"] == pytest.approx(0.963279, abs=1e-5)

    def test_flag_beats_preset_for_k_and_tol(self, runner, tmp_path):
        config = tmp_path / "settings.cfg"
        config.write_text("K = 64\ntol = 1e-8\nformat = json\n")
        result = runner.invoke(
            cli,
            ["--config", str(config), "lattice-mu", "--lattice", "dn:8", "--K", "128", "--tol", "1e-10"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert (doc["K"], doc["tol"]) == (128, 1e-10)

    @pytest.mark.parametrize(
        "line, flag",
        [
            ("K = 8", "--K"),
            ("K = 9000", "--K"),
            ("K = abc", "--K"),
            ("tol = abc", "--tol"),
            ("format = xml", "--format"),
            ("format =", "--format"),
        ],
    )
    def test_rejected_preset_names_its_flag(self, runner, tmp_path, line, flag):
        config = tmp_path / "settings.cfg"
        config.write_text(line + "\n")
        result = runner.invoke(cli, ["--config", str(config), "lattice-mu", "--lattice", "e8"])
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}'" in result.output

    @pytest.mark.parametrize(
        "text, error",
        [
            ("format = json\ntol1 = 1e-12\n", "2: unknown key 'tol1'"),
            ("tol = 1e-8\n# tighter\ntol = 1e-12\n", "3: repeated key 'tol'"),
        ],
        ids=["unknown", "repeated"],
    )
    def test_key_typo_is_usage_error(self, runner, tmp_path, text, error):
        config = tmp_path / "settings.cfg"
        config.write_text(text)
        result = runner.invoke(cli, ["--config", str(config), "constants"])
        assert result.exit_code == 2
        assert f"Error: {config}:{error}" in result.output

    def test_malformed_config(self, runner, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("just a line without equals\n")
        result = runner.invoke(cli, ["--config", str(config), "constants"])
        assert result.exit_code == 2

    def test_non_utf8_config_is_usage_error(self, runner, tmp_path):
        config = tmp_path / "latin1.cfg"
        config.write_bytes("tol = 1e-8  # \u00b5\n".encode("latin-1"))
        result = runner.invoke(cli, ["--config", str(config), "constants"])
        assert result.exit_code == 2
        assert f"Error: {config}: not UTF-8 text" in result.output


class TestJsonLossless:
    def test_reserialization_identity(self, runner):
        result = runner.invoke(
            cli, ["table", "--m-max", "2", "--k-max", "1", "--format", "json"]
        )
        doc = json.loads(result.stdout)
        assert json.loads(json.dumps(doc)) == doc
