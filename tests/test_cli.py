import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import indeplab
from indeplab import cli, divergence, stat_tests
from indeplab.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_ORACLE, main
from indeplab.divergence import chi_square_exact, select_b


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0].startswith("#")
    return lines[0], list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


class TestBound:
    def test_single_point_zero_signal(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--b", "0", "--grid-n", "50", "--grid-p", "4", "--grid-q", "4"
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["chi2_exact"]) == 0.0
        assert float(rows[0]["power_upper"]) == pytest.approx(0.05)

    def test_theorem_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--kappa", "1", "--beta", "0.35",
            "--grid-n", "100,400", "--grid-p", "20,100", "--grid-q", "20",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert all(float(r["power_upper"]) <= 0.35 for r in rows)

    def test_passthrough_matches_module(self, capsys):
        b = select_b(1.0, 0.05, 0.35)
        code, out, _ = run_cli(
            capsys, "bound", "--grid-n", "100", "--grid-p", "10", "--grid-q", "10"
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert float(rows[0]["chi2_exact"]) == pytest.approx(
            chi_square_exact(100, 10, 10, b), rel=1e-12
        )


    def test_mgf_ok_at_the_pd_boundary(self, capsys):
        # 1 - |a| sqrt(pq) is about 5e-9 here; mgf_ok is the same test as pd_ok.
        code, out, _ = run_cli(
            capsys, "bound", "--grid-n", "1", "--grid-p", "1", "--grid-q", "3", "--b", "1.07456992645"
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows[0]["pd_ok"] == rows[0]["mgf_ok"] == "True"

    def test_memory_error_is_an_error_row(self, capsys, monkeypatch):
        monkeypatch.setattr(divergence, "chi_square_exact", _out_of_memory)
        code, out, _ = run_cli(capsys, "bound", "--grid-n", "100", "--grid-p", "10,20", "--grid-q", "10")
        assert code == EXIT_NUMERIC
        _, rows = parse_csv(out)
        assert [r["error"] for r in rows] == ["MemoryError", "MemoryError"]
        assert all(r["chi2_exact"] == "" for r in rows)

    def test_overflow_is_an_error_row(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # The divergence at this point exceeds the largest double.
            code, out, err = run_cli(
                capsys, "bound", "--grid-n", "8000", "--grid-p", "200", "--grid-q", "1000", "--b", "3"
            )
        assert code == EXIT_NUMERIC
        _, rows = parse_csv(out)
        assert len(rows) == 1 and "overflows" in rows[0]["error"]
        assert rows[0]["chi2_exact"] == ""
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def _out_of_memory(*args, **kwargs):
    raise MemoryError


class TestVerify:
    def test_default_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows and all(r["pass"] == "True" for r in rows)
        assert list(rows[0]) == ["name", "closed_form", "brute_force", "abs_err", "rel_err", "pass"]

    @pytest.mark.parametrize("seed", [2758, 5474, 8508, 8678, 21323, 21907])
    def test_seeds_where_the_monte_carlo_row_failed(self, capsys, seed):
        # Its 40,000-draw estimate fell more than 4 standard errors below chi2
        # at these seeds; the quadrature row draws nothing.
        code, out, _ = run_cli(capsys, "verify", "--seed", str(seed))
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [r["name"] for r in rows if r["pass"] != "True"] == []

    def test_injected_fault_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--inject-fault")
        assert code == EXIT_ORACLE
        _, rows = parse_csv(out)
        assert any(r["pass"] == "False" for r in rows)

    @pytest.mark.parametrize("argv, digest", [
        (["--seed", "0"], "abf57d872d24325de958a3342a0b8e197d75a188b18ee8230868ab0cd4a85c1e"),
        (["--seed", "1"], "cf785f47de703caaa59d55e94f05801476ba984dee5ff58275da1ea94f27bc58"),
        (["--seed", "2758"], "a0549d21add68b0a84dd1f29ceb8b7877f86f44455cd82897d074c6e89401685"),
        (["--seed", "770799637690793716"], "7716aa3b680178fb2167e0bd62a1ab05b64c4a0486ea62a2c4a084b0ee506d25"),
        (["--inject-fault"], "84808384d473a1590c96d7f69b7a39ea9fc7c820d6ab768e599fef0a24c002a3"),
    ], ids=["seed0", "seed1", "seed2758", "seed_large", "inject_fault"])
    def test_golden_bytes(self, capsys, argv, digest):
        # A change to the oracle draws or to the enumeration's summation
        # changes these bytes.
        _, out, _ = run_cli(capsys, "verify", *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        ("power --regime lf --grid-n 40 --grid-p 3,7 --grid-q 2",
         "ebec9f607270409437c85289466e3dacf256bc1c99d8b74c01031e76fb5a9c4c"),
        ("power --regime null --grid-n 30 --grid-p 3 --grid-q 2",
         "8c76af64bdb03d7618c7b187951e2d765e098d88515b64ccb1698af3a994d3dd"),
        ("phase --grid-n 40 --grid-p 3 --grid-q 2 --grid-s 0,1,2",
         "dd3158f93a41cb822fcca13f2d4a1738a15f3ea763ade2463d11c5c985bbb53b"),
    ], ids=["power_lf", "power_null", "phase"])
    def test_monte_carlo_golden_bytes(self, capsys, argv, digest):
        # A change to the sign or data draws, or to the permutation test's
        # stream, changes these bytes.
        _, out, _ = run_cli(capsys, *argv.split(), "--trials", "40", "--perms", "39", "--seed", "5")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPowerAndPhase:
    def test_null_regime_level(self, capsys):
        code, out, err = run_cli(
            capsys, "power", "--regime", "null", "--grid-n", "30", "--grid-p", "3",
            "--grid-q", "3", "--trials", "200", "--perms", "39", "--seed", "4",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        est = float(rows[0]["estimate"])
        se = math.sqrt(0.05 * 0.95 / 200)
        assert abs(est - 0.05) < 4 * se
        # Progress line reports the mean permuted statistics evaluated per trial.
        assert 0 < float(err.split("perms/trial=")[1].split()[0]) < 39

    def test_phase_grid_monotone(self, capsys):
        code, out, err = run_cli(
            capsys, "phase", "--grid-n", "80", "--grid-p", "4", "--grid-q", "4",
            "--grid-s", "0,10,40", "--trials", "150", "--perms", "39", "--seed", "4",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        ests = [float(r["estimate"]) for r in rows]
        assert len(ests) == 3
        assert ests[2] > 0.85 and ests[0] < 0.2
        perms = [float(v) for v in err.split("perms/trial=")[1].split()[0].split(",")]
        assert len(perms) == 3 and all(0 < k <= 39 for k in perms)

    @pytest.mark.parametrize("argv", [
        ("power", "--regime", "null"),
        ("power", "--regime", "lf", "--b", "0"),
        ("phase", "--grid-s", "0,1"),
    ], ids=["null", "lf_b0", "phase"])
    def test_fewer_than_100_trials(self, capsys, argv):
        # Every estimator takes any trials >= 1, the floor `_validate` checks;
        # the null-data paths once demanded 100 and wrote an error row.
        code, out, _ = run_cli(capsys, *argv, "--grid-n", "20", "--grid-p", "2", "--grid-q", "2",
                               "--trials", "50", "--perms", "19")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows and all(r["trials"] == "50" and r["error"] == "" for r in rows)

    def test_phase_null_point_at_alpha_above_half(self, capsys):
        # s = 0 draws null data at the run's alpha; it once built a config with
        # beta = 2 alpha, invalid from alpha = 0.5 on, and wrote an error row.
        code, out, _ = run_cli(capsys, "phase", "--alpha", "0.6", "--beta", "0.7", "--grid-n", "30",
                               "--grid-p", "2", "--grid-q", "2", "--grid-s", "0,1", "--trials", "5",
                               "--perms", "19")
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert [(r["regime"], r["error"]) for r in rows] == [("s=0", ""), ("s=1", "")]
        cfg = stat_tests.ProblemConfig(n=30, p=2, q=2, alpha=0.6, beta=0.7)
        assert rows[0]["rejections"] == str(stat_tests.estimate_level(cfg, 5, 19, 0).rejections)

    def test_memory_error_is_an_error_row(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "estimate_level", _out_of_memory)
        code, out, _ = run_cli(
            capsys, "power", "--regime", "null", "--grid-n", "20", "--grid-p", "2,3", "--grid-q", "2",
            "--trials", "100", "--perms", "19",
        )
        assert code == EXIT_NUMERIC
        _, rows = parse_csv(out)
        assert [(r["regime"], r["p"], r["s_or_b"], r["error"]) for r in rows] == [
            ("null", "2", "0", "MemoryError"), ("null", "3", "0", "MemoryError")
        ]
        assert all(r["estimate"] == "" and r["seed"] == "0" for r in rows)

    @pytest.mark.parametrize("command, regime", [("power", "null"), ("phase", "phase")])
    def test_broken_pool_is_an_error_row(self, capsys, monkeypatch, command, regime):
        class BrokenPool:
            """A pool whose worker died: map raises as concurrent.futures does."""

            def __init__(self, workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(stat_tests, "_process_pool", BrokenPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        argv = ["--grid-n", "20", "--grid-p", "2", "--grid-q", "2", "--trials", "100", "--perms", "19",
                "--workers", "2"]
        code, out, _ = run_cli(capsys, command, *argv, *(["--regime", "null"] if command == "power" else []))
        assert code == EXIT_NUMERIC
        _, rows = parse_csv(out)
        assert [(r["regime"], r["error"]) for r in rows] == [(regime, "a child process terminated abruptly")]

    def test_phase_error_row(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "phase_curve", _out_of_memory)
        code, out, _ = run_cli(capsys, "phase", "--grid-n", "20", "--grid-p", "2", "--grid-q", "2")
        assert code == EXIT_NUMERIC
        _, rows = parse_csv(out)
        assert [(r["regime"], r["s_or_b"], r["error"]) for r in rows] == [("phase", "", "MemoryError")]

    def test_seed_reproducibility(self, capsys):
        argv = ["power", "--regime", "null", "--grid-n", "20", "--grid-p", "2",
                "--grid-q", "2", "--trials", "100", "--perms", "19", "--seed", "11"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


class TestDivergenceCommand:
    def test_report_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "divergence", "--n", "100", "--p", "10", "--q", "10")
        assert code == EXIT_OK
        assert "chi2_exact=" in out and "power_upper=" in out

    def test_memory_error_exits_numeric(self, capsys, monkeypatch):
        monkeypatch.setattr(divergence, "chi_square_exact", _out_of_memory)
        code, out, err = run_cli(capsys, "divergence", "--n", "100", "--p", "10", "--q", "10")
        assert code == EXIT_NUMERIC
        assert out == "" and "MemoryError" in err

    def test_overflow_exits_numeric(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "divergence", "--n", "8000", "--p", "200", "--q", "1000", "--b", "3")
        assert code == EXIT_NUMERIC
        assert out == "" and "overflows" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestValidation:
    def test_reports_every_violation(self, capsys):
        code, out, err = run_cli(
            capsys, "power", "--alpha", "2", "--trials", "0", "--perms", "5",
        )
        assert code == EXIT_CONFIG
        assert out == ""
        assert "alpha" in err and "trials" in err and "perms" in err

    def test_bad_grid_entry(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--grid-n", "10.5")
        assert code == EXIT_CONFIG
        assert "grid_n" in err

    def test_negative_b(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--b", "-1")
        assert code == EXIT_CONFIG
        assert "b must be nonnegative" in err

    @pytest.mark.parametrize("argv, message", [
        (["power", "--regime", "nul"], "invalid choice"),
        (["power", "--trials", "ten"], "--trials"),
        (["divergence", "--n", "100", "--p", "10"], "--q"),
        # No prefix matching: phase has no --b, and --b is not taken as --beta.
        (["phase", "--b", "0.9"], "unrecognized arguments: --b"),
    ], ids=["bad_choice", "bad_type", "missing_required", "flag_prefix"])
    def test_usage_error_exits_config(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == "" and message in err

    # Each condition must hold, so NaN and inf fail it: no traceback, no
    # silently ignored kappa, and no numerical error from a non-finite b.
    @pytest.mark.parametrize("argv, message", [
        (["bound", "--grid-n", "inf"], "grid_n entries must be positive integers, got inf"),
        (["bound", "--grid-p", "nan"], "grid_p entries must be positive integers, got nan"),
        (["bound", "--kappa", "nan"], "kappa must be positive, got nan"),
        (["bound", "--kappa", "inf"], "kappa must be positive, got inf"),
        (["bound", "--b", "nan"], "b must be nonnegative, got nan"),
        (["bound", "--b", "inf"], "b must be nonnegative, got inf"),
        (["phase", "--grid-s", "nan"], "grid_s entries must be nonnegative, got nan"),
    ], ids=["grid_n_inf", "grid_p_nan", "kappa_nan", "kappa_inf", "b_nan", "b_inf", "grid_s_nan"])
    def test_non_finite_exits_config(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == "" and message in err
        assert not caught

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0", "--p", "3", "--q", "3"], "n must be positive"),
        (["--n", "10", "--p", "-2", "--q", "3"], "p must be positive"),
        (["--n", "10", "--p", "3", "--q", "0"], "q must be positive"),
    ], ids=["n_zero", "p_negative", "q_zero"])
    def test_divergence_dimensions_exit_config(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "divergence", *argv)
        assert code == EXIT_CONFIG
        assert out == "" and message in err

    def test_help_exits_ok(self, capsys):
        code, out, _ = run_cli(capsys, "power", "-h")
        assert code == EXIT_OK
        assert "--regime" in out


class TestConfigFile:
    def test_file_values_and_flag_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# level experiment\ntrials = 100\nperms = 19\ngrid-n = 20\nseed = 3\n")
        code, out, _ = run_cli(
            capsys, "power", "--regime", "null", "--config", str(cfg),
            "--grid-p", "2", "--grid-q", "2", "--trials", "120",
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows[0]["trials"] == "120"  # flag wins
        assert rows[0]["n"] == "20"  # file value applied

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        code, _, err = run_cli(capsys, "bound", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "mystery" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--config", "/nonexistent.cfg")
        assert code == EXIT_CONFIG

    def test_required_flags_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("n = 100\np = 10\nq = 10\n")
        code, out, _ = run_cli(capsys, "divergence", "--config", str(cfg))
        assert code == EXIT_OK
        _, flag_out, _ = run_cli(capsys, "divergence", "--n", "100", "--p", "10", "--q", "10")
        assert out == flag_out

    @pytest.mark.parametrize("command, entry, message", [
        ("power", "regime = nul", "invalid choice"),
        ("bound", "grid-n = 10.5x", "'10.5x'"),
        # argparse alone would take `see` as a prefix of --seed.
        ("bound", "see = 3", "unknown config key 'see'"),
        # The --key=value form keeps a leading '-' from reading as a flag.
        ("bound", "grid-p = -1,2", "grid_p entries must be positive integers, got -1.0"),
        ("bound", "kappa = nan", "kappa must be positive, got nan"),
    ], ids=["bad_choice", "bad_type", "flag_prefix", "negative_list", "non_finite"])
    def test_bad_entry_exits_config(self, tmp_path, capsys, command, entry, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(entry + "\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert out == "" and message in err

    @pytest.mark.parametrize("value, expected", [("true", EXIT_ORACLE), ("no", EXIT_OK)])
    def test_inject_fault_from_file(self, tmp_path, capsys, value, expected):
        cfg = tmp_path / "fault.cfg"
        cfg.write_text(f"inject_fault = {value}\n")
        code, _, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == expected

    def test_file_run_matches_flags(self, tmp_path, capsys):
        flags = ["--regime", "null", "--grid-n", "20", "--grid-p", "2,3", "--grid-q", "2",
                 "--trials", "100", "--perms", "19", "--seed", "5", "--alpha", "0.1"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{flags[i][2:]} = {flags[i + 1]}\n" for i in range(0, len(flags), 2)))
        code, out, _ = run_cli(capsys, "power", "--config", str(cfg))
        assert code == EXIT_OK
        _, flag_out, _ = run_cli(capsys, "power", *flags)
        assert out == flag_out  # header fingerprint included


def _python(*args):
    """A new interpreter that imports this checkout's indeplab."""
    src = str(Path(indeplab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def _fresh_process_cli(*argv):
    """(exit code, stdout) of the CLI in a new interpreter."""
    result = _python("-m", "indeplab.cli", *argv)
    return result.returncode, result.stdout


def test_parser_reuse_leaks_nothing(tmp_path, capsys):
    # main builds its parsers once per process; each call must still parse
    # as if in a new process, with no default or file value carried over.
    cfg = tmp_path / "p3.cfg"
    cfg.write_text("grid_p = 3\n")
    for argv in (["bound", "--grid-n", "7", "--b", "0.3"], ["bound"], ["bound", "--config", str(cfg)], ["bound"]):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == _fresh_process_cli(*argv), argv
    _, rows = parse_csv(out)
    assert (rows[0]["n"], rows[0]["p"], rows[0]["q"]) == ("100", "10", "10")
    code, out, err = run_cli(capsys, "bound", "--grid-n", "x")
    assert code == EXIT_CONFIG and out == "" and "'x'" in err
    helps = [run_cli(capsys, "--help") for _ in range(2)]
    assert [code for code, _, _ in helps] == [EXIT_OK, EXIT_OK]
    assert helps[0][1] == helps[1][1] and "verify" in helps[0][1]


def test_serial_runs_load_no_process_pool():
    # Only --workers > 1 takes the process pool: a serial power run, bound
    # and verify load neither concurrent.futures.process nor multiprocessing.
    code = ("import sys\n"
            "from indeplab import cli\n"
            "assert cli.main(['power', '--regime', 'null', '--grid-n', '20', '--grid-p', '2', '--grid-q', '2',"
            " '--trials', '5', '--perms', '19', '--workers', '1']) == 0\n"
            "assert cli.main(['bound', '--grid-n', '8000', '--grid-p', '250', '--grid-q', '250']) == 0\n"
            "assert cli.main(['verify']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process'"
            " or m.split('.')[0] == 'multiprocessing'))")
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_verify_loads_no_numpy_ma():
    # verify groups its configurations without np.unique on integers, which
    # imports numpy.ma (about 1.3 MB of resident memory per process).
    code = ("import sys\n"
            "from indeplab import cli\n"
            "assert cli.main(['verify']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_package_loads_no_scipy():
    # numpy is the one runtime dependency: importing every module, verify, a
    # bound on the moment series and a chi2 on the grid load no scipy module.
    code = ("import pkgutil, sys, indeplab\n"
            "for m in pkgutil.iter_modules(indeplab.__path__): __import__('indeplab.' + m.name)\n"
            "from indeplab import cli, divergence, structured_cov\n"
            "assert cli.main(['verify']) == 0\n"
            "assert cli.main(['bound', '--grid-n', '8000', '--grid-p', '250', '--grid-q', '250']) == 0\n"
            "assert divergence._moment_series(40, 30, 20, structured_cov.amplitude(40, 30, 20, 1.3)) is None\n"
            "divergence.chi_square_exact(40, 30, 20, 1.3)\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    result = _python("-c", code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
