import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import indeplab
from indeplab import cli, divergence, oracles_suite, stat_tests
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


# The errors that end a point in an error row (divergence: in one stderr
# line), and exit 3; any other error propagates.
POINT_ERRORS = [ValueError, OverflowError, MemoryError, BrokenProcessPool]


def _raising(error):
    def fail(*args, **kwargs):
        raise error
    return fail


def _assert_propagates(monkeypatch, target, argv):
    monkeypatch.setattr(*target, _raising(TypeError))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with pytest.raises(TypeError):
            main(argv)


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
        # 1 - |a| sqrt(pq) is about 5e-9 here; the mgf_ok column repeats pd_ok.
        code, out, _ = run_cli(
            capsys, "bound", "--grid-n", "1", "--grid-p", "1", "--grid-q", "3", "--b", "1.07456992645"
        )
        assert code == EXIT_OK
        _, rows = parse_csv(out)
        assert rows[0]["pd_ok"] == rows[0]["mgf_ok"] == "True"

    @pytest.mark.parametrize("error", POINT_ERRORS)
    def test_point_error_is_an_error_row(self, capsys, monkeypatch, error):
        argv = ["bound", "--grid-n", "100", "--grid-p", "10,20", "--grid-q", "10"]
        monkeypatch.setattr(divergence, "chi_square_exact", _raising(error))
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_NUMERIC
        _, rows = parse_csv(out)
        assert [r["error"] for r in rows] == [error.__name__, error.__name__]
        assert all(r["chi2_exact"] == "" for r in rows)
        _assert_propagates(monkeypatch, (divergence, "chi_square_exact"), argv)

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


def _no_work(*args, **kwargs):
    raise AssertionError("work ran before the output was opened")


VERIFY_ARGV = {
    "seed0": ["--seed", "0"],
    "seed1": ["--seed", "1"],
    "seed2758": ["--seed", "2758"],
    "seed_large": ["--seed", "770799637690793716"],
    "inject_fault": ["--inject-fault"],
}
# The digest tool reads the OpenBLAS core type numpy's library runs.
_spec = importlib.util.spec_from_file_location("csv_digests", Path(__file__).parents[1] / "tools" / "csv_digests.py")
csv_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(csv_digests)
# sha256 of verify's stdout, by the OpenBLAS core type numpy's library runs.
VERIFY_GOLDENS = {
    "SkylakeX": {
        "seed0": "c429939b7e4632592891404ee7667d9d2b4abab693e0e818a9c619965e368ead",
        "seed1": "af33ec93d3fe5283f44ee7cd254b720a9fd76e90b147da4cd7b79683c8f8c986",
        "seed2758": "c4665462a17fe1f67b5a023b11a751a602248fa21043faad1cba11cdb89e6b95",
        "seed_large": "c553dca8b0cb74ef8d65f2e589e1021c89497b91a65ad71c1b2420189382fd2a",
        "inject_fault": "658b56d04b5823726667500eb91f9efebdc8d4d8eb7fad53d65d3ac8a23429c4",
    },
    "Haswell": {
        "seed0": "d605f70fd23de8c7355624e829e11873f0463cb40baae0bfe4322aa829eea082",
        "seed1": "9e53d2dca45cace996684938a909dbf9cd0342a49aa77ce7c0695552570dc16a",
        "seed2758": "17ea65bce0b2706ffa6b01e5ed31da7c4bb4806b04d1aab4a7757f08568cd25c",
        "seed_large": "49706cc7c75aa6152773d525dd418fc6d8f709fcb7d00ca8de43c545f4b647fe",
        "inject_fault": "c45713d224119d0476e2ab18379c5ce0be12508ec9d407dfef852e6fe5e2a541",
    },
    "Sandybridge": {
        "seed0": "9967c9f09d77e76024939836fddf4540f7886a8d4016f0833291ac37833e34f6",
        "seed1": "1da633b84a576a25f165ac1820b7a1081f0c25f438b1d60f9553b096bf4781d4",
        "seed2758": "58a42e49c61a603481ace9eece08291ca932b722ca51c8986f3aac042c5140e2",
        "seed_large": "b5db760bfc6ed5ad73ceba502775e11aff57ff40002b384918b23546cc34c7e3",
        "inject_fault": "6bc1dd75f5a2b76ce11dc108c2ac13c057a0cd57fc84a26c566e971c29ebc25a",
    },
    "Nehalem": {
        "seed0": "4613d70e910f7ef6ba7e681680ca4edd92c4a52ede278abf1010c036b2e1bd6e",
        "seed1": "d8631cc01888f9b8e58d834151e5f3224fa70072639b1450798df269df10dabd",
        "seed2758": "5844bc61ed7f766e806d110d725bc9d5a9080a2e9311bc22bf5c5e18bf56f43b",
        "seed_large": "3827c262de22e35a3919c7d9a49f4a8f3c5d227f42bdbfc09220e68341d593a9",
        "inject_fault": "0739b270824e704b78fe7e371574e3f84f9ebe52d6ee24272de899a840c32db3",
    },
    "Katmai": {
        "seed0": "88fdbc78fdd4bb5f7028da6b1c076bf8edfbb6bb1f38666a1dc78f4b97fbd934",
        "seed1": "6fe7c10fc6e713a991f7113fe86d778a366451c5c7d8723ca5c10398a921a238",
        "seed2758": "d12afc27d4669fe25701785a3ed5c3b6cf961b250fca2b47cc8abde043971032",
        "seed_large": "11a6c855ed0da795b4b994b8b5eaf9b163edd7afa5d9dfe86919babe2afadaa9",
        "inject_fault": "e92a578707588838078d5433bdfac4c26688357599ee4a0320f392826da8bb1a",
    },
}
# The OPENBLAS_CORETYPE value that selects each core's kernels, newest first.
# Zen, Cooperlake and SapphireRapids run the same kernels as Haswell or
# SkylakeX; the older AMD and Intel names map onto the last three.
CORE_OVERRIDES = {
    "SkylakeX": "SkylakeX", "Haswell": "Haswell", "Sandybridge": "SandyBridge", "Nehalem": "Nehalem",
    "Katmai": "Prescott",
}
# The recorded cores this host can run other than its own: those older than it.
_CORES, _HOST = list(CORE_OVERRIDES), csv_digests.openblas_core()
OTHER_CORES = _CORES[_CORES.index(_HOST) + 1:] if _HOST in _CORES else _CORES


def _verify_digests() -> dict[str, str]:
    """sha256 of verify's stdout for each case of VERIFY_ARGV, in-process."""
    digests = {}
    for case, argv in VERIFY_ARGV.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["verify", *argv])
        digests[case] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


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

    @pytest.mark.parametrize("case", list(VERIFY_ARGV))
    def test_golden_bytes(self, capsys, case):
        # A change to the oracle draws or to the enumeration's summation
        # changes these bytes.  So does the BLAS kernel: the dense oracles'
        # brute-force and error columns move by a few ulps between core types.
        core = csv_digests.openblas_core()
        assert core in VERIFY_GOLDENS, f"no verify golden recorded for OpenBLAS core {core}"
        _, out, _ = run_cli(capsys, "verify", *VERIFY_ARGV[case])
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_GOLDENS[core][case]

    @pytest.mark.parametrize("core", OTHER_CORES)
    def test_golden_bytes_under_other_kernels(self, core):
        # numpy's OpenBLAS is built for many CPUs and picks its kernels at
        # load; these are the ones an older host gets.
        code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
                "import test_cli\n"
                "print(json.dumps([test_cli.csv_digests.openblas_core(), test_cli._verify_digests()]))")
        result = _python("-c", code, env={"OPENBLAS_CORETYPE": CORE_OVERRIDES[core]})
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == [core, VERIFY_GOLDENS[core]]

    @pytest.mark.parametrize("argv, digest", [
        ("power --regime lf --grid-n 40 --grid-p 3,7 --grid-q 2",
         "ebec9f607270409437c85289466e3dacf256bc1c99d8b74c01031e76fb5a9c4c"),
        ("power --regime null --grid-n 30 --grid-p 3 --grid-q 2",
         "8c76af64bdb03d7618c7b187951e2d765e098d88515b64ccb1698af3a994d3dd"),
        ("phase --grid-n 40 --grid-p 3 --grid-q 2 --grid-s 0,1,2",
         "dd3158f93a41cb822fcca13f2d4a1738a15f3ea763ade2463d11c5c985bbb53b"),
        # b = 0 and s = 0 take the same null generator.
        ("power --regime lf --b 0 --grid-n 40 --grid-p 3,7 --grid-q 2",
         "19fca015dd701137afe7ab2913830b4fe1212a049f3336e5d26c9eaa8d0e2342"),
        ("phase --grid-n 40 --grid-p 3 --grid-q 2 --grid-s 0,1",
         "1d3395135e964a9cf9b02a26b6f0705047615d26d1b686786a3d0f805c190a5a"),
    ], ids=["power_lf", "power_null", "phase", "power_lf_b0", "phase_s0"])
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
        level = stat_tests.estimate_level(30, 2, 2, 5, 19, 0, alpha=0.6)
        assert rows[0]["rejections"] == str(level.rejections)

    @pytest.mark.parametrize("error", POINT_ERRORS)
    def test_point_error_is_an_error_row(self, capsys, monkeypatch, error):
        argv = ["power", "--regime", "null", "--grid-n", "20", "--grid-p", "2,3", "--grid-q", "2",
                "--trials", "100", "--perms", "19"]
        monkeypatch.setattr(cli, "estimate_level", _raising(error))
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_NUMERIC
        _, rows = parse_csv(out)
        assert [(r["regime"], r["p"], r["s_or_b"], r["error"]) for r in rows] == [
            ("null", "2", "0", error.__name__), ("null", "3", "0", error.__name__)
        ]
        assert all(r["estimate"] == "" and r["seed"] == "0" for r in rows)
        _assert_propagates(monkeypatch, (cli, "estimate_level"), argv)

    @pytest.mark.parametrize("command, regime", [("power", "null"), ("phase", "phase")])
    def test_broken_pool_is_an_error_row(self, capsys, monkeypatch, command, regime):
        class BrokenPool:
            """A pool whose worker died: submit raises as concurrent.futures does."""

            def __init__(self, workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(stat_tests, "_process_pool", BrokenPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        argv = ["--grid-n", "20", "--grid-p", "2", "--grid-q", "2", "--trials", "100", "--perms", "19",
                "--workers", "2"]
        # phase's default grid reaches s = 25, not attainable at n = 20, p = q = 2.
        extra = ["--regime", "null"] if command == "power" else ["--grid-s", "0,1"]
        code, out, _ = run_cli(capsys, command, *argv, *extra)
        assert code == EXIT_NUMERIC
        _, rows = parse_csv(out)
        assert [(r["regime"], r["error"]) for r in rows] == [(regime, "a child process terminated abruptly")]

    @pytest.mark.parametrize("error", POINT_ERRORS)
    def test_phase_error_row(self, capsys, monkeypatch, error):
        argv = ["phase", "--grid-n", "20", "--grid-p", "2", "--grid-q", "2"]
        monkeypatch.setattr(cli, "phase_curve", _raising(error))
        code, out, _ = run_cli(capsys, *argv)
        assert code == EXIT_NUMERIC
        _, rows = parse_csv(out)
        assert [(r["regime"], r["s_or_b"], r["error"]) for r in rows] == [("phase", "", error.__name__)]
        _assert_propagates(monkeypatch, (cli, "phase_curve"), argv)

    def test_phase_checks_every_signal_before_any_trial(self, capsys, monkeypatch):
        # The default grid's s = 50 is not attainable at (40, 3, 2): its error
        # row comes before the trials of s = 0, 1, 5 and 25 would run.
        monkeypatch.setattr(stat_tests, "_estimate", _raising(MemoryError))
        code, out, _ = run_cli(capsys, "phase", "--grid-n", "40", "--grid-p", "3", "--grid-q", "2",
                               "--trials", "40", "--perms", "39", "--seed", "4")
        assert code == EXIT_NUMERIC
        _, rows = parse_csv(out)
        assert [(r["regime"], r["error"]) for r in rows] == [
            ("phase", "s = 50 needs per-pair correlation^2 = 1.53 >= 1: not attainable")
        ]

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

    @pytest.mark.parametrize("error", POINT_ERRORS)
    def test_point_error_exits_numeric(self, capsys, monkeypatch, error):
        argv = ["divergence", "--n", "100", "--p", "10", "--q", "10"]
        monkeypatch.setattr(divergence, "chi_square_exact", _raising(error))
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_NUMERIC
        assert out == "" and err == f"error: {error.__name__}\n"
        _assert_propagates(monkeypatch, (divergence, "chi_square_exact"), argv)

    def test_report_to_out(self, capsys, tmp_path):
        # --out was once accepted and ignored.
        argv = ["divergence", "--n", "20", "--p", "2", "--q", "2"]
        _, stdout_report, _ = run_cli(capsys, *argv)
        path = tmp_path / "report.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert path.read_bytes() == stdout_report.encode()

    def test_unwritable_out_exits_config_before_any_work(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(divergence, "minimax_power_upper", _no_work)
        path = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(capsys, "divergence", "--n", "20", "--p", "2", "--q", "2", "--out", str(path))
        assert code == EXIT_CONFIG
        assert out == "" and err.startswith(f"config error: cannot write {path}: ") and err.count("\n") == 1

    def test_overflow_exits_numeric(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "divergence", "--n", "8000", "--p", "200", "--q", "1000", "--b", "3")
        assert code == EXIT_NUMERIC
        assert out == "" and "overflows" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


    # amplitude is a Python float: at b = 1e300, a^2 pq reads inf without
    # numpy's overflow warning, and each command exits numeric.
    @pytest.mark.parametrize("argv", [
        ["divergence", "--n", "10", "--p", "3", "--q", "3"],
        ["bound", "--grid-n", "10", "--grid-p", "3", "--grid-q", "3"],
        ["power", "--regime", "lf", "--grid-n", "10", "--grid-p", "3", "--grid-q", "3", "--trials", "5",
         "--perms", "19"],
    ], ids=["divergence", "bound", "power_lf"])
    def test_huge_b_exits_numeric(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run_cli(capsys, *argv, "--b", "1e300")
        assert code == EXIT_NUMERIC
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
        # Parsed as doubles: 2^53 + 1 once ran as n = 2^53, and 1e300 as its
        # 301-digit integer.
        (["bound", "--grid-n", "9007199254740993"], "grid_n entries must be below 2^53, got 9007199254740992.0"),
        (["power", "--grid-q", "1e300"], "grid_q entries must be below 2^53, got 1e+300"),
        (["bound", "--kappa", "nan"], "kappa must be positive, got nan"),
        (["bound", "--kappa", "inf"], "kappa must be positive, got inf"),
        (["bound", "--b", "nan"], "b must be nonnegative, got nan"),
        (["bound", "--b", "inf"], "b must be nonnegative, got inf"),
        (["phase", "--grid-s", "nan"], "grid_s entries must be nonnegative, got nan"),
        # An empty list once ran no point and wrote a CSV of its header alone.
        (["bound", "--grid-n", "10", "--grid-p", ",", "--grid-q", "2"], "grid_p must list at least one value"),
        (["power", "--regime", "null", "--grid-n", ",", "--trials", "3", "--perms", "19"],
         "grid_n must list at least one value"),
        (["power", "--grid-q", ""], "grid_q must list at least one value"),
        (["phase", "--grid-n", "20", "--grid-p", "2", "--grid-q", "2", "--grid-s", ",", "--trials", "5",
          "--perms", "19"], "grid_s must list at least one value"),
    ], ids=["grid_n_inf", "grid_p_nan", "grid_n_2_53_plus_1", "grid_q_1e300", "kappa_nan", "kappa_inf", "b_nan",
            "b_inf", "grid_s_nan", "grid_p_empty", "grid_n_empty", "grid_q_empty", "grid_s_empty"])
    def test_non_finite_exits_config(self, capsys, argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert out == "" and err == f"invalid config: {message}\n"
        assert not caught

    @pytest.mark.parametrize("argv, target", [
        (["bound", "--grid-n", "10", "--grid-p", "2", "--grid-q", "2"], (divergence, "minimax_power_upper")),
        (["power", "--regime", "null", "--grid-n", "10", "--grid-p", "2", "--grid-q", "2", "--trials", "3",
          "--perms", "19"], (stat_tests, "_trial")),
        (["verify"], (oracles_suite, "run_suite")),
    ], ids=["bound", "power", "verify"])
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_exits_config_before_any_work(self, capsys, monkeypatch, tmp_path, argv, target,
                                                           where):
        # Opening the file once raised FileNotFoundError or IsADirectoryError
        # as a traceback, for verify after its whole suite had run.
        monkeypatch.setattr(*target, _no_work)
        path = tmp_path / "missing" / "x.csv" if where == "missing_dir" else tmp_path
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == EXIT_CONFIG
        assert out == "" and err.startswith(f"config error: cannot write {path}: ") and err.count("\n") == 1

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


def _python(*args, env=None):
    """A new interpreter that imports this checkout's indeplab, with ``env``
    added to this process's environment."""
    src = str(Path(indeplab.__file__).parents[1])
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
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


def test_import_and_bound_load_no_numpy_random():
    # numpy imports numpy.random at first use (about 13 ms); importing every
    # module and the commands that draw nothing leave it unloaded, so set-up
    # does not pay for it.
    code = ("import pkgutil, sys, indeplab\n"
            "for m in pkgutil.iter_modules(indeplab.__path__): __import__('indeplab.' + m.name)\n"
            "from indeplab import cli\n"
            "assert cli.main(['bound', '--grid-n', '8000', '--grid-p', '250', '--grid-q', '250']) == 0\n"
            "assert cli.main(['divergence', '--n', '200', '--p', '10', '--q', '10']) == 0\n"
            "print('numpy.random' in sys.modules)")
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
