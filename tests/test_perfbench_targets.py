"""The benchmark tracer wraps package functions by name; each must still exist,
and the spans that a command's layers give must still fire."""

import contextlib
import importlib
import importlib.util
import io
from collections import Counter
from pathlib import Path

import pytest

from indeplab import cli, divergence, oracles, oracles_suite, stat_tests, structured_cov

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = {"cli": cli, "stat_tests": stat_tests, "structured_cov": structured_cov,
           "divergence": divergence, "oracles": oracles, "oracles_suite": oracles_suite}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


tracer = _tracer_module()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in tracer.TARGETS])
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"indeplab.{module}"), attr, None))


MC = ["--grid-n", "30", "--grid-p", "3", "--grid-q", "3", "--trials", "3", "--perms", "19"]
SAMPLING = {"structured_cov.sample_dataset": 3, "stat_tests.permutation_test": 3}
DIVERGENCE = {"divergence.minimax_power_upper": 1, "divergence.chi_square_exact": 1,
              "divergence.mgf_validity": 1}


@pytest.mark.parametrize("argv, fired", [
    (["power", "--regime", "null", *MC], {"stat_tests.estimator": 1, **SAMPLING}),
    (["power", "--regime", "lf", *MC],
     {"stat_tests.estimator": 1, "structured_cov.sample_direction": 3,
      "structured_cov.cov_sqrt_apply": 3, **SAMPLING}),
    (["power", "--regime", "lf", "--b", "0", *MC], {"stat_tests.estimator": 1, **SAMPLING}),
    (["phase", "--grid-s", "0,1", *MC],
     {"stat_tests.estimator": 1, "structured_cov.sample_dataset": 3, "stat_tests.permutation_test": 6}),
    (["bound", "--grid-n", "100", "--grid-p", "10", "--grid-q", "10"], DIVERGENCE),
    (["verify"], {"oracles_suite.run_suite": 1, "divergence.chi_square_exact": 1,
                  "oracles.enumerate_chi_square": 1, "oracles.gamma_numeric": 1,
                  "structured_cov.cov_sqrt_apply": 1}),
], ids=["null", "lf", "lf_b0", "phase", "bound", "verify"])
def test_command_spans_fire(argv, fired):
    tr = tracer.Tracer(MODULES)
    tr.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert tr.call_root(cli.main, argv) == cli.EXIT_OK
    finally:
        tr.uninstall()
    counts = Counter(name for _, name, *_ in tr.spans)
    assert counts[tracer.ROOT_SPAN] == 1
    # Each span fires at least the given number of times, the estimator span
    # exactly, so that an estimator calling another would show.
    assert all(counts[name] == n if name == "stat_tests.estimator" else counts[name] >= n
               for name, n in fired.items()), counts
