"""The benchmark tracer wraps package functions by name; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _ in _targets()])
def test_tracer_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"indeplab.{module}"), attr, None))
