"""Self-test of the benchmark: python3 -m pytest perfbench  (about 20 s).

Tiny runs of run.py check that every metric BENCHMARK.json names is emitted,
that the negative control reports failures, and that the benchmark refuses to
run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_emits_every_metric(trace, section):
    out = result(bench("--workload", "mc_level", "--seed", "3", "--seconds", "1", "--trace", trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert set(out["metrics"]) == {m["name"] for m in SPEC[section]}
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    for name, metric in out["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_injected_oracle_fault_counts_as_error():
    out = result(bench("--workload", "exact", "--seed", "3", "--seconds", "1", "--inject-fault"))
    assert not out["correct"]
    assert out["failed"] > 0
    details = json.loads((HERE / "out" / "exact-seed3-trace0.json").read_text())
    assert details["error_rate"] > 0


def test_refuses_to_run_without_sources():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "mc_level", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_requests_depend_only_on_seed_and_index():
    for wl in workloads.WORKLOADS:
        assert workloads.request(wl, 7, 3) == workloads.request(wl, 7, 3)
        assert workloads.request(wl, 7, 3) != workloads.request(wl, 8, 3)


def test_output_checks_catch_bad_rows():
    header = "# command=power seed=1 fingerprint=0\n"
    cols = "regime,n,p,q,s_or_b,trials,rejections,estimate,ci_low,ci_high,seed,error\n"
    good = header + cols + "null,50,5,5,0,100,5,0.05,0.02,0.11,1,\n"
    assert workloads.check("mc_level", [(0, good.encode())])[0] == []
    for bad in ("null,50,5,5,0,99,5,0.05,0.02,0.11,1,\n",      # wrong trial count
                "null,50,5,5,0,100,101,1.01,0.9,1,1,\n",      # rejections > trials
                "null,50,5,5,0,100,5,0.05,0.06,0.11,1,\n",    # estimate below ci_low
                "null,50,5,5,0,,,,,,1,boom\n"):               # error column
        assert workloads.check("mc_level", [(0, (header + cols + bad).encode())])[0]
    assert workloads.check("mc_level", [(3, good.encode())])[0]


def test_pooled_level_band():
    assert workloads.pooled_check("mc_level", [("0", 50, 1000)])[0]
    assert not workloads.pooled_check("mc_level", [("0", 150, 1000)])[0]


def test_tail_percentile():
    lat = [float(i) for i in range(1, 101)]
    assert run.tail(lat) == (90.0, 90.0, 100)
    assert run.tail(lat[:12]) == (12.0, 100.0, 12)


def test_self_time_subtracts_children():
    import types

    inner = types.SimpleNamespace(leaf=lambda: None)
    tracer = Tracer({})

    def outer():
        inner.leaf()
        inner.leaf()

    inner.leaf = tracer._wrap(inner.leaf, "leaf")
    tracer.call_root(outer)
    spans = tracer.self_times()
    (root,) = [s for s in spans if s[1] == "cli.main"]
    leaves = [s for s in spans if s[1] == "leaf"]
    assert len(leaves) == 2
    assert root[3] == pytest.approx(root[2] - sum(s[2] for s in leaves))
