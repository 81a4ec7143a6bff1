"""Self-test of tools/bench_reduce.py on synthetic run files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_reduce", ROOT / "tools" / "bench_reduce.py")
bench_reduce = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_reduce)

END_TO_END = [
    {"name": "req_p50_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "sessions_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
]


def _write(directory, workload, seed, p50, rate, digests, error_rate=0.0, trace=0):
    directory.mkdir(exist_ok=True)
    run = {
        "csv_sha256": "warm",
        "request_sha256": digests,
        "error_rate": error_rate,
        "metrics": {"req_p50_s": {"value": p50, "unit": "s"}, "sessions_per_s": {"value": rate, "unit": "1/s"}},
    }
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(run))


def test_medians_quartiles_wins_and_digests(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p50_before, p50_after) in zip((1, 2, 3, 4, 5), ((0.20, 0.18), (0.22, 0.19), (0.18, 0.18),
                                                               (0.24, 0.25), (0.21, 0.17))):
        _write(parent, "mc", seed, p50_before, 1 / p50_before, ["a", "b", "c"])
        _write(change, "mc", seed, p50_after, 1 / p50_after, ["a", "b", "c", "d"][:2 + seed % 3])
    _write(parent, "mc", 9, 0.5, 2.0, ["a"])  # no partner: not a pair
    _write(change, "mc", 1, 9.0, 9.0, ["z"], trace=1)  # traced: not an end-to-end run
    summary = bench_reduce.reduce_runs(parent, change, END_TO_END)
    mc = summary["mc"]
    assert mc["seeds"] == [1, 2, 3, 4, 5] and mc["pairs"] == 5
    p50 = mc["metrics"]["req_p50_s"]
    assert p50["parent"] == pytest.approx({"median": 0.21, "q1": 0.20, "q3": 0.22})
    assert p50["change"] == pytest.approx({"median": 0.18, "q1": 0.18, "q3": 0.19})
    # Lower is better: seeds 1, 2 and 5 won, 3 tied, 4 lost.
    assert p50["pairs_won"] == 3
    assert mc["metrics"]["sessions_per_s"]["pairs_won"] == 3
    assert p50["unit"] == "s" and p50["better"] == "lower"
    # Digests agree over the indices both runs reached: the change ran 3, 4,
    # 2, 3 and 4 requests against the parent's 3.
    assert mc["digests_agree"] and mc["requests_compared"] == 3 + 3 + 2 + 3 + 3
    assert mc["failed_requests"] == {"parent": 0, "change": 0}


def test_digest_mismatch_and_failures(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _write(parent, "exact", 7, 0.05, 20.0, ["a", "b", "c", "d"])
    _write(change, "exact", 7, 0.04, 25.0, ["a", "x", "c", "d"], error_rate=0.25)
    _write(parent, "mc", 7, 0.05, 20.0, ["a"])
    _write(change, "mc", 7, 0.05, 20.0, ["a"])
    summary = bench_reduce.reduce_runs(parent, change, END_TO_END)
    assert not summary["exact"]["digests_agree"] and summary["mc"]["digests_agree"]
    assert summary["exact"]["failed_requests"] == {"parent": 0, "change": 1}
    # One pair: the median is the value and the quartiles collapse onto it.
    assert summary["exact"]["metrics"]["req_p50_s"]["change"] == {"median": 0.04, "q1": 0.04, "q3": 0.04}
    assert summary["mc"]["metrics"]["req_p50_s"]["pairs_won"] == 0


def test_main_writes_the_summary(tmp_path):
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "BENCH.json"
    _write(parent, "mc", 1, 0.2, 5.0, ["a"])
    _write(change, "mc", 2, 0.2, 5.0, ["a"])
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps({"end_to_end": END_TO_END}))
    argv = ["--parent", str(parent), "--change", str(change), "--out", str(out), "--benchmark", str(spec)]
    assert bench_reduce.main(argv) == 1 and not out.exists()
    _write(change, "mc", 1, 0.1, 10.0, ["a"])
    assert bench_reduce.main(argv) == 0
    assert json.loads(out.read_text())["mc"]["metrics"]["req_p50_s"]["pairs_won"] == 1
