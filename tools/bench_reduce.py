"""Reduce paired benchmark runs of a parent and a change to one JSON summary.

Run from the repository root, after ``perfbench/run.py`` has run the same
workloads and seeds from a checkout of each side:

    python3 tools/bench_reduce.py --parent PARENT/perfbench/out \
        --change CHANGE/perfbench/out --out BENCH_<N>.json

A pair is one ``<workload>-seed<N>-trace0.json`` file present in both
directories.  For each workload and each end-to-end metric of BENCHMARK.json
the summary holds each side's median and quartiles, and the pairs the change
won (ties count for neither side).  It also says whether the request digests
agree at every request index both runs reached, and counts failed requests.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_FILE = re.compile(r"(?P<workload>\w+)-seed(?P<seed>-?\d+)-trace0\.json")


def _runs(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.iterdir()):
        match = RUN_FILE.fullmatch(path.name)
        if match:
            runs[match["workload"], int(match["seed"])] = json.loads(path.read_text())
    return runs


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _digests_agree(parent: dict, change: dict) -> bool:
    common = min(len(parent["request_sha256"]), len(change["request_sha256"]))
    return (parent["csv_sha256"] == change["csv_sha256"]
            and parent["request_sha256"][:common] == change["request_sha256"][:common])


def _failed(run: dict) -> int:
    return round(run["error_rate"] * len(run["request_sha256"]))


def reduce_runs(parent_dir: Path, change_dir: Path, end_to_end: list[dict]) -> dict:
    """The summary of every pair of runs in the two directories, by workload."""
    parent, change = _runs(parent_dir), _runs(change_dir)
    pairs: dict[str, list[tuple[int, dict, dict]]] = {}
    for key in sorted(parent.keys() & change.keys()):
        pairs.setdefault(key[0], []).append((key[1], parent[key], change[key]))
    summary = {}
    for workload, runs in pairs.items():
        metrics = {}
        for spec in end_to_end:
            name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
            before = [p["metrics"][name]["value"] for _, p, _ in runs]
            after = [c["metrics"][name]["value"] for _, _, c in runs]
            metrics[name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "parent": _spread(before),
                "change": _spread(after),
                "pairs_won": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
            }
        summary[workload] = {
            "seeds": [seed for seed, _, _ in runs],
            "pairs": len(runs),
            "metrics": metrics,
            "digests_agree": all(_digests_agree(p, c) for _, p, c in runs),
            "requests_compared": sum(min(len(p["request_sha256"]), len(c["request_sha256"]))
                                     for _, p, c in runs),
            "failed_requests": {"parent": sum(_failed(p) for _, p, _ in runs),
                                "change": sum(_failed(c) for _, _, c in runs)},
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="the parent's perfbench/out directory")
    ap.add_argument("--change", type=Path, required=True, help="the change's perfbench/out directory")
    ap.add_argument("--out", type=Path, required=True, help="the summary file to write")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    summary = reduce_runs(args.parent, args.change, spec["end_to_end"])
    if not summary:
        print("error: no run is present in both directories", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
