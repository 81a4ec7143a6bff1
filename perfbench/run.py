"""Layered benchmark for indeplab: Monte-Carlo trial throughput, exact-bound
latency and memory over four workloads (see workloads.py for why each).

Run from the repository root:

    python3 perfbench/run.py --workload mc_level --seed 1 --seconds 25 --trace 0

Each workload runs in a fresh interpreter (worker.py) with BLAS threads pinned
to 1, as a closed loop with one client: the next request starts when the
previous one returns.  The warm-up request is left out of every metric.

Untraced runs (--trace 0) report the end-to-end metrics.  Their times are
wall-clock times scaled to a reference machine speed (calibrate.py): each
set-up by a calibration loop timed in the same process right after it, and
each request of a Monte-Carlo workload by its workload's loops timed before
it and its neighbours.  Traced runs (--trace 1) alternate untraced and traced
requests and report per-layer metrics in raw wall-clock time.

The last line of stdout is one JSON object {"correct", "attempted", "failed",
"metrics"}; failed / attempted is the error rate.  The environment, the CSV
digests, the tail percentile and its sample count, the raw wall-clock figures
and the failures go to stderr and to perfbench/out/<workload>-seed<N>-trace<T>.json.
``--inject-fault`` runs ``verify --inject-fault`` in the exact workload, a
negative control that must report failures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-up samples per untraced run: these probes plus the worker's own start.
SETUP_PROBES = 6
# Every run must end within 180 s; leave room to report.
RUN_TIMEOUT_S = 170.0
TAIL_BEYOND = 10
SCALE_WINDOW = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _start(worker_args: list[str], log) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; return it, the seconds until it was ready, and its calibration time."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *worker_args],
                            stdout=subprocess.PIPE, stderr=log, env=_child_env(),
                            cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    try:
        if line.strip() != "ready":
            raise ValueError(line)
        calibration = float(proc.stdout.readline())
    except ValueError:
        proc.kill()
        proc.communicate()
        raise BenchError("worker did not start; see " + log.name)
    return proc, ready, calibration


def _finish(proc: subprocess.Popen, timeout: float) -> None:
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples above it.

    Returns (latency, percentile, sample count).  Below 2 * TAIL_BEYOND
    samples that percentile would not exceed the median, so the run reports
    its maximum as percentile 100 instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def scale(latencies: list[float], calibrations: list[float], reference: float) -> list[float]:
    """Latencies at reference speed.

    One short calibration loop is a noisy speed sample, so each request is
    scaled by the median of the loops timed in a window of SCALE_WINDOW
    requests around it.
    """
    half = SCALE_WINDOW // 2
    return [t * reference / statistics.median(calibrations[max(0, i - half): i + half + 1])
            for i, t in enumerate(latencies)]


def run(args: argparse.Namespace, units: dict) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir()
    result_path = OUT / f"worker-{os.getpid()}.json"
    started = time.perf_counter()
    load_at_start = os.getloadavg()
    setups, setup_cals = [], []
    try:
        with open(OUT / f"{tag}.log", "w") as log:
            if not args.trace:
                for _ in range(SETUP_PROBES):
                    proc, ready, calibration = _start(["--probe"], log)
                    _finish(proc, 30.0)
                    setups.append(ready)
                    setup_cals.append(calibration)
            proc, ready, calibration = _start(
                ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scratch", str(scratch), "--result", str(result_path),
                 "--spans", str(OUT / f"{tag}-spans.csv")] + (["--inject-fault"] if args.inject_fault else []),
                log)
            setups.append(ready)
            setup_cals.append(calibration)
            _finish(proc, RUN_TIMEOUT_S - (time.perf_counter() - started))
        worker = json.loads(result_path.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        result_path.unlink(missing_ok=True)

    requests = worker["requests"]
    failures = [(r["index"], r["errors"]) for r in requests if r["errors"]]
    attempted, failed = len(requests), len(failures)
    correct = failed == 0 and not worker["warmup"]["errors"] and worker["pooled"]["ok"]
    plain = [r["latency_s"] for r in requests if not r["traced"]]
    scaled = plain
    if args.workload in REFERENCE_S:
        scaled = scale(plain, [r["calibration_s"] for r in requests if not r["traced"]],
                       REFERENCE_S[args.workload])
    tail_s, tail_pct, tail_n = tail(scaled)
    wall = {
        "setup_s": statistics.median(setups),
        "req_p50_s": statistics.median(plain),
        "req_tail_s": tail(plain)[0],
        "sessions_per_s": len(plain) / sum(plain),
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": units[name]} for name, value in worker["layers"].items()}
    else:
        scaled_setup = [t * REFERENCE_S["setup"] / c for t, c in zip(setups, setup_cals)]
        metrics = {
            "setup_s": {"value": statistics.median(scaled_setup), "unit": "s"},
            "req_p50_s": {"value": statistics.median(scaled), "unit": "s"},
            "req_tail_s": {"value": tail_s, "unit": "s"},
            "sessions_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        }
    details = {
        "tag": tag, "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inject_fault": args.inject_fault,
        "environment": dict(worker["environment"], loadavg_at_start=load_at_start),
        "csv_sha256": worker["warmup"]["digest"],
        "request_sha256": [r["digest"] for r in requests],
        "request_latency_s": [r["latency_s"] for r in requests],
        "request_calibration_s": [r["calibration_s"] for r in requests],
        "wall_clock": wall,
        "setup_samples_s": setups,
        "setup_calibration_s": setup_cals,
        "tail": {"percentile": tail_pct, "samples": tail_n},
        "error_rate": failed / attempted,
        "warmup_errors": worker["warmup"]["errors"],
        "failures": failures[:20],
        "pooled_check": worker["pooled"],
        "trials_per_request": worker["trials_per_request"],
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1))
    return details, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="negative control: run verify --inject-fault in the exact workload")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "indeplab" / "cli.py").is_file():
        print(f"error: no indeplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        details, line = run(args, _units())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = ("environment", "csv_sha256", "tail", "error_rate", "warmup_errors", "failures", "pooled_check")
    print(json.dumps({k: details[k] for k in summary}, indent=1), file=sys.stderr)
    print(f"details: {OUT / details['tag']}.json", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
