"""One benchmark workload in a fresh interpreter: a closed loop with one client.

Started by run.py with BLAS threads pinned to 1 in its environment.  Prints
``ready`` on stdout as soon as ``indeplab.cli`` is imported and its parser is
built, so the parent can time set-up, then the time of one calibration loop
(calibrate.py).  With ``--probe`` it stops there.  Otherwise it sends one
warm-up request, then request after request until ``--seconds`` have passed,
each an in-process ``indeplab.cli.main(argv)`` call preceded by a calibration
loop, and writes a JSON result file for the parent.
"""

from __future__ import annotations

import argparse
import sys

from indeplab import cli

cli.build_parser()
print("ready", flush=True)

# Imported after the ready line so that set-up time covers indeplab alone.
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from indeplab import divergence, oracles, oracles_suite, stat_tests, structured_cov  # noqa: E402

import workloads  # noqa: E402
from calibrate import calibrate  # noqa: E402
from tracer import ROOT_SPAN, TARGETS, Tracer  # noqa: E402

calibrate("setup")  # first call pays one-off costs
print(calibrate("setup"), flush=True)

MODULES = {"cli": cli, "stat_tests": stat_tests, "structured_cov": structured_cov,
           "divergence": divergence, "oracles": oracles, "oracles_suite": oracles_suite}


def _call(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed request, not a failed run
        print(f"request raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return -1


def run_request(argvs: list[list[str]], scratch: Path, tracer: Tracer | None) -> dict:
    paths = [scratch / f"call{k}.csv" for k in range(len(argvs))]
    for path in paths:
        path.unlink(missing_ok=True)
    codes = []
    start = time.perf_counter()
    for argv, path in zip(argvs, paths):
        full = argv + ["--out", str(path)]
        codes.append(tracer.call_root(_call, full) if tracer else _call(full))
    latency = time.perf_counter() - start
    outputs = [(rc, path.read_bytes() if path.exists() else b"") for rc, path in zip(codes, paths)]
    for path in paths:
        path.unlink(missing_ok=True)
    blob = b"".join(data for _, data in outputs)
    return {"latency_s": latency, "outputs": outputs, "csv_bytes": len(blob),
            "digest": hashlib.sha256(blob).hexdigest()}


def environment() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def layer_metrics(tracer: Tracer, records: list[dict], trials_per_request: list[int]) -> dict:
    """Per-layer metrics, per traced request, from the spans of the traced requests."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)
    spans = tracer.self_times()
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for _, name, _, own in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
    perm_ms = [dur * 1e3 for _, name, dur, _ in spans if name == "stat_tests.permutation_test"]
    names = sorted({name for _, _, name in TARGETS} | {ROOT_SPAN})
    m: dict[str, float] = {}
    for name in names:
        m[f"{name}.calls"] = calls.get(name, 0) / n
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    for name in ("divergence.chi_square_exact", "divergence.mgf_validity"):
        m[f"{name}.peak_alloc_mb"] = tracer.peak_alloc.get(name, 0.0)
    m["stat_tests.permutation_test.p50_ms"] = statistics.median(perm_ms) if perm_ms else 0.0
    m["stat_tests.permutation_test.perms_reported"] = statistics.fmean(tracer.perms) if tracer.perms else 0.0
    m["cli.csv_bytes"] = statistics.fmean(r["csv_bytes"] for r in records)
    traced_lat = [r["latency_s"] for r in traced]
    plain_lat = [r["latency_s"] for r in plain]
    m["trace.overhead_ratio"] = statistics.median(traced_lat) / statistics.median(plain_lat)
    m["trace.unattributed_s"] = statistics.fmean(traced_lat) - sum(self_s.values()) / n
    plain_trials = sum(t for t, r in zip(trials_per_request, records) if not r["traced"])
    m["trials_per_s"] = plain_trials / sum(plain_lat)
    return m


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--scratch", type=Path)
    ap.add_argument("--result", type=Path)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    if args.probe:
        return 0
    wl, seed = args.workload, args.seed
    tracer = Tracer(MODULES) if args.trace else None

    def send(index: int, traced: bool) -> dict:
        argvs = workloads.request(wl, seed, index, args.inject_fault)
        calibration = calibrate(wl)
        if traced:
            tracer.request = index
            tracer.install()
        try:
            res = run_request(argvs, args.scratch, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        errs, counts = workloads.check(wl, res.pop("outputs"))
        res.update(index=index, traced=traced, errors=errs, counts=counts, calibration_s=calibration)
        return res

    # The warm-up request is left out of every metric.  In a traced run it is
    # the one request that measures allocation peaks: tracemalloc slows
    # Python-heavy calls too much to time them while it is on.
    if tracer:
        tracer.track_alloc = True
    warm = send(0, traced=bool(tracer))
    if tracer:
        tracer.track_alloc = False
        tracer.clear()

    # In a traced run, requests alternate untraced / traced, so the overhead
    # ratio compares requests made under the same machine conditions.
    min_requests = 2 if tracer else 1
    records = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(records) < min_requests:
        index = len(records) + 1
        records.append(send(index, traced=bool(tracer) and index % 2 == 0))

    counts = [c for r in records for c in r["counts"]]
    pooled_ok, pooled_detail = workloads.pooled_check(wl, counts)
    trials_per_request = [sum(c[2] for c in r["counts"]) for r in records]
    result = {
        "environment": environment(),
        "warmup": {"errors": warm["errors"], "digest": warm["digest"], "latency_s": warm["latency_s"]},
        "requests": [{k: r[k] for k in ("index", "traced", "latency_s", "calibration_s", "errors", "digest",
                               "csv_bytes")}
                     for r in records],
        "trials_per_request": trials_per_request,
        "pooled": {"ok": pooled_ok, "detail": pooled_detail},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = layer_metrics(tracer, records, trials_per_request)
        with open(args.spans, "w") as fh:
            fh.write("request,name,start_s,end_s,parent\n")
            for req, name, start, end, parent in tracer.spans:
                fh.write(f"{req},{name},{start:.9f},{end:.9f},{parent}\n")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
