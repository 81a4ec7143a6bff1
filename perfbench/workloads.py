"""Request streams and output checks for the four benchmark workloads.

Every request is a list of ``indeplab`` command lines.  Its inputs depend only
on (workload, run seed, request index), so request ``i`` of a given seed is
the same on every commit and its CSV digest can be compared across commits.

Why these workloads:

- ``mc_level``: ``power --regime null`` at (n,p,q) = (50,5,5).  The products
  are tiny, so per-permutation Python overhead dominates; every null trial
  could stop early, so sequential or batched permutation decisions show here.
- ``mc_lf``: ``power --regime lf`` at (200,50,50) with the default b.  The only
  workload that runs the least-favourable sign-ensemble sampler; its products
  are BLAS-bound.
- ``mc_signal``: ``phase`` at (200,10,10), s in {25, 50}.  Power is near one,
  so every trial needs all B permutations: a per-permutation cost added by
  early stopping shows here and nothing can be saved.
- ``exact``: a compute-and-certify session: ``bound`` on n ~ 8000 x p,q in
  {250, 2000} at the default b (compensated-sum path) and at b = 0.8 (the
  largest point takes the logsumexp path), then ``verify``.  The divergence
  module dominates; no permutation test runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math

ALPHA = 0.05
BETA = 0.35
PERMS = 200
# Requests are sized to take roughly 0.3 s each on a 2-core x86 machine, so a
# run of 25 s yields enough requests for a tail percentile.
MC_TRIALS = {"mc_level": 100, "mc_lf": 30, "mc_signal": 40}
EXACT_N_BAND = (7900, 8100)
EXACT_DIMS = "250,2000"
EXACT_HIGH_B = "0.8"
# z for the pooled statistical checks: a false alarm has probability below
# 1e-8 per run, negligible over every run the benchmark will ever make.
Z_POOLED = 6.0

WORKLOADS = ("mc_level", "mc_lf", "mc_signal", "exact")


def derive(workload: str, seed: int, index: int, salt: str = "") -> int:
    """Deterministic 60-bit integer for request ``index`` of a run."""
    text = f"{workload}:{seed}:{index}:{salt}".encode()
    return int(hashlib.sha256(text).hexdigest()[:15], 16)


def request(workload: str, seed: int, index: int, inject_fault: bool = False) -> list[list[str]]:
    """Command lines of request ``index``; ``--out`` is appended by the caller."""
    s = str(derive(workload, seed, index))
    common = ["--perms", str(PERMS), "--workers", "1", "--seed", s]
    if workload == "mc_level":
        return [["power", "--regime", "null", "--grid-n", "50", "--grid-p", "5", "--grid-q", "5",
                 "--trials", str(MC_TRIALS[workload])] + common]
    if workload == "mc_lf":
        return [["power", "--regime", "lf", "--grid-n", "200", "--grid-p", "50", "--grid-q", "50",
                 "--trials", str(MC_TRIALS[workload])] + common]
    if workload == "mc_signal":
        return [["phase", "--grid-n", "200", "--grid-p", "10", "--grid-q", "10", "--grid-s", "25,50",
                 "--trials", str(MC_TRIALS[workload])] + common]
    if workload == "exact":
        lo, hi = EXACT_N_BAND
        n = str(lo + derive(workload, seed, index, "n") % (hi - lo + 1))
        grid = ["--grid-n", n, "--grid-p", EXACT_DIMS, "--grid-q", EXACT_DIMS]
        verify = ["verify", "--seed", s] + (["--inject-fault"] if inject_fault else [])
        return [["bound"] + grid, ["bound"] + grid + ["--b", EXACT_HIGH_B], verify]
    raise ValueError(f"unknown workload {workload!r}")


def parse_csv(data: bytes) -> list[dict]:
    """Rows of an indeplab CSV; the leading '# command=...' line is skipped."""
    text = data.decode()
    if not text.startswith("#"):
        raise ValueError("missing provenance comment line")
    body = text.split("\n", 1)[1]
    return list(csv.DictReader(io.StringIO(body)))


def _check_mc_rows(rows: list[dict], expected_rows: int, trials: int) -> list[str]:
    errs = []
    if len(rows) != expected_rows:
        errs.append(f"expected {expected_rows} rows, got {len(rows)}")
    for r in rows:
        if r["error"]:
            errs.append(f"error column: {r['error']}")
            continue
        if int(r["trials"]) != trials:
            errs.append(f"trials {r['trials']} != {trials}")
        if not 0 <= int(r["rejections"]) <= int(r["trials"]):
            errs.append(f"rejections {r['rejections']} outside [0, trials]")
        lo, est, hi = float(r["ci_low"]), float(r["estimate"]), float(r["ci_high"])
        if not lo <= est <= hi:
            errs.append(f"ci_low <= estimate <= ci_high fails: {lo} {est} {hi}")
    return errs


def _check_bound_rows(rows: list[dict], default_b: bool) -> list[str]:
    errs = []
    dims = EXACT_DIMS.split(",")
    if len(rows) != len(dims) ** 2:
        errs.append(f"expected {len(dims) ** 2} bound rows, got {len(rows)}")
    for r in rows:
        if r["error"]:
            errs.append(f"error column: {r['error']}")
            continue
        if not float(r["chi2_exact"]) <= float(r["chi2_closed_bound"]):
            errs.append(f"chi2_exact {r['chi2_exact']} > closed bound {r['chi2_closed_bound']}")
        if default_b:
            if not float(r["power_upper"]) <= BETA:
                errs.append(f"power_upper {r['power_upper']} > beta")
            if r["pd_ok"] != "True" or r["mgf_ok"] != "True":
                errs.append(f"pd_ok={r['pd_ok']} mgf_ok={r['mgf_ok']} at the default b")
    return errs


def check(workload: str, outputs: list[tuple[int, bytes]]) -> tuple[list[str], list[tuple[str, int, int]]]:
    """Check one request's (exit code, CSV bytes) pairs.

    Returns the list of failures and the (label, rejections, trials) counts the
    pooled per-run check needs.
    """
    errs = [f"call {i}: exit code {rc}" for i, (rc, _) in enumerate(outputs) if rc != 0]
    counts: list[tuple[str, int, int]] = []
    try:
        tables = [parse_csv(data) for _, data in outputs]
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        return errs + [f"unreadable CSV: {exc}"], counts
    try:
        if workload == "exact":
            errs += _check_bound_rows(tables[0], default_b=True)
            errs += _check_bound_rows(tables[1], default_b=False)
            if not tables[2] or any(r["pass"] != "True" for r in tables[2]):
                errs.append("verify: an oracle row failed")
        else:
            expected = 2 if workload == "mc_signal" else 1
            errs += _check_mc_rows(tables[0], expected, MC_TRIALS[workload])
            if not errs:
                counts = [(r["s_or_b"], int(r["rejections"]), int(r["trials"])) for r in tables[0]]
    except (ValueError, KeyError) as exc:
        errs.append(f"malformed CSV field: {exc}")
    return errs, counts


def pooled_check(workload: str, counts: list[tuple[str, int, int]]) -> tuple[bool, str]:
    """Statistical check over every trial of a run."""
    if workload == "exact":
        return True, "no pooled check"
    if workload == "mc_signal":
        counts = [c for c in counts if float(c[0]) == 50.0]
    rej = sum(c[1] for c in counts)
    trials = sum(c[2] for c in counts)
    if trials == 0:
        return False, "no trials pooled"
    phat = rej / trials
    if workload == "mc_level":
        # Score (Wilson) band around alpha.
        half = Z_POOLED * math.sqrt(ALPHA * (1 - ALPHA) / trials)
        ok = abs(phat - ALPHA) <= half
        return ok, f"level {phat:.5f} over {trials} trials, band {ALPHA} +- {half:.5f}"
    if workload == "mc_lf":
        # The least-favourable power sits far below beta, so three standard
        # errors already make a false alarm negligible.
        limit = BETA + 3.0 * math.sqrt(phat * (1 - phat) / trials)
        return phat <= limit, f"power {phat:.5f} over {trials} trials, limit {limit:.5f}"
    return phat >= 0.9, f"power at s=50 {phat:.5f} over {trials} trials, limit 0.9"
