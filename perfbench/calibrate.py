"""Fixed reference work that tracks how fast the machine runs right now.

On a shared machine the same request can take 30% longer from one minute to
the next because other tenants load the cores and caches; process CPU time
moves with wall time, so it does not help.  The benchmark therefore times a
reference loop next to every request and every set-up, and reports times
scaled to a machine on which that loop takes its REFERENCE_S entry.

Contention slows small Python-driven numpy calls and BLAS products by
different amounts, so each Monte-Carlo workload has a loop shaped like its own
hot path: a few permutation-test trials at the workload's (n, p, q) with its
data generator.  Set-up (mostly imports) uses a mix.  The loops are frozen
copies of those kernels and call no indeplab code, so a change to the package
never changes them.  ``exact`` has no loop: over 12 alternating sessions and
large-grid passes (element-wise log/expm1, sort, fsum at 1.4M to 4M points)
the two times were uncorrelated (|r| < 0.2), and scaling by them doubled the
run-to-run spread, so its times stay wall-clock.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Loop times on a 2-core x86-64 machine with OpenBLAS pinned to one thread.
REFERENCE_S = {"setup": 0.015, "mc_level": 0.016, "mc_lf": 0.022, "mc_signal": 0.016}


def _data(kind: str, n: int, p: int, q: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "null":
        return rng.standard_normal((n, p + q))
    if kind == "lf":
        # Rank-two sign-ensemble covariance square root applied to N(0, I).
        u = rng.integers(0, 2, size=p) * 2.0 - 1.0
        v = rng.integers(0, 2, size=q) * 2.0 - 1.0
        s = 0.5 / math.sqrt(2.0 * n)
        wp = np.concatenate([u / math.sqrt(2 * p), v / math.sqrt(2 * q)])
        wm = np.concatenate([u / math.sqrt(2 * p), -v / math.sqrt(2 * q)])
        z = rng.standard_normal((n, p + q))
        return z + np.outer(z @ wp, (math.sqrt(1 + s) - 1) * wp) + np.outer(z @ wm, (math.sqrt(1 - s) - 1) * wm)
    m = min(p, q)  # canonical-correlation pairs
    signs = rng.integers(0, 2, size=m) * 2.0 - 1.0
    x = rng.standard_normal((n, p))
    y = rng.standard_normal((n, q))
    y[:, :m] = signs * 0.5 * x[:, :m] + math.sqrt(0.75) * y[:, :m]
    return np.hstack([x, y])


def _trials(kind: str, n: int, p: int, q: int, trials: int, perms: int = 200) -> int:
    count = 0
    for index in range(trials):
        rng = np.random.default_rng([20160125, index])
        values = _data(kind, n, p, q, rng)
        x, y = values[:, :p], values[:, p:]
        cross = (x.T @ y) / n
        observed = float(np.sum(cross * cross))
        for _ in range(perms):
            cross = (x.T @ y[rng.permutation(n)]) / n
            count += float(np.sum(cross * cross)) >= observed
    return count


LOOPS = {
    "setup": lambda: _trials("null", 50, 5, 5, 2) + _trials("lf", 200, 50, 50, 1),
    "mc_level": lambda: _trials("null", 50, 5, 5, 5),
    "mc_lf": lambda: _trials("lf", 200, 50, 50, 2),
    "mc_signal": lambda: _trials("phase", 200, 10, 10, 4),
}


def calibrate(kind: str) -> float | None:
    """Seconds the reference loop for ``kind`` takes now; None if it has none."""
    if kind not in LOOPS:
        return None
    start = time.perf_counter()
    LOOPS[kind]()
    return time.perf_counter() - start
