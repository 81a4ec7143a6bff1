"""Permutation-calibrated cross-covariance tests and power experiments.

The statistic is the squared Frobenius norm ||X'Y / n||_F^2 of the empirical
cross-covariance between the mean-zero X and Y blocks, calibrated by
permuting the Y rows.  One kernel,
``_stats``, computes it for a stack of row permutations of Y; the observed
statistic is the identity permutation's row of the test's first product, so
that a drawn identity permutation ties with it exactly.  Power experiments
average over freshly drawn sign directions, estimating the power against the
uniform mixture alternative.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .structured_cov import (
    Dataset,
    amplitude,
    positive_definite,
    random_signs,
    sample_dataset,
    sample_direction,
)


# Permutations evaluated per matrix product, and the cap on the bytes the
# chunk's permuted Y rows and cross-covariances may take.  Sixteen keeps the
# Python overhead per permutation small while a sequential decision wastes at
# most fifteen statistics past its stopping point.
PERM_CHUNK = 16
PERM_BUFFER_BYTES = 1 << 27


@dataclass(frozen=True)
class TestDecision:
    """Outcome of one permutation test.

    ``permutations`` is the number of permuted statistics evaluated: B for the
    full test.  A sequential test (``stop_early=True``) stops once its verdict
    is fixed, so it reports fewer and its ``p_value`` is NaN; its ``reject``
    equals the full test's.
    """

    statistic: float
    p_value: float
    reject: bool
    permutations: int


@dataclass(frozen=True)
class PowerEstimate:
    trials: int
    rejections: int
    estimate: float
    ci_low: float
    ci_high: float
    regime: str
    permutations: int  # permuted statistics evaluated over all trials

    @property
    def mean_permutations(self) -> float:
        return self.permutations / self.trials


def _stats(xt: np.ndarray, y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The statistic at each row permutation of Y in ``rows`` (k x n): one
    stacked product of X' with the gathered rows, then an in-place divide by
    n and square and one sum per permutation.  The statistic's one
    implementation."""
    cross = np.matmul(xt, y.take(rows, axis=0))
    cross /= rows.shape[1]
    cross *= cross
    return np.add.reduce(cross.reshape(len(rows), -1), axis=1)


def cross_cov_stat(ds: Dataset) -> float:
    """Squared Frobenius norm ||X'Y / n||_F^2 of the empirical cross-covariance
    of mean-zero X and Y.

    The kernel ``_stats`` at the identity permutation, so it equals bit for
    bit the observed statistic that ``permutation_test`` reads off its first
    product.
    """
    return float(_stats(ds.x.T, ds.y, np.arange(ds.n)[None])[0])


def rejection_limit(B: int, alpha: float) -> int:
    """Largest count c with (1 + c) / (B + 1) <= alpha, or -1 if there is none.

    Evaluates the p-value expression itself, so ``count <= limit`` agrees bit
    for bit with ``p_value <= alpha`` at every count 0..B.
    """
    c = min(max(math.floor(alpha * (B + 1)) - 1, -1), B)
    while c < B and (2 + c) / (B + 1) <= alpha:
        c += 1
    while c >= 0 and (1 + c) / (B + 1) > alpha:
        c -= 1
    return c


def perm_chunk_size(n: int, p: int, q: int) -> int:
    """Permutations per product: PERM_CHUNK, fewer if the first product, which
    also holds the identity, would exceed PERM_BUFFER_BYTES, never less than
    one."""
    per_perm = 8 * q * (n + p)  # permuted Y rows plus the p x q product
    return max(1, min(PERM_CHUNK, PERM_BUFFER_BYTES // per_perm - 1))


def _stat_chunks(ds: Dataset, B: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The observed statistic and the B permuted ones, one array per product.

    The first array leads with the identity permutation's row: the observed
    statistic, from the same kernel call as the chunk's permuted statistics.
    Each chunk's permutations come from one in-place ``rng.permuted`` shuffle
    of rows of ``arange(n)``: row by row the same Fisher-Yates stream as one
    ``rng.permutation(n)`` per statistic, so the permutations and the
    generator state after them are the same bit for bit.  A chunk is drawn
    only when it is requested, so a caller that stops early leaves the
    remaining draws unmade.  Each permuted statistic is bitwise equal to the
    one-product-per-permutation loop (``oracles.permuted_stats_loop``).
    """
    xt, y = ds.x.T, ds.y
    n = ds.n
    chunk = perm_chunk_size(n, ds.p, ds.q)
    identity = np.arange(n)
    rows = np.empty((min(chunk, B) + 1, n), dtype=identity.dtype)
    rows[0] = identity
    head = 0  # the first product starts at the identity row, the rest after it
    for start in range(0, B, chunk):
        perms = rows[1:1 + min(chunk, B - start)]
        perms[...] = identity
        rng.permuted(perms, axis=1, out=perms)
        yield _stats(xt, y, rows[head:1 + len(perms)])
        head = 1


def permutation_test(
    ds: Dataset,
    B: int,
    alpha: float,
    rng: np.random.Generator,
    stop_early: bool = False,
) -> TestDecision:
    """Permutation calibration: permute Y rows B times, X fixed.

    p = (1 + #{permuted >= observed}) / (B + 1), which is exactly level alpha
    under row exchangeability.  The observed statistic is the identity's row
    of the first product, so a drawn identity permutation ties with it.  With
    ``stop_early`` the test is sequential (Besag & Clifford 1991): it stops
    after the first chunk at which the count already exceeds the rejection
    limit (accept) or can no longer reach it (reject).  The decision is the
    full test's; see ``TestDecision``.
    """
    if B < 19:
        raise ValueError("need at least 19 permutations")
    limit = rejection_limit(B, alpha)
    chunks = _stat_chunks(ds, B, rng)
    observed = None
    count = 0
    done = 0
    while done < B and not (stop_early and (count > limit or count + B - done <= limit)):
        stats = next(chunks)
        if observed is None:
            observed, stats = float(stats[0]), stats[1:]
        count += int(np.count_nonzero(stats >= observed))
        done += len(stats)
    if observed is None:  # decided before the first product
        observed = cross_cov_stat(ds)
    if stop_early:
        return TestDecision(statistic=observed, p_value=math.nan, reject=count <= limit, permutations=done)
    p_value = (1 + count) / (B + 1)
    return TestDecision(statistic=observed, p_value=p_value, reject=p_value <= alpha, permutations=B)


def wilson_interval(rejections: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 95%)."""
    if trials < 1:
        raise ValueError("trials must be positive")
    phat = rejections / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if rejections == 0 else max(center - half, 0.0)
    hi = 1.0 if rejections == trials else min(center + half, 1.0)
    return lo, hi


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    # Independent stream per trial: deterministic in (seed, index) only, so
    # results do not depend on execution order or parallelism.
    return np.random.default_rng([seed, index])


# Data generators for the trial runner: module-level so that they pickle by
# name for the process pool.  Each draws from the trial's rng before the
# permutation test does, in a fixed order.
def _null_data(rng: np.random.Generator, n: int, p: int, q: int) -> Dataset:
    return sample_dataset(None, n, rng, p=p, q=q)


def _lf_data(rng: np.random.Generator, n: int, p: int, q: int, a: float) -> Dataset:
    lf = sample_direction(p, q, rng, a=a)
    return sample_dataset(lf, n, rng)


def _phase_data(rng: np.random.Generator, n: int, p: int, q: int, sigma: float) -> Dataset:
    m = min(p, q)
    # Canonical-correlation alternative: m coordinate pairs with correlation
    # sigma (random sign per pair per trial), remaining coordinates standard
    # normal.  Cross-covariance Frobenius norm is sigma * sqrt(m); PD for any
    # sigma < 1, which reaches signal levels the rank-two sign family cannot.
    signs = random_signs(rng, m)
    x = rng.standard_normal((n, p))
    y = rng.standard_normal((n, q))
    y[:, :m] = signs * sigma * x[:, :m] + math.sqrt(1.0 - sigma * sigma) * y[:, :m]
    return Dataset(values=np.hstack([x, y]), p=p, q=q)


def _trial(args) -> tuple[bool, int]:
    """One Monte-Carlo trial: (reject, permuted statistics evaluated)."""
    generate, params, seed, index, B, alpha = args
    rng = _trial_rng(seed, index)
    dec = permutation_test(generate(rng, *params), B, alpha, rng, stop_early=True)
    return dec.reject, dec.permutations


def _process_pool(workers: int):
    """A pool of ``workers`` processes.  Imported here, so that a serial run
    never loads ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _tally(results) -> tuple[int, int]:
    """(rejections, permuted statistics) summed over trial results as they come."""
    rej = perms = 0
    for reject, k in results:
        rej, perms = rej + reject, perms + k
    return rej, perms


def _estimate(generate, params: tuple, trials: int, B: int, alpha: float, seed: int,
              workers: int, regime: str) -> PowerEstimate:
    """Rejection rate over ``trials`` trials on data from ``generate(rng, *params)``;
    each trial's arguments are made, and its result summed, as the trial runs."""
    args = ((generate, params, seed, i, B, alpha) for i in range(trials))
    workers = min(workers, os.cpu_count() or 1, trials)
    if workers <= 1:
        rej, perms = _tally(map(_trial, args))
    else:
        with _process_pool(workers) as pool:
            rej, perms = _tally(pool.map(_trial, args, chunksize=32))
    lo, hi = wilson_interval(rej, trials)
    return PowerEstimate(trials, rej, rej / trials, lo, hi, regime, perms)


def _check_problem(n: int, p: int, q: int, B: int, alpha: float) -> None:
    """The estimators' shared check, made before any dataset or process pool;
    NaN fails it."""
    if not (n >= 1 and p >= 1 and q >= 1):
        raise ValueError(f"n, p, q must be positive integers, got {n}, {p}, {q}")
    if not B >= 19:
        raise ValueError("need at least 19 permutations")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")


def estimate_level(
    n: int, p: int, q: int, trials: int, B: int, seed: int, alpha: float = 0.05, workers: int = 1
) -> PowerEstimate:
    """Empirical type-I error over fresh null datasets."""
    _check_problem(n, p, q, B, alpha)
    return _estimate(_null_data, (n, p, q), trials, B, alpha, seed, workers, "null")


def estimate_avg_power(
    n: int, p: int, q: int, b: float, trials: int, B: int, seed: int, alpha: float = 0.05,
    workers: int = 1,
) -> PowerEstimate:
    """Power against the sign-mixture alternative at signal constant b, fresh
    (u, v) per trial; b = 0 is the null."""
    _check_problem(n, p, q, B, alpha)
    if not b >= 0:
        raise ValueError(f"b must be nonnegative, got {b}")
    if b == 0.0:
        return _estimate(_null_data, (n, p, q), trials, B, alpha, seed, workers, "null")
    a = amplitude(n, p, q, b)
    if not positive_definite(p, q, a):
        raise ValueError("a^2 p q >= 1: alternative covariance not positive definite")
    return _estimate(_lf_data, (n, p, q, a), trials, B, alpha, seed, workers,
                     f"least_favorable(b={b:g})")


def phase_curve(
    n: int, p: int, q: int, signal_grid: list[float], trials: int, B: int, seed: int,
    alpha: float = 0.05, workers: int = 1,
) -> list[tuple[float, PowerEstimate]]:
    """Power along the dimensionless signal axis s = n ||Sigma_XY||_F^2 / sqrt(pq).

    The alternative at signal s puts correlation sigma = sqrt(s sqrt(pq) /
    (n min(p,q))) on min(p,q) coordinate pairs with a fresh random sign
    pattern per trial, so the cross-covariance Frobenius norm follows the
    requested scaling exactly.  Positive definiteness requires sigma < 1,
    i.e. s < n min(p,q) / sqrt(pq); the rank-two sign family cannot reach
    large s at all, which is why this generator differs from the one used for
    the lower-bound experiments.
    """
    _check_problem(n, p, q, B, alpha)
    m = min(p, q)
    points = []  # (generator, parameters) per s, all checked before any trial runs
    for s in signal_grid:
        if not s >= 0:
            raise ValueError("signal values must be nonnegative")
        if s == 0.0:
            points.append((_null_data, (n, p, q)))
            continue
        sigma_sq = s * math.sqrt(p * q) / (n * m)
        if sigma_sq >= 1.0:
            raise ValueError(
                f"s = {s:g} needs per-pair correlation^2 = {sigma_sq:.3g} >= 1: not attainable"
            )
        points.append((_phase_data, (n, p, q, math.sqrt(sigma_sq))))
    # seed + 1000003 * idx: disjoint per-point streams.
    return [(s, _estimate(generate, params, trials, B, alpha, seed + 1000003 * idx, workers, f"s={s:g}"))
            for idx, (s, (generate, params)) in enumerate(zip(signal_grid, points))]


def scenario_regression(
    coefficients: np.ndarray, n: int, rng: np.random.Generator, noise: float = 1.0,
    sigma_x: np.ndarray | None = None,
) -> Dataset:
    """Linear-model data: X ~ N(0, Sigma_X), Y = X beta + noise N(0, 1), q = 1;
    Sigma_X is the identity when ``sigma_x`` is None."""
    beta = np.asarray(coefficients, float)
    p = beta.size
    if not noise > 0:
        raise ValueError(f"noise standard deviation must be positive, got {noise}")
    sx = None if sigma_x is None else np.asarray(sigma_x, float)
    if sx is not None and (sx.shape != (p, p) or not np.all(np.linalg.eigvalsh(sx) > 0)):
        raise ValueError(f"sigma_x must be a positive definite {p} x {p} matrix")
    x = rng.standard_normal((n, p))
    if sx is not None:
        x = x @ np.linalg.cholesky(sx).T
    y = x @ beta + noise * rng.standard_normal(n)
    return Dataset(values=np.hstack([x, y[:, None]]), p=p, q=1)


def scenario_two_sample(
    mu1: np.ndarray, mu2: np.ndarray, n: int, rng: np.random.Generator
) -> Dataset:
    """Two-group mixture: W ~ Ber(1/2), X ~ N(mu_W, I), Y = 2W - 1."""
    mu1 = np.asarray(mu1, float)
    mu2 = np.asarray(mu2, float)
    if mu1.shape != mu2.shape or mu1.ndim != 1:
        raise ValueError("mu1 and mu2 must be equal-length vectors")
    p = mu1.size
    w = rng.integers(0, 2, size=n)
    means = np.where(w[:, None] == 1, mu1[None, :], mu2[None, :])
    x = means + rng.standard_normal((n, p))
    y = (2 * w - 1).astype(float)
    return Dataset(values=np.hstack([x, y[:, None]]), p=p, q=1)
