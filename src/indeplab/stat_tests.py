"""Permutation-calibrated cross-covariance tests and power experiments.

The statistic is the squared Frobenius norm ||X'Y / n||_F^2 of the empirical
cross-covariance between the mean-zero X and Y blocks, calibrated by
permuting the Y rows.  One kernel, ``_stats``, computes it for a stack of row
permutations of Y; ``permutation_test`` runs the one loop of such products,
and the observed statistic is the identity permutation's row of its first
product, so that a drawn identity permutation ties with it exactly.  Power
experiments average over freshly drawn sign directions, estimating the power
against the uniform mixture alternative.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .structured_cov import (
    Dataset,
    amplitude,
    positive_definite,
    random_signs,
    sample_dataset,
    sample_direction,
)


# The most permutations one matrix product holds, and the cap on the bytes the
# product's permuted Y rows and cross-covariances may take.  Sixteen keeps the
# Python overhead per permutation small; a sequential test sizes its products
# down to where its verdict could be fixed, never below its work floor.
PERM_CHUNK = 16
PERM_BUFFER_BYTES = 1 << 27
# The fewest multiply-adds a sequential test's product holds.  Sizing a
# product down to the stopping point saves statistics but adds products, each
# with about 12 us of fixed cost (2-core x86, one BLAS thread).  Measured there
# at B = 200 and alpha = 0.05, against products of 16: at (n, p, q) =
# (200, 10, 10), 22,000 multiply-adds per statistic, every smaller floor was
# 6% to 25% slower on null data and 5% to 14% on data that rejects; at
# (200, 20, 20), 84,000, floors of 4 to 8 were 2% to 4% faster and a floor of
# 1 was 4% slower; at (200, 50, 50), 510,000, floors of 1 to 4 were 16% to 18%
# faster on null data.  2^20 gives these shapes floors of 48 (so 16), 13 and 3.
PERM_MIN_WORK = 1 << 20


@dataclass(frozen=True)
class TestDecision:
    """Outcome of one permutation test.

    ``permutations`` is the number of permuted statistics evaluated: B for the
    full test.  A sequential test (``stop_early=True``) stops once its verdict
    is fixed, so it reports fewer and its ``p_value`` is NaN; its ``reject``
    equals the full test's.  It sizes its products by ``permutation_test``'s
    rule, so it evaluates fewer than min(``perm_work_floor``,
    ``perm_chunk_size``) past the first statistic at which the verdict is
    fixed.
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
    """The most permutations one of ``permutation_test``'s products holds:
    PERM_CHUNK, fewer if the first product, which also holds the identity,
    would exceed PERM_BUFFER_BYTES, never less than one.  The full test's
    every product but the last holds this many."""
    per_perm = 8 * q * (n + p)  # permuted Y rows plus the p x q product
    return max(1, min(PERM_CHUNK, PERM_BUFFER_BYTES // per_perm - 1))


def perm_work_floor(n: int, p: int, q: int) -> int:
    """The fewest permutations a sequential test's product holds: enough that
    the product makes PERM_MIN_WORK multiply-adds, at n q (p + 1) per permuted
    statistic (the product and its squares), and at least one."""
    return -(-PERM_MIN_WORK // (n * q * (p + 1)))


def permutation_test(
    ds: Dataset,
    B: int,
    alpha: float,
    rng: np.random.Generator,
    stop_early: bool = False,
) -> TestDecision:
    """Permutation calibration: permute Y rows B times, X fixed.

    p = (1 + #{permuted >= observed}) / (B + 1), which is exactly level alpha
    under row exchangeability.  One loop evaluates the statistics a stacked
    product at a time; the first product leads with the identity's row, the
    observed statistic, so a drawn identity permutation ties with it.  With
    ``stop_early`` the test is sequential (Besag & Clifford 1991): it stops
    after the first product at which the count already exceeds the rejection
    limit (accept) or can no longer reach it (reject).

    Each product holds k = min(cap, B - done, max(floor, need)) permutations,
    with cap = ``perm_chunk_size`` and need = min(limit + 1 - count,
    B - done - limit + count), the fewest further statistics that could fix
    the verdict; floor is ``perm_work_floor`` when sequential, else cap.  The
    k permutations are one in-place ``rng.permuted`` shuffle of rows of
    ``arange(n)``: row by row the Fisher-Yates stream of one
    ``rng.permutation(n)`` per statistic, so the draws and the generator
    state after them are the same whatever the sizes, and a test that stops
    leaves the rest undrawn.  Each permuted statistic is bitwise that of the
    one-product-per-permutation loop (``oracles.permuted_stats_loop``).  The
    decision is the full test's; see ``TestDecision``.
    """
    if B < 19:
        raise ValueError("need at least 19 permutations")
    limit = rejection_limit(B, alpha)
    xt, y, n = ds.x.T, np.ascontiguousarray(ds.y), ds.n  # take gathers faster from contiguous rows
    cap = perm_chunk_size(n, ds.p, ds.q)
    floor = perm_work_floor(n, ds.p, ds.q) if stop_early else cap
    identity = np.arange(n)
    rows = np.empty((min(cap, B) + 1, n), dtype=identity.dtype)
    rows[0] = identity
    observed = None
    count = done = 0
    while done < B and not (stop_early and (count > limit or count + B - done <= limit)):
        k = min(cap, B - done, max(floor, min(limit + 1 - count, B - done - limit + count)))
        perms = rows[1:1 + k]
        perms[...] = identity
        rng.permuted(perms, axis=1, out=perms)
        if done:
            stats = _stats(xt, y, perms)
        else:
            stats = _stats(xt, y, rows[:1 + k])
            observed, stats = float(stats[0]), stats[1:]
        count += int(np.count_nonzero(stats >= observed))
        done += k
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


# numpy's SeedSequence hash (a pool of four 32-bit words) as PCG64 runs it to
# seed ``default_rng([seed, i])``, vectorized over a batch of trials i.  The
# hash constants do not depend on the entropy: ``_HASH_A`` chains them through
# the 16 hashmix calls that fill and mix the pool, ``_HASH_B`` through the 8
# words ``generate_state(4, np.uint64)`` makes of it.
def _constant_chain(init: int, mult: int, calls: int) -> np.ndarray:
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, np.uint32)[:, None]


_HASH_A = _constant_chain(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _constant_chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHER_WORDS = [[dst for dst in range(4) if dst != src] for src in range(4)]


def _hashmix(words: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of ``words`` at each call whose constant goes from
    ``consts[k]`` to ``consts[k + 1]``, one row per call."""
    words = (words ^ consts[:-1]) * consts[1:]
    words ^= words >> 16
    return words


@functools.cache
def _state_words() -> type:
    """A seed sequence type that hands PCG64 the words a SeedSequence would,
    computed beforehand.  Made at first use, so that importing the package
    does not import ``numpy.random`` (about 13 ms)."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _trial_rngs(seed: int, start: int, count: int) -> list[np.random.Generator]:
    """The generators of trials start..start + count - 1, each bitwise
    ``np.random.default_rng([seed, i])``: an independent stream per trial,
    deterministic in (seed, i) only, so results do not depend on execution
    order or parallelism.  The batch is hashed at once; a seed of four or
    more 32-bit words, or an i of two, overflows the pool of four and takes
    ``default_rng`` itself."""
    seed = int(seed)
    if seed >= 1 << 96 or start + count > 1 << 32:
        return [np.random.default_rng([seed, i]) for i in range(start, start + count)]
    words = [seed >> k & 0xFFFFFFFF for k in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((4, count), np.uint32)  # [seed words, i], zero-padded
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = np.arange(start, start + count, dtype=np.uint64)
    pool = _hashmix(entropy, _HASH_A[:5])
    for src, dst in enumerate(_OTHER_WORDS):
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], _HASH_A[4 + 3 * src:8 + 3 * src]) * _MIX_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B)
    state_words = _state_words()
    return [np.random.Generator(np.random.PCG64(state_words(words)))
            for words in np.ascontiguousarray(state.T, "<u4").view("<u8").astype(np.uint64)]


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
    generate, params, rng, B, alpha = args
    dec = permutation_test(generate(rng, *params), B, alpha, rng, stop_early=True)
    return dec.reject, dec.permutations


def _process_pool(workers: int):
    """A pool of ``workers`` processes.  Imported here, so that a serial run
    never loads ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _trials(batch: tuple) -> list[tuple[bool, int]]:
    """The results of trials start..start + count - 1 of a batch descriptor
    (generate, params, seed, start, count, B, alpha), in order: the one unit
    of work of the serial loop and of a pool process."""
    generate, params, seed, start, count, B, alpha = batch
    return [_trial((generate, params, rng, B, alpha)) for rng in _trial_rngs(seed, start, count)]


def _pooled(pool, batches, workers: int):
    """Trial results from ``pool``, in order, with at most 2 x ``workers``
    batches submitted and not yet read, so that the arguments and results
    held do not grow with the number of trials."""
    pending = deque(pool.submit(_trials, batch) for batch in islice(batches, 2 * workers))
    while pending:
        results = pending.popleft().result()
        pending.extend(pool.submit(_trials, batch) for batch in islice(batches, 1))
        yield from results


def _tally(results) -> tuple[int, int]:
    """(rejections, permuted statistics) summed over trial results as they come."""
    rej = perms = 0
    for reject, k in results:
        rej, perms = rej + reject, perms + k
    return rej, perms


def _estimate(generate, params: tuple, trials: int, B: int, alpha: float, seed: int,
              workers: int, regime: str) -> PowerEstimate:
    """Rejection rate over ``trials`` trials on data from ``generate(rng, *params)``,
    run in batches of 32; each batch's descriptor is made, and its results
    summed, as the batch runs."""
    batches = ((generate, params, seed, start, min(32, trials - start), B, alpha)
               for start in range(0, trials, 32))
    workers = min(workers, os.cpu_count() or 1, trials)
    if workers <= 1:
        rej, perms = _tally(chain.from_iterable(map(_trials, batches)))
    else:
        with _process_pool(workers) as pool:
            rej, perms = _tally(_pooled(pool, batches, workers))
    lo, hi = wilson_interval(rej, trials)
    return PowerEstimate(trials, rej, rej / trials, lo, hi, regime, perms)


def _check_problem(n: int, p: int, q: int, B: int, alpha: float, seed: int) -> None:
    """The estimators' shared check, made before any dataset or process pool;
    NaN fails it.  The seed must be an integer that SeedSequence takes; its
    errors carry SeedSequence's messages."""
    if not (n >= 1 and p >= 1 and q >= 1):
        raise ValueError(f"n, p, q must be positive integers, got {n}, {p}, {q}")
    if not B >= 19:
        raise ValueError("need at least 19 permutations")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    if not isinstance(seed, (int, np.integer)):
        raise TypeError("seed must be integer")
    if seed < 0:
        raise ValueError("expected non-negative integer")


def estimate_level(
    n: int, p: int, q: int, trials: int, B: int, seed: int, alpha: float = 0.05, workers: int = 1
) -> PowerEstimate:
    """Empirical type-I error over fresh null datasets."""
    _check_problem(n, p, q, B, alpha, seed)
    return _estimate(_null_data, (n, p, q), trials, B, alpha, seed, workers, "null")


def estimate_avg_power(
    n: int, p: int, q: int, b: float, trials: int, B: int, seed: int, alpha: float = 0.05,
    workers: int = 1,
) -> PowerEstimate:
    """Power against the sign-mixture alternative at signal constant b, fresh
    (u, v) per trial; b = 0 is the null."""
    _check_problem(n, p, q, B, alpha, seed)
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
    _check_problem(n, p, q, B, alpha, seed)
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
