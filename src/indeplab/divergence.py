"""Exact chi-square divergence of the sign-mixture alternative from the null.

The mixture P1 averages N(0, Sigma_uv) over all 2^(p+q) sign patterns; P0 is
N(0, I).  The n-sample chi-square divergence reduces to a double binomial sum

    chi2 = E_{U,V}[(1 - a^2 U V)^(-n)] - 1

over U = sum of p signs, V = sum of q signs, which this module evaluates,
together with the closed-form upper bound 4 b^2 log4 / (1 - b^2 log4) and the
induced total-variation and power bounds.

Moment series.  Expanding (1 - x)^(-n) = sum_j C(n+j-1, j) x^j, the odd
moments of the symmetric U and V drop out:

    chi2 = sum_{k>=1} t_k,   t_k = C(n+2k-1, 2k) (a^4 pq)^k m_k(p) m_k(q),

with m_k(d) = E[(U^2/d)^k].  Every term is positive, so nothing cancels, not
even at tiny b.  E[U^2k] = sum_{j<=min(k,d)} (d)_j (2j-1)!! T(2k, 2j), with
T the central factorial numbers, is an integer, and one int / int division
by d^k rounds m_k correctly.  The remainder is bounded through the moment
ratio m_{k+1}/m_k <= min(2k+1, d): U^2 <= d^2, and Stein's identity for one
sign, E[eps f(W + eps)] = E[f'(W + t)] with t uniform on [-1, 1], where t is
convex-dominated by a sign, gives E[U^(2k+2)] <= (2k+1) d E[U^2k].  Hence
t_{k+1}/t_k <= r(k) = a^4 pq (n+2k+1)(n+2k) / ((2k+2)(2k+1))
min(2k+1, p) min(2k+1, q), and with R_K = max_{k>=K} r(k) < 1 the terms after
t_K sum to at most t_K R_K / (1 - R_K).  The series is taken at the first K
where that bound is at most 2^-60 of the partial sum, within _MAX_TERMS terms,
and left for the grid once log-convexity of the moments proves that no such K
remains (``_cannot_certify``).

Grid.  Where the series cannot be certified (a^2 pq near 1, or b far above
its caps), the double sum runs over the (p+1) x (q+1) support grid, in tiles
of TILE x TILE cells.  Each term is w expm1(e), e = -n log1p(-a^2 U V), or
exp(log w + e) (-expm1(-e)) for e > 700, so that a tiny w keeps w e^e finite;
log w adds two rows of log(C(d, k) 2^-d) from lgamma tables.  A tile that
cannot matter is skipped, by a bound read off its corners: x = a^2 U V is
bilinear, so over the tile its extremes sit at two of the four corners;
|expm1(e(x))| falls on x < 0 and rises on x > 0, so its largest value sits
at an extreme of x.  The tile's sum of w |expm1(e)| is then at most its row
weight mass times its column weight mass times that corner peak; a factor 2,
and a relative slack on the corners' x, cover float error.  A tile whose
bound is at most 2^-72 L / (tile count) is skipped; L is a lower bound on
chi2, the larger of t_1 = n(n+1)/2 a^4 pq and
2^(1-p-q) ((1-c^2)^-n + (1+c^2)^-n - 2), c^2 = a^2 pq (the four corners;
every other pair (U, V), (U, -V) adds f(x) + f(-x) - 2 >= 0 by convexity).
So the skipped cells weigh at most 2^-71 chi2.  A total beyond the largest
double raises OverflowError.

Admission.  chi2 is finite, the MGF valid (t * gamma peaks at 2c / (1 + c),
c = |a| sqrt(pq)) and Sigma_uv positive definite all exactly when c < 1;
``structured_cov.positive_definite`` decides it for every command, and its
clause a^2 pq < 1 keeps the grid corner's log1p(-a^2 p q) finite.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .structured_cov import amplitude, positive_definite

LOG2 = math.log(2.0)
LOG4 = math.log(4.0)

# Rows and columns per tile of the support grid, the unit that the grid skips
# or reads.  A tile's float temporaries (32 KiB each) stay in cache.
TILE = 64
# Relative margin on the corner values a^2 U V of the tile bounds (_log_tile_peaks).
_BOUND_SLACK = 2.0**-40
# Terms of the moment series tried before the grid takes over.  At the
# benchmark's points the series stops after at most 18.
_MAX_TERMS = 60


class DivergenceInfiniteError(ValueError):
    """The defining Gaussian integral diverges: a^2 pq < 1 fails ``positive_definite``."""


@dataclass(frozen=True)
class DivergenceReport:
    """Chi-square divergence with the full chain of derived bounds.  ``pd_ok``
    is ``positive_definite``, which decides MGF validity too.  ``tv_upper`` =
    sqrt(chi2) / 2 and ``power_upper`` are not clipped: above 1 they hold
    vacuously."""

    chi2_exact: float
    chi2_closed_bound: float
    tv_upper: float
    power_upper: float
    pd_ok: bool
    b_caps_ok: bool


@dataclass(frozen=True)
class GammaQuad:
    """The four quadratic-form eigenvalues for one (u'g, v'h) configuration,
    or arrays of them, elementwise, for array arguments."""

    gammas: tuple[float, float, float, float]
    t: float


def gamma_eigs(a, p, q, ug, vh) -> GammaQuad:
    """Closed-form eigenvalues of the 4x4 coupled quadratic form.

    gamma_ij = (1/2)(-2apq + (-1)^i a q ug + (-1)^i a p vh - (-1)^j sqrt(R)),
    with the discriminant R depending on i.  Inputs must satisfy |ug| <= p,
    |vh| <= q and the parity constraints ug = p (mod 2), vh = q (mod 2).
    Arguments may be arrays of configurations (broadcast together); each
    gamma and t is then an array, with the same bits per element as the
    scalar call.
    """
    if np.any(np.abs(ug) > p) or np.any(np.abs(vh) > q):
        raise ValueError("|ug| <= p and |vh| <= q required")
    if np.any((ug - p) % 2 != 0) or np.any((vh - q) % 2 != 0):
        raise ValueError("ug, vh must match the parity of p, q")
    gammas = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for si in (1.0, -1.0):
            trace = -2.0 * a * p * q + si * a * q * ug + si * a * p * vh
            # The pair (gamma_i0, gamma_i1) solves x^2 - trace*x + prod = 0.  The
            # product factors exactly, and the discriminant equals the expanded
            # polynomial 4pq - (-1)^i 4q(u'g) + ...; evaluating it as
            # trace^2 - 4 prod avoids catastrophic cancellation near zero roots.
            prod = (p - si * ug) * (q - si * vh) * (a * a * p * q - 1.0)
            R = trace * trace - 4.0 * prod
            # Tolerate rounding at a double root; anything larger is an
            # internal inconsistency.
            if np.any(R <= -1e-9 * np.maximum(1.0, 4.0 * p * q)):
                raise ArithmeticError(f"negative discriminant R = {np.min(R):.4g} (internal inconsistency)")
            root = np.sqrt(np.where(R < 0, 0.0, R))
            lo = 0.5 * (trace - root)
            hi = 0.5 * (trace + root)
            # Small-magnitude root through the product, large one directly.
            lo, hi = (np.where((trace >= 0.0) & (hi != 0.0), prod / hi, lo),
                      np.where((trace < 0.0) & (lo != 0.0), prod / lo, hi))
            gammas.extend([lo[()], hi[()]])
        denom = 1.0 - p * q * a * a
        t = np.where(denom > 0, a / denom, math.inf)[()]
    return GammaQuad(gammas=tuple(gammas), t=t)


def mgf_validity(a: float, p: int, q: int) -> bool:
    """True iff t * gamma_ij < 1 for every achievable (ug, vh) configuration:
    the largest, 2c / (1 + c) with c = |a| sqrt(pq), is below 1 exactly when
    Sigma_uv is positive definite, so ``positive_definite`` decides it.
    ``oracles.gamma_grid`` is the reference for the 2c / (1 + c) maximum.
    """
    return bool(positive_definite(p, q, a))


@functools.cache
def _central_factorials() -> tuple[tuple[int, ...], ...]:
    """Rows k = 0.._MAX_TERMS of the central factorial numbers T(2k, 2j), j = 0..k:
    T(0, 0) = 1 and T(2k, 2j) = T(2k-2, 2j-2) + j^2 T(2k-2, 2j)."""
    rows = [(1,)]
    for k in range(1, _MAX_TERMS + 1):
        prev = rows[-1] + (0,)
        rows.append(tuple((prev[j - 1] if j else 0) + j * j * prev[j] for j in range(k + 1)))
    return tuple(rows)


def _moments(d: int) -> Iterator[float]:
    """m_k(d) = E[(U^2/d)^k] for k = 1.._MAX_TERMS, U a sum of d signs, each correctly rounded.

    E[U^2k] = sum_j (d)_j (2j-1)!! T(2k, 2j) in integers; CPython rounds the
    int / int quotient by d^k correctly.
    """
    falling = [1]  # (d)_j (2j-1)!!, j = 0..min(k, d)
    for k, row in enumerate(_central_factorials()[1:], start=1):
        if k <= d:
            falling.append(falling[-1] * (d - k + 1) * (2 * k - 1))
        yield sum(map(operator.mul, falling, row)) / d**k


def _ratio_bound(n: int, p: int, q: int, a4pq: float, K: int, scale: int = 1) -> float:
    """R_K = max_{k>=K} r(k), where r(k) bounds the series' term ratio t_{k+1}/t_k.

    r(k) = a^4 pq (n+2k+1)(n+2k) / ((2k+2)(2k+1)) min(2k+1, p) min(2k+1, q)
    increases while 2k+1 <= min(p, q); between min(p, q) and max(p, q) it is
    a^4 pq min(p, q) (x + 2n - 3 + (n-1)(n-2)/x), x = 2k+2, convex in k; past
    max(p, q) it does not increase.  So its largest value at k >= K sits at K
    or at an end of one of those three pieces.  With ``scale`` = n, a4pq holds
    n^2 a^4 pq and each factor n + j enters as (n + j) / n.
    """
    def r(k: int) -> float:
        return (a4pq * ((n + 2 * k + 1) / scale) * ((n + 2 * k) / scale)
                / ((2 * k + 2) * (2 * k + 1)) * min(2 * k + 1, p) * min(2 * k + 1, q))

    ends = ((min(p, q) - 1) // 2, (max(p, q) - 1) // 2)
    return max(r(k) for k in (K, *ends, *(e + 1 for e in ends)) if k >= K)


def _cannot_certify(n: int, a4pq: float, scale: int, k: int, term: float, total_max: float,
                    growth: float, tail: float) -> bool:
    """True if provably no term j in (k, _MAX_TERMS] of the series certifies.

    Moments are log-convex: X = U^2/d >= 0 gives E[X^i]^2 <= E[X^(i-1)]
    E[X^(i+1)] by Cauchy-Schwarz, so m_(i+1)/m_i does not decrease in i, and
    for i >= k the term ratio t_(i+1)/t_i is at least a^4 pq (n+2i+1)(n+2i) /
    ((2i+2)(2i+1)) g, with g = m_k(p) m_k(q) / (m_(k-1)(p) m_(k-1)(q)), the
    ``growth``.  Multiplied out, t_j >= t_k (a^4 pq g)^(j-k) Gamma(n+2j)
    Gamma(2k+1) / (Gamma(n+2k) Gamma(2j+1)), whose log is concave in j (each
    step's factor falls with i), so its least value over (k, _MAX_TERMS] sits
    at an end.  Term j certifies only if t_j R_j / (1 - R_j) <= 2^-60 S_j;
    R_j >= R_(_MAX_TERMS), the ``tail``, as R_K does not increase with K, and
    S_j <= S_k + t_k R_k / (1 - R_k), the ``total_max``.  So if the least
    t_j R_tail / (1 - R_tail) exceeds 2^-60 total_max, no later term
    certifies.  The logs are compared with a margin of a factor 2 for the
    float rounding of the series' own terms, sums and ratios, and 2^-30 of
    the magnitudes of the summed logs for that of lgamma; the tail is taken
    2^-40 low.  False for n >= 2^53, where n + 2j is not exact and lgamma
    may overflow.
    """
    tail -= 2.0**-40
    if tail <= 0.0 or n >= 2**53:
        return False
    step = math.log(a4pq * growth) - 2.0 * math.log(scale)

    def log_term(j: int) -> float:
        parts = (math.log(term), (j - k) * step, math.lgamma(n + 2 * j), -math.lgamma(n + 2 * k),
                 -math.lgamma(2 * j + 1), math.lgamma(2 * k + 1))
        return sum(parts) - 2.0**-30 * sum(map(abs, parts))

    least = min(log_term(k + 1), log_term(_MAX_TERMS)) + math.log(tail / (1.0 - tail))
    return least - LOG2 > math.log(total_max) - 60.0 * LOG2


def _moment_series(n: int, p: int, q: int, a: float) -> float | None:
    """chi2 from the moment series when its remainder is certified below 2^-60
    of the partial sum within _MAX_TERMS terms, else None.

    Below the normal range a^4 pq = b^4 / (4 n^2) loses bits, or all of them
    (at b = 0.196 from n = 1.3e152 on, and all by n = 1e160 at p = q = 3), so
    there the recurrence carries n^2 a^4 pq = b^4 / 4 and takes each factor
    n + j as (n + j) / n.  Every 8 terms the series gives up once
    ``_cannot_certify`` proves that no later term certifies.
    """
    a4pq, scale = (a * a) ** 2 * p * q, 1
    if a4pq < sys.float_info.min:
        a4pq, scale = (n * (a * a)) ** 2 * p * q, n
    # R_K does not increase with K, so this decides whether any K can pass.
    tail = _ratio_bound(n, p, q, a4pq, _MAX_TERMS, scale)
    if tail >= 1.0:
        return None
    coef, total = 1.0, 0.0  # coef = C(n+2k-1, 2k) (a^4 pq)^k
    prev_p = prev_q = 1.0  # m_(k-1)(p), m_(k-1)(q)
    for k, (m_p, m_q) in enumerate(zip(_moments(p), _moments(q)), start=1):
        coef *= a4pq * ((n + 2 * k - 1) / scale) * ((n + 2 * k - 2) / scale) / (2 * k * (2 * k - 1))
        term = coef * m_p * m_q
        total += term
        ratio = _ratio_bound(n, p, q, a4pq, k, scale)
        if ratio < 1.0:
            rest = term * ratio / (1.0 - ratio)
            if rest <= 2.0**-60 * total:
                return total
            growth = m_p / prev_p * (m_q / prev_q)
            if k % 8 == 0 and _cannot_certify(n, a4pq, scale, k, term, total + rest, growth, tail):
                return None
        prev_p, prev_q = m_p, m_q
    return None


def _log_lower_bound(n: int, p: int, q: int, a: float) -> float:
    """log L, L = max(t_1, 2^(1-p-q) ((1-c^2)^-n + (1+c^2)^-n - 2)) <= chi2.

    The corner form is taken through (1+c^2)^-n >= 0, as E + log(1 - 2 e^-E)
    with E = -n log1p(-c^2), and only for E > 1.
    """
    c2 = a * a * p * q
    log_t1 = math.log(0.5 * n * (n + 1.0)) + math.log(c2) + math.log(a * a)
    corner = -n * math.log1p(-c2)
    if corner <= 1.0:
        return log_t1
    return max(log_t1, (1 - p - q) * LOG2 + corner + math.log1p(-2.0 * math.exp(-corner)))


def _log_weights(d: int) -> np.ndarray:
    """log(C(d, k) 2^-d) for k = 0..d, from one table of d+1 lgamma values."""
    lg = np.fromiter(map(math.lgamma, range(1, d + 2)), float, d + 1)
    return lg[d] - lg - lg[::-1] - d * LOG2


def _grid_terms(
    a: float, n: int, Us: np.ndarray, Vs: np.ndarray, logw_p: np.ndarray, logw_q: np.ndarray,
) -> np.ndarray:
    """w expm1(e), e = -n log1p(-a^2 U V), over the grid Us x Vs; where e > 700,
    exp(log w + e) (-expm1(-e)) instead, which stays finite while w e^e does."""
    e = -n * np.log1p(-(a * a * Us[:, None] * Vs[None, :]))
    logw = logw_p[:, None] + logw_q[None, :]
    terms = np.exp(logw) * np.expm1(np.minimum(e, 700.0))
    big = e > 700.0
    if big.any():
        terms[big] = np.exp(logw[big] + e[big]) * -np.expm1(-e[big])
    return terms


def _log_tile_peaks(a: float, n: int, U_ends: tuple, V_ends: tuple) -> np.ndarray:
    """Upper bounds on log |expm1(e)|, e = -n log1p(-a^2 U V), over the tiles of
    rows U_ends[0][i]..U_ends[1][i] and columns V_ends[0][j]..V_ends[1][j], as
    an array indexed [i, j]: the largest max(e, 0) + log(-expm1(-|e|)) at the
    four corners, with a^2 U V raised by _BOUND_SLACK; +inf where that reaches 1."""
    x = np.stack([a * a * U[:, None] * V for U in U_ends for V in V_ends]) * (1.0 + _BOUND_SLACK)
    with np.errstate(divide="ignore"):
        e = -n * np.log1p(-np.minimum(x, 1.0))
        return np.max(np.maximum(e, 0.0) + np.log(-np.expm1(-np.abs(e))), axis=0)


def _grid_sum(n: int, p: int, q: int, a: float) -> float:
    """chi2 as the double sum over the support grid, one TILE x TILE tile at a
    time, skipping the tiles whose bounds are at most 2^-72 L / (tile count)."""
    Us = np.arange(-p, p + 1, 2, dtype=float)
    Vs = np.arange(-q, q + 1, 2, dtype=float)
    # C(d, k) = C(d, d - k), so index k serves both U = d - 2k and U = 2k - d.
    logw_p, logw_q = _log_weights(p), _log_weights(q)
    rows, cols = np.arange(0, p + 1, TILE), np.arange(0, q + 1, TILE)
    # A tile's bound is 2 (row weight mass) (column weight mass) peak.
    log_mass_p = np.logaddexp.reduceat(logw_p, rows)
    log_mass_q = np.logaddexp.reduceat(logw_q, cols) + LOG2
    V_ends = Vs[cols], Vs[np.minimum(cols + TILE, q + 1) - 1]
    log_floor = _log_lower_bound(n, p, q, a) - 72.0 * LOG2 - math.log(rows.size * cols.size)
    # The bounds of as many rows of tiles at once as keep the bound array
    # within one tile's cells, so that it never grows with the tile count.
    step = max(1, TILE * TILE // cols.size)
    total = 0.0
    # Rows of tiles outermost: a cell's bits depend on the order of a^2 U V.
    with np.errstate(over="ignore"):
        for i0 in range(0, rows.size, step):
            r0s = rows[i0:i0 + step]
            U_ends = Us[r0s], Us[np.minimum(r0s + TILE, p + 1) - 1]
            bounds = log_mass_p[i0:i0 + step, None] + log_mass_q + _log_tile_peaks(a, n, U_ends, V_ends)
            for i, j in zip(*np.nonzero(bounds > log_floor)):
                rs, cs = slice(r0s[i], r0s[i] + TILE), slice(cols[j], cols[j] + TILE)
                total += float(np.sum(_grid_terms(a, n, Us[rs], Vs[cs], logw_p[rs], logw_q[cs])))
    return total


def chi_square_exact(n: int, p: int, q: int, b: float) -> float:
    """Exact chi-square divergence E[(1 - a^2 U V)^-n] - 1, by the moment series or the grid.

    chi2 = sum_{k,l} C(p,k) C(q,l) 2^-(p+q) (1 - a^2 (p-2k)(q-2l))^-n  -  1.

    The largest a^2 U V sits at the corner U = p, V = q, which
    ``positive_definite`` keeps below 1.  The moment series
    sum_k C(n+2k-1, 2k) (a^4 pq)^k m_k(p) m_k(q), m_k(d) = E[(U^2/d)^k] from
    exact integers, is taken when its remainder, bounded through
    m_{k+1}/m_k <= min(2k+1, d), is certified below 2^-60 of the partial sum
    (``_moment_series``); its terms are all positive, so even at tiny b the
    result keeps its sign and its digits.  Otherwise the grid sums
    w expm1(e) over the TILE x TILE tiles whose bounds, read off their
    corners, exceed 2^-72 L / (tile count), L a lower bound on chi2, so that
    the skipped cells weigh at most 2^-71 chi2 (``_grid_sum``); near
    a^2 pq -> 1 its error comes from the rounding of -n log1p(-a^2 U V), which
    is ill-conditioned there.  The module docstring gives both proofs.  Raises
    ValueError for a NaN b, DivergenceInfiniteError when ``positive_definite``
    fails and OverflowError if chi2 exceeds a double.
    """
    if math.isnan(b):
        raise ValueError("b must not be NaN")
    if b == 0.0:
        return 0.0
    a = amplitude(n, p, q, b)
    if not positive_definite(p, q, a):
        raise DivergenceInfiniteError(
            "1 - a^2 U V <= 0 at some support point: the integral diverges"
        )
    chi2 = _moment_series(n, p, q, a)
    if chi2 is None:
        chi2 = _grid_sum(n, p, q, a)
    if not math.isfinite(chi2):
        raise OverflowError("the chi-square divergence overflows a double")
    return chi2


def chi_square_closed_bound(b: float) -> float:
    """Closed-form upper bound 4 b^2 log4 / (1 - b^2 log4), for b < 1/sqrt(log4)."""
    if not 0.0 < b < 1.0 / math.sqrt(LOG4):
        raise ValueError(f"b must lie in (0, 1/sqrt(log 4)), got {b}")
    x = b * b * LOG4
    return 4.0 * x / (1.0 - x)


def select_b(kappa: float, alpha: float, beta: float) -> float:
    """Largest signal constant satisfying every cap used in the bound chain.

    Takes the minimum of the divergence cap (beta-alpha)/(sqrt(log4)(1+beta-alpha))
    and the MGF cap 1/(2 sqrt(kappa)), shrunk by a strict-inequality margin.
    """
    if not (0.0 < alpha < beta < 1.0):
        raise ValueError("need 0 < alpha < beta < 1")
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    gap = beta - alpha
    divergence_cap = gap / (math.sqrt(LOG4) * (1.0 + gap))
    mgf_cap = (1.0 - 1e-6) * 0.5 / math.sqrt(kappa)
    return min(divergence_cap, mgf_cap)


def minimax_power_upper(n: int, p: int, q: int, b: float, alpha: float) -> DivergenceReport:
    """Full report: exact chi2, closed bound, TV bound, and the power bound.

    power_upper = alpha + (1/2) sqrt(chi2_exact), since the squared L1
    distance is at most the chi-square divergence.
    """
    a = amplitude(n, p, q, b) if b > 0 else 0.0
    pd_ok = mgf_validity(a, p, q)
    b_caps_ok = 0.0 <= b < 1.0 / math.sqrt(LOG4)
    chi2 = chi_square_exact(n, p, q, b)
    closed = chi_square_closed_bound(b) if (b_caps_ok and b > 0) else (0.0 if b == 0 else math.inf)
    tv = 0.5 * math.sqrt(max(chi2, 0.0))
    return DivergenceReport(
        chi2_exact=chi2,
        chi2_closed_bound=closed,
        tv_upper=tv,
        power_upper=alpha + tv,
        pd_ok=pd_ok,
        b_caps_ok=b_caps_ok,
    )


def hoeffding_tail_bound(p: int, q: int, b: float, mu: float) -> float:
    """Tail bound 4 * mu^(-1/(b^2 log4)) on P(|UV| >= (log mu / log 2) sqrt(pq)/b^2).

    This is the two-sided Hoeffding bound on the product of the two
    independent sign sums; p and q cancel out of the final expression.
    """
    if mu <= 1.0:
        raise ValueError("mu must exceed 1")
    if b <= 0:
        raise ValueError("b must be positive")
    return 4.0 * mu ** (-1.0 / (b * b * LOG4))
