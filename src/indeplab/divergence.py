"""Exact chi-square divergence of the sign-mixture alternative from the null.

The mixture P1 averages N(0, Sigma_uv) over all 2^(p+q) sign patterns; P0 is
N(0, I).  The n-sample chi-square divergence reduces to a double binomial sum

    E_{U,V}[(1 - a^2 U V)^(-n)] - 1

over U = sum of p signs, V = sum of q signs, which this module evaluates
exactly, together with the closed-form upper bound 4 b^2 log4 / (1 - b^2 log4)
and the induced total-variation and power bounds.

Cost.  The divergence check and the choice between the two summation paths
read one corner of the (p+1) x (q+1) support grid.  Both paths generate the
grid in slices of at most BLOCK elements, in O(BLOCK) memory, and evaluate
only the cells that a bound per row (and per column) cannot rule out of the
result's bits.  The bound: e(x) = -n log1p(-x) is convex with e(0) = 0, so
for V on U's side e(a^2 U V) <= (|V|/q) E_U with E_U = e(a^2 |U| q), and
e <= 0 on the other side.  With lambda = E_U / q and
E[e^(lambda V)] = cosh(lambda)^q <= e^(lambda^2 q / 2) (Hoeffding 1963), the
row's sum of w |expm1(e)| or of w e^e, and its largest log-term, are at most
w_U (1 + cosh(lambda)^q).  Slack for float error: a^2 |U| q and E_U are
raised by 2^-40 relative, the bound by a factor 2, its log by
2^-40 (|log w_U| + q log 2 + E_U + 1), and each dropped cell adds 2^-1072
(1 + e^(emax + 1)), emax the corner exponent, for rounding in the subnormal
range.  The small-value path
sums the window |U| <= T_U, |V| <= T_V exactly, with ``_exact_total``; the
dropped cells' bound eps is kept below 2^-72 of n(n+1)/2 a^4 pq, the series'
first term and a lower bound on chi2.  When the window total minus eps and
plus eps round to the same nonzero double, rounding is monotone, so that
double is the full grid's correctly rounded (fsum-equal) sum; otherwise the
cells outside the window are added to the exact total, so every cell is read
once.  The logsumexp path, taken when some exponent reaches
500, scans rows by decreasing bound for the maximum and its count until a
bound falls below it, then replays the pairwise-sum tree of numpy's
``np.sum`` over slices generated on demand, skipping each node whose bound
(its rows' bounds times e^-zmax, plus 2^-1074 per cell) is below half an ulp
of its sibling's sum; so it reproduces ``scipy.special.logsumexp`` of the
whole grid bit for bit.  MGF validity is the closed form c = |a| sqrt(pq) < 1,
the same test as ``pd_ok``, since t * gamma peaks at 2c / (1 + c).  The
full-grid forms are kept as oracles: ``oracles.chi_square_grid`` (bitwise
reference) and ``oracles.gamma_grid``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .structured_cov import amplitude

LOG2 = math.log(2.0)
LOG4 = math.log(4.0)

# Elements per slice of the support grid and of exact_sum.  A slice's float
# temporaries (128 KiB each) stay in a 2 MiB L2 cache; at 2^16 elements the
# logsumexp path ran about 1.7x slower.
BLOCK = 1 << 14
# np.frexp exponents of finite doubles run from -1073 to 1024; an element
# M * 2^(e - 53) lands in bin e + 1073 and weighs 2^(bin - 1126).
_EXP_OFFSET = 1073
_NBINS = 2098
_MANT_SHIFT = 1126
# Slices between folds of the int64 bins, each of which grows by less than
# BLOCK * 2^27 = 2^41 per slice.
_FOLD_EVERY = 1 << 16
# Relative margin on the inputs and outputs of the row bounds (_log_row_bounds).
_BOUND_SLACK = 2.0**-40
# The small-value path drops outer cells whose bounds sum to at most this
# fraction of chi2's first series term, 2^-19 of an ulp of that term.
_WINDOW_MARGIN = 2.0**-72


class DivergenceInfiniteError(ValueError):
    """The defining Gaussian integral diverges (some 1 - a^2 U V <= 0)."""


@dataclass(frozen=True)
class DivergenceReport:
    """Chi-square divergence with the full chain of derived bounds."""

    chi2_exact: float
    chi2_closed_bound: float
    tv_upper: float
    power_upper: float
    pd_ok: bool
    mgf_ok: bool
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
    """True iff t * gamma_ij < 1 for every achievable (ug, vh) configuration.

    The largest t * gamma_ij over the (ug, vh) grid is 2c / (1 + c), with
    c = |a| sqrt(pq), at the corners (p, q) and (-p, -q).  It is below 1
    exactly when c < 1, the condition for Sigma_uv to be positive definite, so
    the test is a^2 pq < 1, the same as ``pd_ok``; evaluating t * gamma at a
    corner would lose the answer to rounding for 1 - c < 2.4e-8.
    ``oracles.gamma_grid`` is the reference for the 2c / (1 + c) maximum.
    """
    return a * a * p * q < 1.0


def exact_sum(chunks: Iterable[np.ndarray]) -> float:
    """Correctly rounded sum of all elements of an iterable of finite float arrays.

    Bit for bit equal to ``math.fsum`` over the same elements, in any order:
    both round the exact sum once, half to even.  The exact sum is
    ``_exact_total(chunks) / 2^_MANT_SHIFT``, and CPython rounds that int true
    division correctly.
    """
    return _exact_total(chunks) / (1 << _MANT_SHIFT)


def _exact_total(chunks: Iterable[np.ndarray]) -> int:
    """The exact sum of all elements, times 2^_MANT_SHIFT, as an int.

    Each slice of at most BLOCK elements is split by ``np.frexp`` into integer
    mantissas M = hi * 2^27 + lo (|M| < 2^53) that ``np.bincount`` sums per
    binary exponent.  Those are float sums of at most BLOCK integers below
    2^27, hence exact, and accumulate in int64 bins that are folded into one
    Python int every _FOLD_EVERY slices, well before they could overflow.
    """
    total = 0
    bins_total = np.zeros((2, _NBINS), np.int64)
    count = 0
    for chunk in chunks:
        flat = np.ravel(chunk)
        for start in range(0, flat.size, BLOCK):
            mant, exp = np.frexp(flat[start : start + BLOCK])
            mant *= 2.0**53
            hi = np.floor(mant * 2.0**-27)
            lo = mant - hi * 2.0**27
            bins = exp + _EXP_OFFSET
            lo_sums = np.bincount(bins, lo, _NBINS)
            # An infinite or NaN element makes its lo NaN.
            if not np.isfinite(lo_sums).all():
                raise ValueError("exact_sum needs finite elements")
            bins_total[0] += np.bincount(bins, hi, _NBINS).astype(np.int64)
            bins_total[1] += lo_sums.astype(np.int64)
            count += 1
            if count % _FOLD_EVERY == 0:
                total += _fold(bins_total)
                bins_total[:] = 0
    return total + _fold(bins_total)


def _fold(bins_total: np.ndarray) -> int:
    """sum_k (hi_k * 2^27 + lo_k) * 2^k over the (2, _NBINS) bin sums."""
    nonzero = np.flatnonzero(bins_total.any(axis=0))
    his, los = bins_total[:, nonzero].tolist()
    return sum(((hi << 27) + lo) << k for k, hi, lo in zip(nonzero.tolist(), his, los))


def _support_slice(
    a: float, n: int, Us: np.ndarray, Vs: np.ndarray, logw_p: np.ndarray, logw_q: np.ndarray,
    start: int, stop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Log-weights and exponents -n log(1 - a^2 U V) at row-major indices [start, stop) of Us x Vs.

    A partial first row, the whole rows between and a partial last row are
    evaluated apart, so the cost is O(stop - start) whatever the grid's shape.
    """
    width = Vs.size
    r0, c0 = divmod(start, width)
    r1, c1 = divmod(stop, width)
    if r0 == r1:
        spans = [(r0, r0 + 1, c0, c1)]
    else:
        spans = [(r0, r0 + 1, c0, width), (r0 + 1, r1, 0, width), (r1, r1 + 1, 0, c1)]
    logw, exponent = [], []
    for i, j, k, l in spans:
        x = a * a * Us[i:j, None] * Vs[None, k:l]
        logw.append((logw_p[i:j, None] + logw_q[None, k:l]).ravel())
        exponent.append((-n * np.log1p(-x)).ravel())
    return np.concatenate(logw), np.concatenate(exponent)


def _log_row_bounds(a: float, n: int, Us: np.ndarray, d: int, logw: np.ndarray) -> np.ndarray:
    """Upper bounds, one per row U of the grid Us x V (V a sum of d signs), on
    log sum_V w_U w_V max(e^e, |expm1(e)|) with e = -n log1p(-a^2 U V): the
    log of w_U (1 + cosh(E_U / d)^d), E_U = e at V = d sign(U), with the
    slack the module docstring lists.  A row whose a^2 |U| d reaches 1 after
    that slack gets +inf.
    """
    x = a * a * np.abs(Us) * d * (1.0 + _BOUND_SLACK)
    with np.errstate(divide="ignore"):
        e = -n * np.log1p(-np.minimum(x, 1.0)) * (1.0 + _BOUND_SLACK)
    lam = e / d
    log_mgf = d * (lam + np.log1p(np.exp(-2.0 * lam)) - LOG2)
    slack = LOG2 + _BOUND_SLACK * (np.abs(logw) + d * LOG2 + e + 1.0)
    return logw + np.logaddexp(0.0, log_mgf) + slack


def _trim(bounds: np.ndarray, budget: float) -> tuple[int, float]:
    """The most entries k at each end whose 2k bounds sum to at most ``budget``
    (at most (size - 1) // 2, so something is left), and that sum."""
    half = (bounds.size - 1) // 2
    tails = np.cumsum(bounds[:half] + bounds[::-1][:half])
    k = int(np.searchsorted(tails, budget, side="right"))
    return k, float(tails[k - 1]) if k else 0.0


def _expm1_terms(
    a: float, n: int, Us: np.ndarray, Vs: np.ndarray, logw_p: np.ndarray, logw_q: np.ndarray,
) -> Iterator[np.ndarray]:
    """w expm1(e) over the row-major grid Us x Vs, in slices of at most BLOCK elements."""
    size = Us.size * Vs.size
    for start in range(0, size, BLOCK):
        logw, exponent = _support_slice(a, n, Us, Vs, logw_p, logw_q, start, min(start + BLOCK, size))
        yield np.exp(logw) * np.expm1(exponent)


def _small_value_sum(
    a: float, n: int, Us: np.ndarray, Vs: np.ndarray, logw_p: np.ndarray, logw_q: np.ndarray,
    row_bounds: np.ndarray, emax: float,
) -> float:
    """The correctly rounded sum of w expm1(e) over the whole grid, from a window when certified.

    The window drops the outer rows and columns whose bounds sum to at most
    _WINDOW_MARGIN / 2 of n(n+1)/2 a^4 pq each.  With N the exact window total
    and eps the dropped cells' bound, both times 2^_MANT_SHIFT, if N - eps and
    N + eps round to the same nonzero double, so does the full grid's total.
    Otherwise the dropped cells' exact total is added to N, which gives the
    full grid's exact total with each cell read once.
    """
    p, q = Us.size - 1, Vs.size - 1
    budget = 0.5 * _WINDOW_MARGIN * 0.5 * n * (n + 1.0) * (a * a) ** 2 * p * q  # half to rows, half to columns
    with np.errstate(over="ignore"):
        r0, row_tail = _trim(np.exp(row_bounds), budget)
        c0, col_tail = _trim(np.exp(_log_row_bounds(a, n, Vs, p, logw_q)), budget)
    rows, cols = slice(r0, p + 1 - r0), slice(c0, q + 1 - c0)
    total = _exact_total(_expm1_terms(a, n, Us[rows], Vs[cols], logw_p[rows], logw_q[cols]))
    dropped = (p + 1) * (q + 1) - (p + 1 - 2 * r0) * (q + 1 - 2 * c0)
    eps = row_tail + col_tail + dropped * 2.0**-1072 * (1.0 + math.exp(emax + 1.0))
    num, den = eps.as_integer_ratio()
    slack = -(-(num << _MANT_SHIFT) // den)
    lo, hi = (total - slack) / (1 << _MANT_SHIFT), (total + slack) / (1 << _MANT_SHIFT)
    if lo == hi and (lo != 0.0 or slack == 0):
        return lo
    inner = slice(r0, p + 1 - r0)
    for rows, cols in ((slice(0, r0), slice(None)), (slice(p + 1 - r0, None), slice(None)),
                       (inner, slice(0, c0)), (inner, slice(q + 1 - c0, None))):
        total += _exact_total(_expm1_terms(a, n, Us[rows], Vs[cols], logw_p[rows], logw_q[cols]))
    return total / (1 << _MANT_SHIFT)


def _pairwise_sum(
    leaf_sum: Callable[[int, int], np.float64], start: int, length: int,
    bound: Callable[[int, int], float] = lambda start, stop: math.inf,
) -> np.float64:
    """numpy's pairwise sum of the elements [start, start + length), leaf by leaf.

    ``np.sum`` of a contiguous run of k > 128 float64 elements returns
    pairwise(k2) + pairwise(k - k2) with k2 = k // 2 rounded down to a multiple
    of 8, and sums runs of at most 128 in one unrolled loop (Higham 1993).  The
    split depends on k alone, so any node of this tree, summed by ``np.sum``,
    has the bits it has inside the whole sum.  Nodes of at most
    max(BLOCK, 128) elements are leaves, passed to ``leaf_sum(start, stop)``.

    For nonnegative elements, ``bound(start, stop)`` may bound the sum of
    [start, stop).  The child with the larger bound is then summed first, and
    the other is skipped when its bound lies below half an ulp of the first:
    adding it would leave the first unchanged, so the result keeps its bits.
    """
    if length <= max(BLOCK, 128):
        return leaf_sum(start, start + length)
    half = length // 2
    half -= half % 8
    first, second = (start, half), (start + half, length - half)
    first_bound, second_bound = bound(start, start + half), bound(start + half, start + length)
    if second_bound > first_bound:
        first, second, second_bound = second, first, first_bound
    total = _pairwise_sum(leaf_sum, *first, bound)
    if second_bound < 0.5 * np.spacing(total):
        return total
    return total + _pairwise_sum(leaf_sum, *second, bound)


def _expm1_logsumexp(
    terms: Callable[[int, int], np.ndarray], size: int, log_row_bounds: np.ndarray | None = None,
) -> float:
    """expm1 of scipy's logsumexp over z[0:size], z[i:j] = terms(i, j), in O(BLOCK) memory.

    Bit for bit equal to the call on the whole array, which takes zmax = max(z)
    and the number m of elements equal to it, sets those to -inf, sums
    exp(z - zmax) with ``np.sum``, divides a nonzero sum by m and returns
    log1p(s) + log(m) + zmax.  z is read as a row-major grid with one row per
    entry of ``log_row_bounds``, each an upper bound on log sum exp(z) over its
    row (default: a single row, unbounded).  The first pass evaluates rows in
    order of decreasing bound and stops at the first bound below the running
    zmax, since no later row can reach it; so it finds zmax and m.  The second
    replays the sum's pairwise tree over slices made on demand, skipping each
    node whose bound, the sum of its rows' bounds times e^-zmax plus 2^-1074
    per element (an exp rounded in the subnormal range), cannot change its
    sibling's sum.  Raises OverflowError when the result does not fit a double.
    """
    if log_row_bounds is None:
        log_row_bounds = np.array([math.inf])
    width = size // log_row_bounds.size
    zmax, m = -np.inf, 0
    order = np.argsort(-log_row_bounds, kind="stable")
    per_batch = max(1, BLOCK // width)
    for i in range(0, order.size, per_batch):
        batch = order[i : i + per_batch]
        batch = np.sort(batch[log_row_bounds[batch] >= zmax])
        if batch.size == 0:
            break
        for run in np.split(batch, np.flatnonzero(np.diff(batch) != 1) + 1):
            stop = (int(run[-1]) + 1) * width
            for start in range(int(run[0]) * width, stop, BLOCK):
                z = terms(start, min(start + BLOCK, stop))
                top = z.max()
                if top > zmax:
                    zmax, m = top, 0
                if top == zmax:
                    m += int(np.count_nonzero(z == top))

    with np.errstate(over="ignore"):
        row_sums = np.exp(log_row_bounds - zmax)

    def bound(start: int, stop: int) -> float:
        return row_sums[start // width : (stop - 1) // width + 1].sum() + (stop - start) * 2.0**-1074

    def leaf_sum(start: int, stop: int) -> np.float64:
        z = terms(start, stop)
        shifted = np.exp(z - zmax)
        shifted[z == zmax] = 0.0
        return np.sum(shifted)

    s = _pairwise_sum(leaf_sum, 0, size, bound)
    count = np.float64(m)
    if s != 0:
        s = s / count
    with np.errstate(over="ignore"):
        chi2 = np.expm1(np.log1p(s) + np.log(count) + zmax)
    if not np.isfinite(chi2):
        raise OverflowError("the chi-square divergence overflows a double")
    return float(chi2)


def chi_square_exact(n: int, p: int, q: int, b: float) -> float:
    """Exact chi-square divergence via the double binomial sum, in log space.

    chi2 = sum_{k,l} C(p,k) C(q,l) 2^-(p+q) (1 - a^2 (p-2k)(q-2l))^-n  -  1.

    The largest a^2 U V sits at the corner U = p, V = q, so the divergence
    check and the choice of path read that corner alone.  Both paths walk the
    row-major grid in slices of at most BLOCK elements, in O(BLOCK) memory,
    and evaluate only the cells that the bounds of ``_log_row_bounds`` cannot
    rule out of the result's bits.  Per row U, with w_V = C(q,l) 2^-q,
    e = -n log1p(-a^2 U V), E_U = e at V = q sign(U) and lambda = E_U / q:
    e <= (|V|/q) E_U for V on U's side (e is convex in a^2 U V and 0 at 0),
    e <= 0 on the other side, and sum_V w_V e^(lambda V) = cosh(lambda)^q
    <= e^(lambda^2 q / 2) (Hoeffding 1963).  So w_U (1 + cosh(lambda)^q)
    bounds the row's sum of w |expm1(e)| and of w e^e, and its largest term.
    Slack: a^2 |U| q and E_U gain 2^-40 relative, the bound a factor 2 and,
    in logs, 2^-40 (|log w_U| + q log 2 + E_U + 1); columns likewise.
    Small-value path (largest exponent below 500): the weighted expm1 terms,
    accurate when chi2 is near 0, are summed exactly over a window whose
    dropped cells are bounded by eps < 2^-72 n(n+1)/2 a^4 pq <= 2^-72 chi2,
    plus 2^-1072 (1 + e^(emax + 1)) per cell for subnormal rounding; if the
    window total -/+ eps round to the same nonzero double, that is the full
    grid's fsum-equal sum, or else the cells outside the window are added
    (``_small_value_sum``).  Otherwise ``_expm1_logsumexp`` reproduces
    scipy's logsumexp of the log-terms bit for bit, scanning rows by
    decreasing bound for the maximum and skipping tree nodes whose bound is
    below half an ulp of their sibling's sum; it loses digits where
    zmax + log(...) cancels, and its result agrees with the small-value path
    across the switch to about 1e-10 relative.  Raises OverflowError if chi2
    exceeds a double.
    """
    # scipy.special takes most of the package's import time; only this needs it.
    from scipy.special import gammaln

    if b == 0.0:
        return 0.0
    a = amplitude(n, p, q, b)
    Us = np.arange(-p, p + 1, 2, dtype=float)
    Vs = np.arange(-q, q + 1, 2, dtype=float)
    xmax = a * a * Us[-1] * Vs[-1]
    if 1.0 - xmax <= 0.0:
        raise DivergenceInfiniteError(
            "1 - a^2 U V <= 0 at some support point: the integral diverges"
        )
    k = np.arange(p + 1, dtype=float)
    l = np.arange(q + 1, dtype=float)
    logw_p = gammaln(p + 1) - gammaln(k + 1) - gammaln(p - k + 1) - p * math.log(2.0)
    logw_q = gammaln(q + 1) - gammaln(l + 1) - gammaln(q - l + 1) - q * math.log(2.0)
    logw_p, logw_q = logw_p[::-1], logw_q[::-1]  # index order matches Us, Vs
    row_bounds = _log_row_bounds(a, n, Us, q, logw_p)
    emax = -n * np.log1p(-xmax)
    if emax < 500.0:
        return _small_value_sum(a, n, Us, Vs, logw_p, logw_q, row_bounds, float(emax))

    def terms(start: int, stop: int) -> np.ndarray:
        return np.add(*_support_slice(a, n, Us, Vs, logw_p, logw_q, start, stop))

    return _expm1_logsumexp(terms, (p + 1) * (q + 1), row_bounds)


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
    pd_ok = mgf_validity(a, p, q)  # a^2 pq < 1 decides both flags
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
        mgf_ok=pd_ok,
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
