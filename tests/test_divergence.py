import itertools
import math
import tracemalloc
import warnings
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from indeplab import divergence, oracles
from indeplab.divergence import (
    TILE,
    DivergenceInfiniteError,
    chi_square_closed_bound,
    chi_square_exact,
    gamma_eigs,
    hoeffding_tail_bound,
    mgf_validity,
    minimax_power_upper,
    select_b,
)
from indeplab.structured_cov import amplitude

# 40-digit evaluation of 0.3 / (sqrt(log 4) * 1.3)
SELECT_B_K1 = 0.19599733852800439447419296171605145


def test_chi_square_zero_signal():
    assert chi_square_exact(10, 3, 4, 0.0) == 0.0


def test_chi_square_p1q1_hand_expansion():
    # chi2 = (1/2)[(1-a^2)^-n + (1+a^2)^-n] - 1
    for n in (1, 2, 7):
        for b in (0.2, 0.5):
            a = amplitude(n, 1, 1, b)
            hand = 0.5 * ((1 - a * a) ** -n + (1 + a * a) ** -n) - 1.0
            assert chi_square_exact(n, 1, 1, b) == pytest.approx(hand, rel=1e-13)


def test_chi_square_p1q1_n1_closed():
    a = amplitude(1, 1, 1, 0.3)
    assert chi_square_exact(1, 1, 1, 0.3) == pytest.approx(a**4 / (1 - a**4), rel=1e-13)
    # frozen high-precision value
    assert chi_square_exact(1, 1, 1, 0.3) == pytest.approx(0.002029108945614870111976752924672, rel=1e-13)


def test_chi_square_matches_enumeration():
    got = chi_square_exact(4, 2, 2, 0.5)
    want = oracles.enumerate_chi_square(4, 2, 2, 0.5)
    assert got == pytest.approx(want, rel=1e-12)


def test_chi_square_nondecreasing_in_b():
    values = [chi_square_exact(20, 4, 3, b) for b in np.linspace(0.0, 0.8, 17)]
    assert all(b2 >= b1 for b1, b2 in zip(values, values[1:]))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 60),
    st.integers(1, 200),
    st.integers(1, 200),
    st.floats(-9.0, -1.0),
    st.sampled_from([1e-6, 1e-9]),
)
def test_chi_square_nondecreasing_near_pd_boundary(n, p, q, log_gap, delta):
    # c = a sqrt(pq) = 1 - gap; b is proportional to c at fixed (n, p, q).
    b = (1.0 - 10.0**log_gap) * math.sqrt(2.0 * n) / (p * q) ** 0.25
    try:
        lo = chi_square_exact(n, p, q, b)
        hi = chi_square_exact(n, p, q, b * (1.0 + delta))
    except (ValueError, ArithmeticError):  # divergent or overflowing
        return
    assert lo <= hi


def test_chi_square_nonnegative_and_zero_iff_b_zero():
    assert chi_square_exact(5, 2, 3, 0.0) == 0.0
    assert chi_square_exact(5, 2, 3, 0.05) > 0.0


def test_chi_square_rejects_nan_b():
    with pytest.raises(ValueError, match="NaN"):
        chi_square_exact(10, 3, 4, math.nan)


def test_chi_square_divergent_configuration():
    # n=1, huge b: 1 - a^2 pq <= 0 at the extreme support point
    with pytest.raises(DivergenceInfiniteError):
        chi_square_exact(1, 4, 4, 4.0)


def test_chi_square_large_dimensions_no_overflow():
    b = select_b(1.0, 0.05, 0.35)
    val = chi_square_exact(10**6, 10**3, 10**3, b)
    assert np.isfinite(val) and val >= 0.0


def _b_for_exponent(n, p, q, exponent):
    """b at which the corner exponent -n log1p(-a^2 pq) is about ``exponent``."""
    x = -math.expm1(-exponent / n)
    return math.sqrt(2.0 * n * x / math.sqrt(p * q))


def _b_edge(n, p, q):
    """b at which a^2 pq = 1, where the divergence becomes infinite."""
    return math.sqrt(2.0 * n / math.sqrt(p * q))


def _finite(n, p, q, b):
    """The package's own condition for a finite chi2: 1 - a^2 pq > 0 at the
    double a.  ``b < _b_edge`` in floats does not imply it."""
    a = float(amplitude(n, p, q, b))
    return 1.0 - a * a * p * q > 0.0


def _takes_series(n, p, q, b):
    return divergence._moment_series(n, p, q, float(amplitude(n, p, q, b))) is not None


def _rel_err(got, want):
    return abs(got - want) / abs(want)


def _referee(n, p, q, b, extra_digits=0, cut=False):
    """chi2 at the double amplitude(n, p, q, b), summed in mpmath from exact binomials.

    The direct double sum of w_U w_V ((1 - a^2 U V)^-n - 1), independent of
    the moment series and of the grid's weights and masks.  The four sign
    quadrants hold two copies of each pair (U, V), (U, -V) with U, V > 0, and
    U = 0 or V = 0 adds nothing, so the sum runs over U, V > 0 grouped by the
    product UV, with integer weights.  Precision: each power is rounded to
    about 10^-dps relative, and the rounding of 1 - a^2 UV is amplified by
    n / (1 - a^2 pq), while the terms sum to chi2 >= t_1 = n(n+1)/2 a^4 pq;
    the default dps leaves 20 digits beyond that.  ``cut`` keeps only
    |U| <= 14 sqrt(p) and |V| <= 14 sqrt(q), which is exact to double
    precision away from a^2 pq -> 1 (``TestReferee``) but not near it, where
    the corners dominate.
    """
    mpmath = pytest.importorskip("mpmath")
    a = float(amplitude(n, p, q, b))
    t1 = 0.5 * n * (n + 1.0) * a**4 * p * q
    dps = 20 + extra_digits + math.ceil(math.log10(n * (1.0 + 1.0 / t1) / (1.0 - a * a * p * q)))

    def support(d):
        limit = 14.0 * math.sqrt(d) if cut else d
        return [(d - 2 * k, math.comb(d, k)) for k in range(d // 2 + 1) if 0 < d - 2 * k <= limit]

    weights = defaultdict(int)
    support_q = support(q)
    for U, wu in support(p):
        for V, wv in support_q:
            weights[U * V] += wu * wv
    with mpmath.workdps(dps):
        x = mpmath.mpf(a) ** 2
        total = mpmath.fsum(w * ((1 - x * m) ** -n + (1 + x * m) ** -n - 2) for m, w in weights.items())
        return float(total / mpmath.mpf(2) ** (p + q - 1))


class TestReferee:
    """The referee is checked against the enumeration, a frozen value, itself
    with 40 more digits, and itself with the support cut."""

    def test_matches_enumeration_and_frozen_value(self):
        assert _rel_err(_referee(4, 2, 2, 0.5), oracles.enumerate_chi_square(4, 2, 2, 0.5)) <= 1e-12
        # The frozen value is at the real amplitude, the referee's at its double.
        assert _rel_err(_referee(1, 1, 1, 0.3), 0.002029108945614870111976752924672) <= 1e-14

    @pytest.mark.parametrize("n,p,q,b", [
        (690, 271, 9, 4.9e-10), (225, 284, 10, 4.38e-11), (40, 30, 20, 1.3),
        (50, 6, 9, _b_edge(50, 6, 9) * (1 - 1e-6)), (8000, 250, 250, 0.8),
    ])
    def test_more_digits_change_nothing(self, n, p, q, b):
        assert _rel_err(_referee(n, p, q, b, extra_digits=40), _referee(n, p, q, b)) <= 2.0**-52

    @pytest.mark.parametrize("n,p,q,b", [(8000, 250, 250, 0.8), (300, 150, 150, 0.5)])
    def test_cut_is_exact_away_from_the_edge(self, n, p, q, b):
        assert _rel_err(_referee(n, p, q, b, cut=True), _referee(n, p, q, b)) <= 2.0**-52


@pytest.mark.parametrize("n", [1, 5, 20])
def test_enumeration_oracle_within_1e_15_of_the_referee(n):
    # Its terms are means of t(x) and t(-x), two nonnegative parts; the
    # expm1(-n log1p(-x)) terms alone lost up to 7.9e-15 at (5, 1, 1, 0.1).
    for p, q, b in itertools.product(range(1, 5), range(1, 5), (0.1, 0.196, 0.3)):
        assert _rel_err(oracles.enumerate_chi_square(n, p, q, b), _referee(n, p, q, b)) <= 1e-15


SELECT_B = select_b(1.0, 0.05, 0.35)


class TestAccuracy:
    """chi_square_exact against the referee: series points within 1e-14, grid
    points no worse than twice the error the full-grid code had there."""

    @pytest.mark.parametrize("n,p,q,b", [
        (8000, 250, 250, 0.8), (8000, 250, 250, SELECT_B), (300, 150, 150, 0.5),
        (10, 60, 60, _b_for_exponent(10, 60, 60, 5.0)), (1, 60, 60, _b_for_exponent(1, 60, 60, 0.5)),
        (4, 2, 2, 0.5), (1, 1, 1, 0.3),
    ])
    def test_series_points(self, n, p, q, b):
        assert _takes_series(n, p, q, b)
        assert _rel_err(chi_square_exact(n, p, q, b), _referee(n, p, q, b)) <= 1e-14

    # Referee values with the support cut, too slow to recompute here: at
    # (8000, 2000, 2000), 3.7 s each at dps and at 2 dps, the same double; at
    # (1e5, 1e5, 1e3), 12-15 s each at 30 and 50 digits with the weights
    # rounded to mpf, the same double.  The full-grid code was off by 3.9e-11,
    # 2.2e-12 and 2.6e-9 at these points.
    @pytest.mark.parametrize("n,p,q,b,want", [
        (8000, 2000, 2000, 0.8, 0.05550749336004637),
        (8000, 2000, 2000, SELECT_B, 0.00018453773050461166),
        (10**5, 10**5, 10**3, 0.8, 0.05549816715399859),
    ])
    def test_large_points(self, n, p, q, b, want):
        assert _takes_series(n, p, q, b)
        assert _rel_err(chi_square_exact(n, p, q, b), want) <= 1e-14

    # The full-grid code's own error against the referee is the last entry.
    @pytest.mark.parametrize("n,p,q,b,old_err", [
        (40, 30, 20, 1.3, 7.31e-15),
        (200, 200, 200, 1.4, 5.29e-13),
        (1000, 400, 400, _b_for_exponent(1000, 400, 400, 505.0), 4.04e-13),
        (1000, 400, 400, _b_for_exponent(1000, 400, 400, 560.0), 3.61e-13),
        (50, 6, 9, _b_edge(50, 6, 9) * (1 - 1e-6), 3.57e-10),
        (50, 6, 9, _b_edge(50, 6, 9) * (1 - 1e-3), 5.45e-13),
        (200, 20, 30, _b_for_exponent(200, 20, 30, 100.0), 1.94e-14),
        (1000, 40, 40, _b_for_exponent(1000, 40, 40, 700.0), 5.24e-14),
        (300, 100, 7, _b_for_exponent(300, 100, 7, 300.0), 4.42e-14),
    ])
    def test_grid_points(self, n, p, q, b, old_err):
        assert not _takes_series(n, p, q, b)
        assert _rel_err(chi_square_exact(n, p, q, b), _referee(n, p, q, b)) <= max(1e-14, 2.0 * old_err)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10**5), st.integers(1, 40), st.integers(1, 40), st.floats(-20.0, -0.3))
    def test_random_series_points(self, n, p, q, log_c2):
        b = math.sqrt(2.0 * n * 10.0**log_c2 / math.sqrt(p * q))  # a^2 pq = 10^log_c2
        assume(_takes_series(n, p, q, b))
        assert _rel_err(chi_square_exact(n, p, q, b), _referee(n, p, q, b)) <= 1e-14

    # The full-grid code returned -1.53e-37 and 0.0 here.
    @pytest.mark.parametrize("n,p,q,b,want", [
        (690, 271, 9, 4.9e-10, 7.216444730072467e-39), (225, 284, 10, 4.38e-11, 4.6209617755199986e-43),
    ])
    def test_tiny_b(self, n, p, q, b, want):
        got = chi_square_exact(n, p, q, b)
        assert got > 0.0 and _rel_err(got, want) <= 1e-14

    # Points where the grid's terms cancel to rounding: chi2 is far below an
    # ulp of the largest term.  Found by a probe of 1,500 random points with b
    # log-uniform in [1e-20, 0.1].
    @pytest.mark.parametrize("n,p,q,b", [
        (225, 284, 10, 4.38e-11), (255, 4, 304, 2.31306317231167e-09),
        (698, 267, 7, 1.811946219314848e-10), (96, 4, 333, 5.223739465341126e-18),
    ])
    def test_tiny_b_against_the_referee(self, n, p, q, b):
        got = chi_square_exact(n, p, q, b)
        assert got > 0.0 and _rel_err(got, _referee(n, p, q, b)) <= 1e-14

    @pytest.mark.parametrize("n,p,q", [(50, 6, 9), (20, 20, 30), (10, 40, 40)])
    @pytest.mark.parametrize("gap", [1e-3, 1e-6])
    def test_nondecreasing_near_the_edge(self, n, p, q, gap):
        # Near a^2 pq -> 1 a rounding of a^2 UV by a few ulps moves chi2 by
        # n / (1 - a^2 pq) of that; b * (1 + 1e-9) moves it by far more.
        lo_b = _b_edge(n, p, q) * (1.0 - gap)
        hi_b = lo_b * (1.0 + 1e-9)
        lo, hi = chi_square_exact(n, p, q, lo_b), chi_square_exact(n, p, q, hi_b)
        lo_ref, hi_ref = _referee(n, p, q, lo_b), _referee(n, p, q, hi_b)
        assert lo <= hi and lo_ref < hi_ref
        tol = 1e-13 + 4.0 * 2.0**-53 * n / (2.0 * gap)
        assert _rel_err(lo, lo_ref) <= tol and _rel_err(hi, hi_ref) <= tol

    @pytest.mark.parametrize("b", [0.5, 0.8])
    def test_limit_at_fixed_b(self, b):
        # chi2 -> (1 - b^4/4)^(-1/2) - 1 as n = p = q grows; the gap shrinks
        # like 1/n (about 1.04/n at b = 0.5, 1.33/n at b = 0.8) and is not a
        # bound at finite size.
        limit = (1.0 - b**4 / 4.0) ** -0.5 - 1.0
        scaled = [n * (chi_square_exact(n, n, n, b) - limit) / limit for n in (10**3, 10**4, 10**5)]
        assert all(0.5 < s < 2.0 for s in scaled)
        assert max(scaled) - min(scaled) < 0.01 * min(scaled)


def _fractional_moment(d, k):
    """E[U^2k] for U a sum of d signs, as a Fraction."""
    return sum(Fraction(math.comb(d, i), 2**d) * (d - 2 * i) ** (2 * k) for i in range(d + 1))


class TestMomentSeries:
    def test_moments_are_correctly_rounded(self):
        for d in range(1, 13):
            got = list(itertools.islice(divergence._moments(d), 20))
            assert got == [float(_fractional_moment(d, k) / d**k) for k in range(1, 21)], d

    def test_moment_ratio_bound(self):
        # m_{k+1} / m_k <= min(2k+1, d), i.e. E[U^(2k+2)] <= min(2k+1, d) d E[U^2k].
        for d in range(1, 13):
            for k in range(0, 21):
                assert _fractional_moment(d, k + 1) <= min(2 * k + 1, d) * d * _fractional_moment(d, k)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**4), st.integers(1, 300), st.integers(1, 300), st.integers(1, 60))
    def test_ratio_bound_is_the_maximum(self, n, p, q, K):
        a4pq = 1e-6

        def r(k):
            return (a4pq * (n + 2 * k + 1) * (n + 2 * k) / ((2 * k + 2) * (2 * k + 1))
                    * min(2 * k + 1, p) * min(2 * k + 1, q))

        # r does not increase once 2k+1 >= max(p, q).
        brute = max(r(k) for k in range(K, max(K, max(p, q)) + 3))
        # Equal up to the rounding of r, where r is flat (n = 1).
        assert divergence._ratio_bound(n, p, q, a4pq, K) == pytest.approx(brute, rel=1e-15)

    @pytest.mark.parametrize("n", [7900, 8000, 8100])
    def test_benchmark_and_verify_points_take_the_series(self, n):
        for p, q, b in itertools.product((250, 2000), (250, 2000), (SELECT_B, 0.8)):
            assert _takes_series(n, p, q, b)
        for p, q, m, b in itertools.product((1, 2, 3, 4), (1, 2, 4), (1, 5), (0.1, 0.3)):
            assert _takes_series(m, p, q, b)

    @pytest.mark.parametrize("n,p,q", [(100, 30, 30), (1000, 200, 100), (20, 5, 60)])
    def test_continuous_across_the_switch_to_the_grid(self, n, p, q):
        lo, hi = 1e-3, _b_edge(n, p, q) * (1 - 1e-3)
        assert _takes_series(n, p, q, lo) and not _takes_series(n, p, q, hi)
        while np.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if _takes_series(n, p, q, mid) else (lo, mid)
        assert _rel_err(chi_square_exact(n, p, q, hi), chi_square_exact(n, p, q, lo)) <= 1e-12


def _full_grid_terms(n, p, q, b):
    """Every cell's term, unmasked, from the grid's own term function."""
    a = float(amplitude(n, p, q, b))
    Us = np.arange(-p, p + 1, 2, dtype=float)
    Vs = np.arange(-q, q + 1, 2, dtype=float)
    with np.errstate(over="ignore"):
        return divergence._grid_terms(a, n, Us, Vs, divergence._log_weights(p), divergence._log_weights(q))


def _cells_read(n, p, q, b):
    """The number of cells chi_square_exact reads, counted without keeping them."""
    cells = 0
    grid_terms = divergence._grid_terms

    def counting(*args):
        nonlocal cells
        terms = grid_terms(*args)
        cells += terms.size
        return terms

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divergence, "_grid_terms", counting)
        chi_square_exact(n, p, q, b)
    return cells


def _grid_reads(n, p, q, b):
    """chi_square_exact on the grid, recording each tile it evaluates.

    Returns (chi2 or the type of the exception raised, [(Us, Vs, terms)]).
    """
    reads = []
    grid_terms = divergence._grid_terms

    def recording(a, n, Us, Vs, *rest):
        reads.append((Us, Vs, grid_terms(a, n, Us, Vs, *rest)))
        return reads[-1][2]

    assert not _takes_series(n, p, q, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(divergence, "_grid_terms", recording)
        try:
            got = chi_square_exact(n, p, q, b)
        except OverflowError as exc:
            got = type(exc)
    return got, reads


def _grid_sum_row_by_row(n, p, q, a, tile):
    """``divergence._grid_sum`` with one bound evaluation per row of tiles,
    the form it had before it evaluated the bounds of blocks of rows."""
    Us = np.arange(-p, p + 1, 2, dtype=float)
    Vs = np.arange(-q, q + 1, 2, dtype=float)
    logw_p, logw_q = divergence._log_weights(p), divergence._log_weights(q)
    rows, cols = np.arange(0, p + 1, tile), np.arange(0, q + 1, tile)
    log_mass_p = np.logaddexp.reduceat(logw_p, rows)
    log_mass_q = np.logaddexp.reduceat(logw_q, cols) + divergence.LOG2
    V_ends = Vs[cols], Vs[np.minimum(cols + tile, q + 1) - 1]
    log_floor = divergence._log_lower_bound(n, p, q, a) - 72.0 * divergence.LOG2 - math.log(rows.size * cols.size)
    total = 0.0
    for r0, log_mass in zip(rows.tolist(), log_mass_p.tolist()):
        rs = slice(r0, r0 + tile)
        x = np.stack([a * a * U * V for U in Us[rs][[0, -1]] for V in V_ends]) * (1.0 + divergence._BOUND_SLACK)
        with np.errstate(divide="ignore"):
            e = -n * np.log1p(-np.minimum(x, 1.0))
            peaks = np.max(np.maximum(e, 0.0) + np.log(-np.expm1(-np.abs(e))), axis=0)
        for c0 in cols[log_mass + log_mass_q + peaks > log_floor].tolist():
            cs = slice(c0, c0 + tile)
            total += float(np.sum(divergence._grid_terms(a, n, Us[rs], Vs[cs], logw_p[rs], logw_q[cs])))
    return total


def _tile_origin(p, q, Us, Vs):
    """(row index, column index) of the first cell of a read."""
    return int(Us[0] + p) // 2, int(Vs[0] + q) // 2


def _assert_blocked_and_masked(n, p, q, b):
    """The grid reads each cell at most once, one tile of its layout at a time
    (at most TILE rows by TILE columns, counted from the first row and
    column) in row-major order, each tile it skips weighs at most 2^-72 chi2 /
    (tile count), and its result is the full grid's exactly rounded sum, up
    to 2^-71 for the skipped cells and the rounding of np.sum.  Returns the
    set of tiles read, by their origins (``_tile_origin``)."""
    tile = divergence.TILE
    got, reads = _grid_reads(n, p, q, b)
    Us = np.arange(-p, p + 1, 2, dtype=float)
    Vs = np.arange(-q, q + 1, 2, dtype=float)
    tiles = set()
    origins = [_tile_origin(p, q, U_read, V_read) for U_read, V_read, _ in reads]
    assert origins == sorted(origins)
    for U_read, V_read, terms in reads:
        assert U_read.size <= tile and V_read.size <= tile
        r0, c0 = _tile_origin(p, q, U_read, V_read)
        assert r0 % tile == 0 and c0 % tile == 0
        assert np.array_equal(U_read, Us[r0:r0 + tile]) and np.array_equal(V_read, Vs[c0:c0 + tile])
        assert terms.shape == (U_read.size, V_read.size)
        tiles.add((r0, c0))
    # Distinct tiles of one layout are disjoint.
    assert 0 < len(tiles) == len(reads)
    grid = _full_grid_terms(n, p, q, b)
    full = grid.ravel().tolist()
    read = np.concatenate([terms.ravel() for _, _, terms in reads]).tolist()
    total = math.fsum(full)
    rows, cols = np.arange(0, p + 1, tile), np.arange(0, q + 1, tile)
    with np.errstate(over="ignore"):
        weights = np.add.reduceat(np.add.reduceat(np.abs(grid), rows, axis=0), cols, axis=1)
    skipped = np.ones(weights.shape, dtype=bool)
    skipped[[r0 // tile for r0, _ in tiles], [c0 // tile for _, c0 in tiles]] = False
    assert np.all(weights[skipped] <= 2.0**-72 * abs(total) / weights.size * (1.0 + 1e-12))
    assert abs(math.fsum(full + [-x for x in read])) <= 2.0**-71 * abs(total)
    assert _rel_err(got, total) <= 1e-14
    return tiles


class TestGrid:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2000), st.integers(1, 150), st.integers(1, 150), st.floats(0.1, 1500.0))
    # Every term finite, but two of them 1.77e308 each: chi2 exceeds a double.
    @example(23, 1, 55, 749.0)
    def test_masks_drop_at_most_2_to_minus_71(self, n, p, q, exponent):
        b = _b_for_exponent(n, p, q, exponent)
        assume(_finite(n, p, q, b) and not _takes_series(n, p, q, b))
        full = _full_grid_terms(n, p, q, b).ravel().tolist()
        assume(np.isfinite(full).all())
        try:
            total = math.fsum(full)
        except OverflowError:
            with pytest.raises(OverflowError):
                chi_square_exact(n, p, q, b)
            return
        _, reads = _grid_reads(n, p, q, b)
        read = np.concatenate([terms.ravel() for _, _, terms in reads]).tolist()
        # A cell's term has the same bits in any tile, so fsum gives the
        # skipped cells' sum exactly rounded.
        skipped = math.fsum(full + [-x for x in read])
        assert abs(skipped) <= 2.0**-71 * abs(total)

    @pytest.mark.parametrize("d", [1, 30, 400, 2000])
    def test_log_weights_against_exact_binomials(self, d):
        # The pmf-weighted error of log(C(d, k) 2^-d) is about d ulp.
        mpmath = pytest.importorskip("mpmath")
        got = divergence._log_weights(d).tolist()
        assert len(got) == d + 1
        with mpmath.workdps(40):
            want = [mpmath.log(math.comb(d, k)) - d * mpmath.log(2) for k in range(d + 1)]
            err = sum(mpmath.exp(w) * abs(g - w) for g, w in zip(got, want))
        assert err <= 3 * d * 2.0**-52

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10**4), st.floats(1e-6, 0.999), st.integers(1, 9))
    def test_tile_peaks_are_the_largest_cell(self, n, c2, side):
        # Tiles of side x side cells, in all four sign quadrants and across
        # both axes: the bound is the largest cell's log |expm1(e)|, up to the
        # slack on a^2 U V.  Odd p and q keep e = 0 off the grid.
        p, q = 31, 41
        a = math.sqrt(c2 / (p * q))
        assume(-n * math.log1p(-c2) < 700.0)
        Us = np.arange(-p, p + 1, 2, dtype=float)
        Vs = np.arange(-q, q + 1, 2, dtype=float)
        rows, cols = np.arange(0, p + 1, side), np.arange(0, q + 1, side)
        e = -n * np.log1p(-(a * a * Us[:, None] * Vs[None, :]))
        cells = np.log(np.abs(np.expm1(e)))
        brute = np.maximum.reduceat(np.maximum.reduceat(cells, rows, axis=0), cols, axis=1)
        U_ends = Us[rows], Us[np.minimum(rows + side, p + 1) - 1]
        V_ends = Vs[cols], Vs[np.minimum(cols + side, q + 1) - 1]
        peaks = divergence._log_tile_peaks(a, n, U_ends, V_ends)
        assert peaks.shape == brute.shape
        assert np.all(brute <= peaks) and np.all(peaks <= brute + 1e-6 * np.maximum(1.0, np.abs(brute)))

    @pytest.mark.parametrize("n,p,q,exponent,calls", [
        (1000, 16389, 1, 1500.0, 1), (1000, 3000, 3, 600.0, 1), (1000, 300, 300, 900.0, 1),
        (20000, 10**4, 10**4, None, 7),
    ])
    def test_tile_bounds_in_blocks_of_rows(self, n, p, q, exponent, calls):
        # One bound evaluation per block of rows of tiles, each within one
        # tile's cells: a skinny grid takes one in place of one per row of
        # tiles (257 at p = 16389), and (1e4 + 1)^2 cells take 7 blocks of
        # 26 rows of 157 tiles.
        b = 1.42 if exponent is None else _b_for_exponent(n, p, q, exponent)
        assert not _takes_series(n, p, q, b)
        shapes = []
        log_tile_peaks = divergence._log_tile_peaks

        def recording(*args):
            peaks = log_tile_peaks(*args)
            shapes.append(peaks.shape)
            return peaks

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(divergence, "_log_tile_peaks", recording)
            chi_square_exact(n, p, q, b)
        assert len(shapes) == calls
        assert all(rows * cols <= TILE * TILE for rows, cols in shapes)
        assert sum(rows for rows, _ in shapes) == -(-(p + 1) // TILE)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3000), st.integers(1, 300), st.integers(1, 300), st.floats(0.1, 1500.0),
           st.sampled_from([3, 16, 64]))
    @example(1000, 3000, 3, 600.0, 64)
    @example(1000, 300, 300, 900.0, 16)
    def test_blocks_of_rows_keep_the_row_by_row_bits(self, n, p, q, exponent, tile):
        b = _b_for_exponent(n, p, q, exponent)
        assume(_finite(n, p, q, b) and not _takes_series(n, p, q, b))
        a = float(amplitude(n, p, q, b))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(divergence, "TILE", tile)
            with np.errstate(over="ignore"):
                got = divergence._grid_sum(n, p, q, a)
                want = _grid_sum_row_by_row(n, p, q, a, tile)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("exponent", [505.0, 560.0])
    def test_each_cell_read_at_most_once(self, exponent):
        n, p, q = 1000, 400, 400
        cells = _cells_read(n, p, q, _b_for_exponent(n, p, q, exponent))
        assert 0 < cells <= (p + 1) * (q + 1)

    def test_masks_skip_most_cells_far_from_the_edge(self):
        n, p, q = 5000, 2000, 2000
        assert 0 < _cells_read(n, p, q, 1.5) < 0.25 * (p + 1) * (q + 1)

    def test_tiles_skip_most_cells_at_large_pq(self):
        # The tiles read about 10% of the cells here; bounds per row and per
        # column read 42%.
        n, p, q = 20000, 10**4, 10**4
        assert 0 < _cells_read(n, p, q, 1.42) < 0.2 * (p + 1) * (q + 1)

    @pytest.mark.parametrize("c2", [0.05, 0.1])
    def test_rows_longer_than_a_block(self, c2):
        n, p, q = 20000, 40, 64 * TILE + 5
        b = math.sqrt(2.0 * n * c2 / math.sqrt(p * q))  # a^2 pq = c2
        assert not _takes_series(n, p, q, b)
        _assert_blocked_and_masked(n, p, q, b)

    def test_memory_is_blocked(self):
        # The whole grid would hold several 32 MB arrays at p = q = 2000, and
        # several 3.2 GB ones at p = q = 2e4.
        for n, p, b in ((5000, 2000, 1.5), (8000, 2000, 0.8), (10**5, 2 * 10**4, 1.2)):
            tracemalloc.start()
            try:
                chi_square_exact(n, p, p, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, b

    def test_overflow_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                chi_square_exact(8000, 200, 1000, 3.0)

    def test_divergent_and_near_divergent(self):
        n, p, q = 50, 6, 9
        edge = _b_edge(n, p, q)
        assert math.isfinite(chi_square_exact(n, p, q, edge * (1 - 1e-6)))
        with pytest.raises(OverflowError):
            chi_square_exact(n, p, q, edge * (1 - 1e-15))
        for b in (edge, edge * (1 + 1e-15), 2 * edge):
            with pytest.raises(DivergenceInfiniteError):
                chi_square_exact(n, p, q, b)

    @pytest.mark.parametrize("n,p,q,exponent", [
        (42, 289, 101, 1478.1905503243904),  # 1 - a^2 pq = 0.0
        (6, 281, 233, 224.0980699290061),  # 1 - a^2 pq = -4.4e-16
    ])
    def test_below_the_float_edge_yet_divergent(self, n, p, q, exponent):
        # b < _b_edge in floats, but not at the double a: chi2 is infinite.
        b = _b_for_exponent(n, p, q, exponent)
        assert b < _b_edge(n, p, q) and not _finite(n, p, q, b)
        with pytest.raises(DivergenceInfiniteError):
            chi_square_exact(n, p, q, b)

    @pytest.mark.parametrize("p,q", [
        (TILE - 2, 5),  # TILE - 1 rows: one row of tiles
        (9, TILE - 1),  # TILE columns: one column of tiles
        (TILE, 3),  # TILE + 1 rows: a last row of tiles one row high
        (2 * TILE, 2 * TILE),  # 2 TILE + 1 rows and columns
        (1, 3 * TILE + 5),  # rows longer than a tile
        (3 * TILE + 5, 1),  # columns longer than a tile
    ])
    def test_grid_shapes(self, p, q):
        n = 1000
        for exponent in (300.0, 700.0):
            _assert_blocked_and_masked(n, p, q, _b_for_exponent(n, p, q, exponent))

    def test_ragged_last_block(self):
        # 201 x 1001 cells: the last row of tiles is 9 rows high and the last
        # column of tiles 41 columns wide.
        n, p, q = 8000, 200, 1000
        last = (p // TILE * TILE, q // TILE * TILE)
        # At b = 1.3 the band of tiles read reaches the last row of tiles; at
        # b = 1.8 also the last column and the corner tile, at (U, V) = (p, q).
        tiles = _assert_blocked_and_masked(n, p, q, 1.3)
        assert any(r == last[0] for r, _ in tiles)
        tiles = _assert_blocked_and_masked(n, p, q, 1.8)
        assert last in tiles and any(r < last[0] and c == last[1] for r, c in tiles)

    @pytest.mark.parametrize("tile", [1, 3, 8, 64])
    @pytest.mark.parametrize("p,q", [(2, 42), (7, 30), (7, 32), (7, 126), (7, 128), (30, 70)])
    def test_small_blocks(self, monkeypatch, tile, p, q):
        # Tiles of one cell, ragged last tiles, and (at 64) tiles of whole columns.
        monkeypatch.setattr(divergence, "TILE", tile)
        n = 1000
        for exponent in (300.0, 510.0):
            _assert_blocked_and_masked(n, p, q, _b_for_exponent(n, p, q, exponent))

    @pytest.mark.parametrize("tile", [3, 16])
    @pytest.mark.parametrize("n,p,q,exponent", [
        (1000, 300, 300, 900.0), (1000, 3000, 3, 600.0), (1000, 2000, 20, 900.0),
        # Flat weights and terms across the tiles at the edge of the tiles read:
        # a bound with the largest weight in place of the weight mass skips too much.
        (10, 137, 152, 40.0),
    ])
    def test_masks_with_small_blocks(self, monkeypatch, tile, n, p, q, exponent):
        monkeypatch.setattr(divergence, "TILE", tile)
        tiles = _assert_blocked_and_masked(n, p, q, _b_for_exponent(n, p, q, exponent))
        assert len(tiles) < math.ceil((p + 1) / tile) * math.ceil((q + 1) / tile)

    @pytest.mark.parametrize("n", [2, 50])
    def test_near_divergent_rows(self, n):
        # A tile with a corner whose a^2 U V reaches 1 after the bound's slack
        # gets an infinite bound and is always read.  (At n = 1 the moment
        # series is certified even here.)
        p, q = 300, 400
        Us = np.arange(-p, p + 1, 2, dtype=float)
        Vs = np.arange(-q, q + 1, 2, dtype=float)
        layout = [(r0, c0) for r0 in range(0, p + 1, TILE) for c0 in range(0, q + 1, TILE)]
        for gap in (1e-6, 1e-12, 1e-15):
            b = _b_edge(n, p, q) * (1 - gap)
            a = float(amplitude(n, p, q, b))
            unbounded = {
                (r0, c0) for r0, c0 in layout
                if any(a * a * U * V * (1.0 + divergence._BOUND_SLACK) >= 1.0
                       for U in Us[r0:r0 + TILE][[0, -1]] for V in Vs[c0:c0 + TILE][[0, -1]])
            }
            # Only the grid's corners reach 1, and only within the slack of the edge.
            assert unbounded == ({(0, 0), layout[-1]} if gap == 1e-15 else set())
            got, reads = _grid_reads(n, p, q, b)
            assert unbounded <= {_tile_origin(p, q, U_read, V_read) for U_read, V_read, _ in reads}
            if got is OverflowError:
                assert _referee(n, p, q, b) == math.inf
            else:
                _assert_blocked_and_masked(n, p, q, b)

    @pytest.mark.parametrize("n", [40, 1000, 10**5])
    def test_term_switch_at_exponent_700(self, n):
        # A cell with e > 700 is taken as exp(log w + e) (-expm1(-e)), else as
        # w expm1(e): on both sides a term is w expm1(e) up to the rounding of
        # log w + e.  Rows U = x, a = V = 1 put e = -n log1p(-x) about 700.
        mpmath = pytest.importorskip("mpmath")
        x = -math.expm1(-700.0 / n)
        xs = [x]
        for direction in (0.0, 1.0):
            y = x
            for _ in range(6):
                y = float(np.nextafter(y, direction))
                xs.append(y)
        Us, logw = np.array(sorted(xs)), -300.0
        e = -n * np.log1p(-(1.0 * 1.0 * Us))
        assert e.min() <= 700.0 < e.max()
        terms = divergence._grid_terms(1.0, n, Us, np.ones(1), np.full(Us.size, logw), np.zeros(1))[:, 0]
        tol = 2.0**-52 * (abs(logw) + 710.0)
        with mpmath.workdps(40):
            for term, ei in zip(terms.tolist(), e.tolist()):
                want = mpmath.exp(logw) * mpmath.expm1(ei)
                assert abs(term - want) <= tol * want


def _scalar_gamma_eigs(a, p, q, ug, vh):
    """The scalar closed form as it was before ``gamma_eigs`` took arrays:
    (gamma_00, gamma_01, gamma_10, gamma_11, t)."""
    gammas = []
    for i in (0, 1):
        si = (-1.0) ** i
        trace = -2.0 * a * p * q + si * a * q * ug + si * a * p * vh
        prod = (p - si * ug) * (q - si * vh) * (a * a * p * q - 1.0)
        R = trace * trace - 4.0 * prod
        if R < 0:
            if R > -1e-9 * max(1.0, 4.0 * p * q):
                R = 0.0
            else:
                raise ArithmeticError(f"negative discriminant R = {R:.4g} (internal inconsistency)")
        root = math.sqrt(R)
        lo = 0.5 * (trace - root)
        hi = 0.5 * (trace + root)
        if trace >= 0.0:
            lo = prod / hi if hi != 0.0 else lo
        else:
            hi = prod / lo if lo != 0.0 else hi
        gammas.extend([lo, hi])
    denom = 1.0 - p * q * a * a
    t = a / denom if denom > 0 else math.inf
    return (*gammas, t)


class TestGammaEigs:
    def test_matches_numeric_small_amplitude(self):
        # a -> 0 limit with aligned sign vectors: eigenvalues +-2 sqrt(pq), 0, 0
        quad = gamma_eigs(1e-8, 3, 3, 3, 3)
        got = np.sort(np.array(quad.gammas))
        ones = np.ones(3)
        want = oracles.gamma_numeric(3, 3, ones @ ones, ones @ ones, 1e-8)
        assert got == pytest.approx(want, abs=1e-8)
        assert got == pytest.approx([-6.0, 0.0, 0.0, 6.0], abs=1e-6)

    def test_p1q1_explicit(self):
        u = v = g = h = np.array([1.0])
        got = np.sort(np.array(gamma_eigs(0.3, 1, 1, 1, 1).gammas))
        want = oracles.gamma_numeric(1, 1, u @ g, v @ h, 0.3)
        assert np.allclose(got, want, atol=1e-8)

    def test_product_identity_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            p = int(rng.integers(1, 9))
            q = int(rng.integers(1, 9))
            ug = int(rng.integers(0, p + 1)) * 2 - p
            vh = int(rng.integers(0, q + 1)) * 2 - q
            a = float(rng.uniform(0.01, 0.9 / math.sqrt(p * q)))
            quad = gamma_eigs(a, p, q, ug, vh)
            prod = float(np.prod([1.0 - quad.t * g for g in quad.gammas]))
            target = ((1.0 - a * a * ug * vh) / (1.0 - a * a * p * q)) ** 2
            assert prod == pytest.approx(target, rel=1e-10)

    def test_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            gamma_eigs(0.1, 3, 3, 2, 3)

    def test_array_form_matches_scalar_form(self):
        # Every configuration with p, q <= 10, every ug and vh, at nine
        # amplitudes c / sqrt(pq) from 0 to c -> 1: same bits, gammas and t.
        cs = [0.0, 1e-8, 0.01, 0.3, 0.7, 0.9, 0.999, 1 - 1e-9, 1 - 2.0**-50]
        configs = [(c / math.sqrt(p * q), p, q, ug, vh)
                   for p in range(1, 11) for q in range(1, 11) for c in cs
                   for ug in range(-p, p + 1, 2) for vh in range(-q, q + 1, 2)]
        assert len(configs) == 38_025
        quad = gamma_eigs(*(np.array(col) for col in zip(*configs)))
        got = np.column_stack(quad.gammas + (quad.t,))
        want = np.array([_scalar_gamma_eigs(*config) for config in configs])
        assert got.tobytes() == want.tobytes()

    def test_array_form_checks_every_element(self):
        with pytest.raises(ValueError):
            gamma_eigs(0.1, np.array([3, 3]), 3, np.array([3, 2]), 3)
        with pytest.raises(ValueError):
            gamma_eigs(0.1, 2, 2, np.array([0, 4]), 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            gamma_eigs(0.1, 2, 2, 4, 0)


class TestMgfValidity:
    def test_zero_amplitude(self):
        assert mgf_validity(0.0, 5, 5)

    def test_proposition_guarantee(self):
        # b below the MGF cap keeps every t*gamma below 1
        for (n, p, q) in [(40, 20, 20), (100, 30, 70), (10, 5, 5)]:
            kappa = (p + q) / n
            b = 0.99 * 0.5 / math.sqrt(kappa)
            assert mgf_validity(amplitude(n, p, q, b), p, q)

    def test_non_pd_fails(self):
        assert not mgf_validity(0.5, 4, 4)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(1, 60),
        st.floats(1e-6, 0.999),
        st.sampled_from([1.0, -1.0]),
    )
    def test_grid_maximum_sits_at_a_corner(self, p, q, c, sign):
        a = sign * c / math.sqrt(p * q)
        t = a / (1.0 - p * q * a * a)
        grid_max = float(np.max(t * oracles.gamma_grid(a, p, q)))
        corners = {
            (ug, vh): [t * g for g in gamma_eigs(a, p, q, ug, vh).gammas] for ug in (-p, p) for vh in (-q, q)
        }
        corner_max = max(corners[p, q])
        assert sorted(corners[p, q]) == sorted(corners[-p, -q])
        assert max(corners[p, -q] + corners[-p, q]) <= 0.0
        assert grid_max == pytest.approx(corner_max, rel=1e-12)
        c = abs(a) * math.sqrt(p * q)
        assert corner_max == pytest.approx(2.0 * c / (1.0 + c), rel=1e-12)
        assert mgf_validity(a, p, q) == (grid_max < 1.0)

    @pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-8, 2e-8, 1e-9])
    def test_near_boundary_matches_full_stable_grid(self, gap):
        # c = 1 - gap < 1 is valid however small the gap.  The stable kernel's
        # largest t * gamma over every (ug, vh) is 2c / (1 + c) up to the
        # rounding of t = a / (1 - pq a^2), about 1.1e-16 / gap, which is why
        # mgf_validity tests c < 1 instead of evaluating t * gamma < 1.
        c = 1.0 - gap
        for p in range(1, 9):
            for q in range(1, 9):
                for sign in (1.0, -1.0):
                    a = sign * c / math.sqrt(p * q)
                    assert mgf_validity(a, p, q)
                    t = a / (1.0 - p * q * a * a)
                    grid_max = max(
                        t * g
                        for ug in range(-p, p + 1, 2)
                        for vh in range(-q, q + 1, 2)
                        for g in gamma_eigs(a, p, q, ug, vh).gammas
                    )
                    assert abs(grid_max - 2.0 * c / (1.0 + c)) <= 2.3e-16 / gap


class TestClosedBoundAndSelectB:
    def test_vanishing_signal(self):
        assert chi_square_closed_bound(1e-9) == pytest.approx(0.0, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            chi_square_closed_bound(0.85)
        with pytest.raises(ValueError):
            chi_square_closed_bound(0.0)

    def test_divergence_budget_at_select_b(self):
        b = select_b(1.0, 0.05, 0.35)
        assert chi_square_closed_bound(b) <= 4 * 0.3**2

    def test_b_0196_case(self):
        assert chi_square_closed_bound(0.196) <= 0.36

    def test_select_b_frozen_value(self):
        assert select_b(1.0, 0.05, 0.35) == pytest.approx(SELECT_B_K1, rel=1e-14)

    def test_large_kappa_cap_dominates(self):
        assert select_b(1e6, 0.05, 0.35) == pytest.approx(0.5e-3, rel=1e-5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.01, 100.0),
        st.floats(0.001, 0.97),
        st.floats(0.001, 0.98),
    )
    def test_select_b_below_log4_cap(self, kappa, alpha, gap):
        beta = min(alpha + gap, 0.999)
        if not alpha < beta < 1:
            return
        assert 0 < select_b(kappa, alpha, beta) < 1.0 / math.sqrt(math.log(4.0))


class TestPowerUpper:
    def test_zero_signal_is_alpha(self):
        rep = minimax_power_upper(50, 5, 5, 0.0, 0.07)
        assert rep.power_upper == pytest.approx(0.07)
        assert rep.chi2_exact == 0.0

    def test_theorem_budget(self):
        b = select_b(1.0, 0.05, 0.35)
        for (n, p, q) in [(100, 20, 20), (400, 100, 100), (64, 32, 32)]:
            rep = minimax_power_upper(n, p, q, b, 0.05)
            assert rep.power_upper <= 0.35
            assert rep.pd_ok and rep.mgf_ok and rep.b_caps_ok

    def test_consistent_with_enumeration(self):
        rep = minimax_power_upper(4, 2, 2, 0.5, 0.05)
        chi2 = oracles.enumerate_chi_square(4, 2, 2, 0.5)
        assert rep.chi2_exact == pytest.approx(chi2, rel=1e-12)
        assert rep.power_upper == pytest.approx(0.05 + 0.5 * math.sqrt(chi2), rel=1e-12)


class TestHoeffdingTail:
    def test_mu_near_one_trivial(self):
        assert hoeffding_tail_bound(3, 3, 0.2, 1.0 + 1e-12) == pytest.approx(4.0, rel=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            hoeffding_tail_bound(3, 3, 0.2, 0.9)

    def test_decays_as_b_shrinks(self):
        vals = [hoeffding_tail_bound(4, 4, b, math.e) for b in (0.4, 0.3, 0.2, 0.1)]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(4.0 * math.exp(-1.0 / (0.01 * math.log(4.0))), rel=1e-12)

    def test_dominates_exact_tail(self):
        for (p, q) in [(3, 4), (6, 6), (5, 2)]:
            for b in (0.2, 0.35, 0.6):
                for mu in (1.2, 2.0, 5.0, 20.0):
                    threshold = (math.log(mu) / math.log(2.0)) * math.sqrt(p * q) / (b * b)
                    exact = oracles.enumerate_uv_tail(p, q, threshold)
                    assert exact <= hoeffding_tail_bound(p, q, b, mu) + 1e-15
