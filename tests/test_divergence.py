import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from indeplab import divergence, oracles
from indeplab.divergence import (
    BLOCK,
    DivergenceInfiniteError,
    chi_square_closed_bound,
    chi_square_exact,
    exact_sum,
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


def test_chi_square_divergent_configuration():
    # n=1, huge b: 1 - a^2 pq <= 0 at the extreme support point
    with pytest.raises(DivergenceInfiniteError):
        chi_square_exact(1, 4, 4, 4.0)


def test_chi_square_large_dimensions_no_overflow():
    b = select_b(1.0, 0.05, 0.35)
    val = chi_square_exact(10**6, 10**3, 10**3, b)
    assert np.isfinite(val) and val >= 0.0


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _outcome(fn, *args):
    """The bits of fn's value, or the type of the exception it raises."""
    try:
        return _bits(fn(*args))
    except Exception as exc:  # the type itself is compared
        return type(exc)


def _assert_matches_grid(n, p, q, b):
    """Same bits as the oracle, or the same exception; where the oracle
    overflows to inf, chi_square_exact raises OverflowError instead."""
    with np.errstate(over="ignore"):
        want = _outcome(oracles.chi_square_grid, n, p, q, b)
    if want == _bits(math.inf):
        want = OverflowError
    assert _outcome(chi_square_exact, n, p, q, b) == want


def _max_exponent(n, p, q, b):
    """Largest -n log1p(-a^2 U V) over the full grid, as the reference computes it."""
    a = amplitude(n, p, q, b)
    Us = np.arange(-p, p + 1, 2, dtype=float)
    Vs = np.arange(-q, q + 1, 2, dtype=float)
    return float(np.max(-n * np.log1p(-(a * a * Us[:, None] * Vs[None, :]))))


def _b_for_exponent(n, p, q, exponent):
    """b at which the corner exponent -n log1p(-a^2 pq) is about ``exponent``."""
    x = -math.expm1(-exponent / n)
    return math.sqrt(2.0 * n * x / math.sqrt(p * q))


def _max_count(n, p, q, b):
    """How many log-terms equal the largest one over the full grid."""
    a = amplitude(n, p, q, b)
    Us = np.arange(-p, p + 1, 2, dtype=float)
    Vs = np.arange(-q, q + 1, 2, dtype=float)
    k = np.arange(p + 1, dtype=float)
    l = np.arange(q + 1, dtype=float)
    logw_p = gammaln(p + 1) - gammaln(k + 1) - gammaln(p - k + 1) - p * math.log(2.0)
    logw_q = gammaln(q + 1) - gammaln(l + 1) - gammaln(q - l + 1) - q * math.log(2.0)
    z = logw_p[::-1, None] + logw_q[None, ::-1] - n * np.log1p(-(a * a * Us[:, None] * Vs[None, :]))
    return int(np.count_nonzero(z == z.max()))


def _switch_window(n, p, q):
    """Adjacent doubles lo < hi of b with the largest exponent below 500 at lo, not at hi."""
    lo = hi = _b_for_exponent(n, p, q, 500.0)
    lo, hi = lo * (1 - 1e-9), hi * (1 + 1e-9)
    assert _max_exponent(n, p, q, lo) < 500.0 <= _max_exponent(n, p, q, hi)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        if _max_exponent(n, p, q, mid) < 500.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


class TestExactSum:
    @staticmethod
    def _check(values, chunk=None):
        values = np.asarray(values, dtype=float)
        chunks = [values] if chunk is None else [values[i : i + chunk] for i in range(0, values.size, chunk)]
        assert _bits(exact_sum(chunks)) == _bits(math.fsum(values))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-1e300, 1e300, allow_subnormal=True), max_size=200),
        st.integers(1, 50),
    )
    def test_mixed_exponents(self, values, chunk):
        self._check(values)
        self._check(values, chunk)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-1e300, 1e300, allow_subnormal=True), min_size=1, max_size=100),
        st.floats(-1e300, 1e300, allow_subnormal=True),
        st.randoms(use_true_random=False),
    )
    def test_exact_cancellation(self, values, extra, rnd):
        mixed = values + [-v for v in values] + [extra]
        rnd.shuffle(mixed)
        self._check(mixed)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-960, 960), st.sampled_from([1.0, -1.0]), st.integers(-3, 3))
    def test_half_way_cases(self, k, sign, nudge):
        # 1 + 2^-53 is a tie; the 2^-106 tail and its sign decide the rounding.
        tail = 2.0 ** (-106 + nudge) if nudge else 0.0
        for values in ([1.0, 2.0**-53, tail], [1.0, 2.0**-53, -tail], [1.0 + 2.0**-52, 2.0**-53, -tail]):
            self._check([sign * math.ldexp(v, k) for v in values])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-1074 + 53, 960), st.integers(0, 3))
    def test_full_block_of_largest_mantissas(self, k, extra):
        value = math.ldexp(2.0**53 - 1.0, k - 53)
        self._check(np.full(BLOCK + extra, value))
        self._check(np.concatenate([np.full(BLOCK, value), [-value] * extra]))

    def test_subnormals_and_signed_zeros(self):
        tiny = 5e-324
        self._check([-0.0, -0.0])
        self._check([0.0, -0.0, tiny, -tiny])
        self._check([tiny] * 7 + [2.2250738585072014e-308, -3 * tiny])
        self._check([])

    def test_folds_between_slices(self, monkeypatch):
        monkeypatch.setattr(divergence, "BLOCK", 3)
        monkeypatch.setattr(divergence, "_FOLD_EVERY", 2)
        rng = np.random.default_rng(11)
        values = rng.standard_normal(101) * 10.0 ** rng.integers(-300, 300, 101)
        self._check(values)
        self._check(values, 7)

    def test_rejects_non_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                exact_sum([np.array([1.0, bad])])


class TestChiSquareMatchesGrid:
    """chi_square_exact equals the full-grid oracle bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 10**5),
        st.integers(1, 60),
        st.integers(1, 60),
        st.one_of(st.floats(0.0, 3.0), st.floats(1e-300, 1e-3)),
    )
    def test_random_points(self, n, p, q, b):
        _assert_matches_grid(n, p, q, b)

    @pytest.mark.parametrize("n,p,q", [(1000, 3, 5), (40, 7, 2), (10**5, 30, 30)])
    def test_path_switch_at_exponent_500(self, n, p, q):
        # Bisect b to where the largest exponent crosses 500, then compare
        # every b within a few ulps of it on both sides.
        lo, _ = _switch_window(n, p, q)
        window = [lo]
        for direction in (-math.inf, math.inf):
            b = lo
            for _ in range(6):
                b = float(np.nextafter(b, direction))
                window.append(b)
        exponents = [_max_exponent(n, p, q, b) for b in window]
        assert min(exponents) < 500.0 <= max(exponents)
        for b in window:
            _assert_matches_grid(n, p, q, b)

    @pytest.mark.parametrize("exponent,small_path", [(30.0, True), (600.0, False)])
    def test_rows_longer_than_a_block(self, exponent, small_path):
        # q + 1 > BLOCK: slices start and end inside rows.
        n, p, q = 1000, 2, BLOCK + 5
        b = _b_for_exponent(n, p, q, exponent)
        assert (_max_exponent(n, p, q, b) < 500.0) == small_path
        _assert_matches_grid(n, p, q, b)

    def test_ragged_last_block(self):
        n, p, q = 8000, 200, 1000
        assert (p + 1) * (q + 1) % BLOCK != 0
        for b in (0.05, select_b(1.0, 0.05, 0.35), 1.2, 1.5):
            _assert_matches_grid(n, p, q, b)
        assert _max_exponent(n, p, q, 1.2) < 500.0 <= _max_exponent(n, p, q, 1.5)

    def test_divergent_and_near_divergent(self):
        n, p, q = 50, 6, 9
        b_edge = math.sqrt(2.0 * n / math.sqrt(p * q))  # a^2 pq = 1
        for b in (b_edge * (1 - 1e-6), b_edge * (1 - 1e-15), b_edge, b_edge * (1 + 1e-15), 2 * b_edge):
            _assert_matches_grid(n, p, q, b)
        with pytest.raises(DivergenceInfiniteError):
            chi_square_exact(n, p, q, 2 * b_edge)

    def test_memory_is_blocked(self):
        # The default b takes the small-value path, b = 0.8 the logsumexp path.
        n, p, q = 8000, 2000, 2000
        assert _max_exponent(n, p, q, select_b(1.0, 0.05, 0.35)) < 500.0 <= _max_exponent(n, p, q, 0.8)
        for b in (select_b(1.0, 0.05, 0.35), 0.8):
            tracemalloc.start()
            try:
                chi_square_exact(n, p, q, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # The full grid would hold several 32 MB (2001 x 2001 float) arrays.
            assert peak < 16 * 2**20, b


class TestLogsumexpPath:
    """The streamed logsumexp path equals the full-grid oracle bit for bit.

    chi_square_exact replays the pairwise summation tree of numpy's ``np.sum``
    over slices of the grid, so these tests are also the guard against a
    change in numpy's summation tree (its split rule or its 128-element
    leaves): such a change makes them fail, not the results drift silently.
    The chi-square values keep few of the sum's last bits (zmax + log(...)
    cancels), so the replay itself is checked on standard normal data too,
    where any other tree changes the bits.
    """

    SIZES = (1, 127, 128, 129, 248, 264, 1016, 1032, BLOCK - 8, BLOCK + 8, 2**17 - 8, 2**17 + 8, 300_007)

    @pytest.mark.parametrize("block", [3, 100, 128, 200, BLOCK])
    def test_pairwise_replay_matches_np_sum(self, monkeypatch, block):
        monkeypatch.setattr(divergence, "BLOCK", block)
        rng = np.random.default_rng(5)
        for size in self.SIZES:
            x = rng.standard_normal(size)
            got = divergence._pairwise_sum(lambda i, j: np.sum(x[i:j]), 0, size)
            assert _bits(got) == _bits(np.sum(x)), size

    @pytest.mark.parametrize("block", [3, 128, BLOCK])
    @pytest.mark.parametrize("maxima", [1, 2, 5])
    def test_streamed_logsumexp_matches_scipy(self, monkeypatch, block, maxima):
        monkeypatch.setattr(divergence, "BLOCK", block)
        rng = np.random.default_rng(maxima)
        for size in self.SIZES:
            z = 1e-3 * rng.standard_normal(size)
            z[rng.integers(0, size, maxima)] = 0.01
            got = divergence._expm1_logsumexp(lambda i, j: z[i:j], size)
            assert _bits(got) == _bits(np.expm1(logsumexp(z.reshape(1, -1)))), size

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(200, 10**5),
        st.integers(1, 120),
        st.integers(1, 120),
        st.floats(500.0, 3000.0),
    )
    def test_random_points(self, n, p, q, exponent):
        b = _b_for_exponent(n, p, q, exponent)
        assume(_max_exponent(n, p, q, b) >= 500.0)
        _assert_matches_grid(n, p, q, b)

    @pytest.mark.parametrize(
        "p,q",
        [
            (2, BLOCK + 5),  # rows longer than a block and than a leaf
            (BLOCK + 5, 1),  # many two-element rows
            (1, BLOCK // 2 - 5),  # BLOCK - 8 elements: a single leaf
            (1, BLOCK // 2 + 3),  # BLOCK + 8 elements: two leaves
            (7, 2**14 - 2),  # 2^17 - 8 elements
            (7, 2**14),  # 2^17 + 8 elements
        ],
    )
    def test_grid_shapes(self, p, q):
        n = 1000
        for exponent in (510.0, 900.0):
            b = _b_for_exponent(n, p, q, exponent)
            assert _max_exponent(n, p, q, b) >= 500.0
            _assert_matches_grid(n, p, q, b)

    @pytest.mark.parametrize("block", [3, 100, 128, 200])
    @pytest.mark.parametrize("p,q", [(2, 42), (7, 30), (7, 32), (7, 126), (7, 128), (30, 70)])
    def test_small_leaves(self, monkeypatch, block, p, q):
        # Grids of 129, 2^k +- 8 and 2201 elements: the half % 8 rounding at
        # every level, and no split of a run of 128 or fewer, whatever BLOCK is.
        monkeypatch.setattr(divergence, "BLOCK", block)
        n = 1000
        for exponent in (510.0, 900.0):
            _assert_matches_grid(n, p, q, _b_for_exponent(n, p, q, exponent))

    @pytest.mark.parametrize("p,q,m", [(100, 312, 1), (100, 100, 2)])
    def test_count_of_maxima(self, p, q, m):
        # logsumexp divides the rest of the sum by the number of maxima.
        n = 1000
        b = _b_for_exponent(n, p, q, 520.0)
        assert _max_count(n, p, q, b) == m
        _assert_matches_grid(n, p, q, b)

    def test_overflow_raises(self):
        n, p, q, b = 8000, 200, 1000, 3.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                chi_square_exact(n, p, q, b)
        _assert_matches_grid(n, p, q, b)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(100, 10**5), st.integers(1, 300), st.integers(1, 300))
    def test_continuous_across_the_switch(self, n, p, q):
        # One ulp of b apart, the small-value path and the logsumexp path
        # agree to 1e-9 relative.  From n = 100 up, chi2 itself moves by less
        # than 1e-11 over that ulp; below, its slope 2n e^(500/n) takes over
        # (about 5e-10 at n = 50).
        lo, hi = _switch_window(n, p, q)
        below, above = chi_square_exact(n, p, q, lo), chi_square_exact(n, p, q, hi)
        assert above == pytest.approx(below, rel=1e-9)


def _counting_slices(mp):
    """Wrap ``divergence._support_slice``; the list returned holds the number of cells it evaluated."""
    evaluated = [0]
    slicer = divergence._support_slice

    def counting(a, n, Us, Vs, logw_p, logw_q, start, stop):
        evaluated[0] += stop - start
        return slicer(a, n, Us, Vs, logw_p, logw_q, start, stop)

    mp.setattr(divergence, "_support_slice", counting)
    return evaluated


def _checked_cells(n, p, q, b):
    """Check chi_square_exact against the oracle bit for bit; return the cells it evaluated."""
    with pytest.MonkeyPatch.context() as mp:
        evaluated = _counting_slices(mp)
        _assert_matches_grid(n, p, q, b)
    return evaluated[0]


class TestCertifiedWindows:
    """Both paths evaluate only the cells their row and column bounds cannot
    rule out of the result, and keep the full grid's bits (the oracle's)."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(100, 10**5), st.integers(150, 600), st.integers(150, 600), st.floats(1e-3, 499.0))
    def test_small_path_window(self, n, p, q, exponent):
        b = _b_for_exponent(n, p, q, exponent)
        assume(_max_exponent(n, p, q, b) < 500.0)
        # Fewer cells than the grid: the window dropped some and was certified.
        assume(_checked_cells(n, p, q, b) < (p + 1) * (q + 1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(200, 10**5), st.integers(150, 600), st.integers(150, 600), st.floats(500.0, 1500.0))
    def test_logsumexp_skips(self, n, p, q, exponent):
        b = _b_for_exponent(n, p, q, exponent)
        assume(_max_exponent(n, p, q, b) >= 500.0)
        # The first pass reads at least one row, so the second skipped nodes.
        assume(_checked_cells(n, p, q, b) < (p + 1) * (q + 1))

    # At p = 4 no row is dropped, so only the columns' bounds fail the certificate.
    @pytest.mark.parametrize("n,p,q,exponent", [(8000, 400, 300, 2.0), (30, 300, 200, 100.0), (8000, 4, 600, 2.0)])
    def test_forced_fallback(self, monkeypatch, n, p, q, exponent):
        # A margin of 1 leaves dropped cells worth up to half of chi2, far
        # more than an ulp, so the certificate fails and the four bands
        # outside the window are added to its exact total: each cell once.
        b = _b_for_exponent(n, p, q, exponent)
        assert _max_exponent(n, p, q, b) < 500.0
        assert _checked_cells(n, p, q, b) < (p + 1) * (q + 1)
        totals = []
        exact_total = divergence._exact_total
        monkeypatch.setattr(divergence, "_exact_total", lambda chunks: totals.append(1) or exact_total(chunks))
        monkeypatch.setattr(divergence, "_WINDOW_MARGIN", 1.0)
        assert _checked_cells(n, p, q, b) == (p + 1) * (q + 1)
        assert len(totals) == 5

    # Found by a probe of 1,500 random points with b log-uniform in [1e-20, 0.1].
    @pytest.mark.parametrize("n,p,q,b", [
        (225, 284, 10, 4.38e-11), (255, 4, 304, 2.31306317231167e-09),
        (698, 267, 7, 1.811946219314848e-10), (96, 4, 333, 5.223739465341126e-18),
    ])
    def test_tiny_b_reads_each_cell_once(self, monkeypatch, n, p, q, b):
        # The window's terms cancel exactly (chi2 is lost to rounding), so no
        # certificate can hold; the cells outside the window are then read
        # once, and the result keeps the oracle's bits, sign of zero included.
        reads = []
        terms = divergence._expm1_terms

        def counting(a, n, Us, Vs, *rest):
            reads.append(Us.size * Vs.size)
            return terms(a, n, Us, Vs, *rest)

        monkeypatch.setattr(divergence, "_expm1_terms", counting)
        _assert_matches_grid(n, p, q, b)
        assert 0 < reads[0] < (p + 1) * (q + 1) and sum(reads) == (p + 1) * (q + 1)

    @pytest.mark.parametrize("block", [128, 200])
    @pytest.mark.parametrize("n,p,q,exponent", [(1000, 300, 300, 900.0), (1000, 3000, 3, 600.0), (1000, 2000, 20, 900.0)])
    def test_deep_skips_with_tiny_blocks(self, monkeypatch, block, n, p, q, exponent):
        monkeypatch.setattr(divergence, "BLOCK", block)
        visited = []
        pairwise = divergence._pairwise_sum

        def recording(leaf_sum, start, length, *bound):
            visited.append((start, length))
            return pairwise(leaf_sum, start, length, *bound)

        monkeypatch.setattr(divergence, "_pairwise_sum", recording)
        size = (p + 1) * (q + 1)
        assert _checked_cells(n, p, q, _b_for_exponent(n, p, q, exponent)) < size
        # A child of a visited inner node that was never visited was skipped.
        seen = set(visited)
        skipped = []
        for start, length in visited:
            if length > block:
                half = length // 2 - length // 2 % 8
                skipped += [c for c in ((start, half), (start + half, length - half)) if c not in seen]
        # At least three levels below the root.
        assert skipped and min(length for _, length in skipped) <= size // 8

    @pytest.mark.parametrize("p,exponent", [(300, 600.0), (400, 700.0)])
    def test_count_of_maxima(self, p, exponent):
        n = 1000
        b = _b_for_exponent(n, p, p, exponent)
        assert _max_count(n, p, p, b) == 2
        assert _checked_cells(n, p, p, b) < (p + 1) ** 2

    @pytest.mark.parametrize("n", [1, 50])
    def test_near_divergent_rows(self, n):
        # Rows whose bound argument a^2 |U| q reaches 1 get an infinite bound
        # and are always evaluated.  n = 1 stays on the small-value path.
        p, q = 300, 400
        b_edge = math.sqrt(2.0 * n / math.sqrt(p * q))
        for gap in (1e-6, 1e-12, 1e-15):
            b = b_edge * (1 - gap)
            assert (_max_exponent(n, p, q, b) < 500.0) == (n == 1)
            _checked_cells(n, p, q, b)

    def test_cells_evaluated_at_the_benchmark_point(self):
        n, p, q = 8000, 2000, 2000
        for b, share in ((select_b(1.0, 0.05, 0.35), 0.1), (0.8, 0.4)):
            assert _checked_cells(n, p, q, b) < share * (p + 1) * (q + 1), b


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
