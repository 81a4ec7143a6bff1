import itertools
import math
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indeplab import stat_tests
from indeplab.divergence import select_b
from indeplab.oracles import permuted_stats_loop
from indeplab.stat_tests import (
    PERM_BUFFER_BYTES,
    PERM_CHUNK,
    PERM_MIN_WORK,
    Dataset,
    PowerEstimate,
    cross_cov_stat,
    estimate_avg_power,
    estimate_level,
    perm_chunk_size,
    perm_work_floor,
    permutation_test,
    phase_curve,
    rejection_limit,
    scenario_regression,
    scenario_two_sample,
    wilson_interval,
)
from indeplab.structured_cov import LeastFavorableCov, sample_dataset


def _products(ds, B, rng, alpha=0.05, stop_early=False):
    """The decision of ``permutation_test`` and the products its loop computed,
    in order, read off a recorder on its kernel ``stat_tests._stats``.  The
    first product leads with the identity permutation's row."""
    kernel, products = stat_tests._stats, []

    def record(xt, y, rows):
        products.append(kernel(xt, y, rows))
        return products[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stat_tests, "_stats", record)
        dec = permutation_test(ds, B, alpha, rng, stop_early=stop_early)
    return dec, products


def _permuted_chunks(ds, B, rng):
    """The full test's products of B permuted statistics, each of the product
    cap but the last, with the first one's leading identity row (the observed
    statistic) dropped."""
    products = _products(ds, B, rng)[1]
    chunks = [products[0][1:]] + products[1:]
    assert max(map(len, chunks)) == min(B, perm_chunk_size(ds.n, ds.p, ds.q))
    return chunks


def make_ds(x, y):
    x = np.atleast_2d(np.asarray(x, float).T).T
    y = np.atleast_2d(np.asarray(y, float).T).T
    return Dataset(values=np.hstack([x, y]), p=x.shape[1], q=y.shape[1])


class TestCrossCovStat:
    def test_zero_y(self):
        ds = make_ds(np.random.default_rng(0).standard_normal((10, 3)), np.zeros((10, 2)))
        assert cross_cov_stat(ds) == 0.0

    def test_hand_computation(self):
        ds = make_ds([[1.0], [-1.0]], [[1.0], [-1.0]])
        assert cross_cov_stat(ds) == pytest.approx(1.0)

    def test_null_expectation_scaling(self):
        # uncentered: E[n * stat] = pq under the null
        rng = np.random.default_rng(21)
        n, p, q, reps = 100, 2, 2, 3000
        vals = []
        for _ in range(reps):
            ds = sample_dataset(None, n, rng, p=p, q=q)
            vals.append(n * cross_cov_stat(ds))
        mean = float(np.mean(vals))
        se = float(np.std(vals) / math.sqrt(reps))
        assert abs(mean - p * q) < 4 * se

    def test_invariant_under_joint_row_permutation(self):
        rng = np.random.default_rng(3)
        ds = sample_dataset(None, 40, rng, p=3, q=2)
        perm = rng.permutation(40)
        permuted = Dataset(values=ds.values[perm], p=3, q=2)
        assert cross_cov_stat(permuted) == pytest.approx(cross_cov_stat(ds), rel=1e-12)


class TestPermutationTest:
    def test_minimum_permutations(self):
        ds = make_ds(np.zeros((5, 1)), np.zeros((5, 1)))
        with pytest.raises(ValueError):
            permutation_test(ds, 5, 0.05, np.random.default_rng(0))

    def test_p_value_floor(self):
        rng = np.random.default_rng(10)
        lf = LeastFavorableCov(u=np.ones(2), v=np.ones(2), a=0.4)
        ds = sample_dataset(lf, 500, rng)
        dec = permutation_test(ds, 19, 0.05, rng)
        # strong signal: rejects only by beating all 19 permutations
        assert dec.p_value >= 1 / 20
        if dec.reject:
            assert dec.p_value == pytest.approx(1 / 20)

    def test_exchangeable_input_invariance(self):
        rng = np.random.default_rng(17)
        ds = sample_dataset(None, 30, rng, p=2, q=2)
        perm = np.random.default_rng(5).permutation(30)
        shuffled = Dataset(values=ds.values[perm], p=2, q=2)
        d1 = permutation_test(ds, 99, 0.05, np.random.default_rng(1))
        d2 = permutation_test(shuffled, 99, 0.05, np.random.default_rng(1))
        assert d1.statistic == pytest.approx(d2.statistic, rel=1e-12)

    def test_reject_iff_p_below_alpha(self):
        rng = np.random.default_rng(2)
        ds = sample_dataset(None, 25, rng, p=2, q=1)
        dec = permutation_test(ds, 39, 0.05, rng)
        assert dec.reject == (dec.p_value <= 0.05)

    def test_level_on_nongaussian_exchangeable_null(self):
        # heavy-tailed rows: exactness needs only exchangeability
        rejections = 0
        trials = 400
        for i in range(trials):
            rng = np.random.default_rng([31, i])
            vals = rng.standard_t(df=2, size=(20, 4))
            ds = Dataset(values=vals, p=2, q=2)
            rejections += permutation_test(ds, 99, 0.1, rng).reject
        se = math.sqrt(0.1 * 0.9 / trials)
        assert rejections / trials <= 0.1 + 3 * se


@st.composite
def alphas(draw, B: int) -> float:
    """An alpha below 1/(B+1) (limit -1), on a p-value grid point (c+1)/(B+1)
    or one ulp either side of it, or anywhere in (0, 1)."""
    kind = draw(st.sampled_from(["below", "at_grid", "uniform"]))
    if kind == "below":
        return draw(st.floats(1e-6, 1.0 / (B + 1), exclude_max=True))
    if kind == "at_grid":
        grid = (draw(st.integers(0, B)) + 1) / (B + 1)
        return float(np.nextafter(grid, grid + draw(st.sampled_from([-1.0, 0.0, 1.0]))))
    return draw(st.floats(1e-3, 0.999))


@st.composite
def perm_cases(draw):
    """Random (n, p, q) data with a random amount of X-Y coupling, a B from
    the supported mix and an alpha from ``alphas``."""
    n = draw(st.integers(3, 40))
    p = draw(st.integers(1, 6))
    q = draw(st.integers(1, 6))
    B = draw(st.sampled_from([19, 20, 99, 200]))
    alpha = draw(alphas(B))
    coupling = draw(st.floats(0.0, 2.0))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = coupling * x[:, :1] + rng.standard_normal((n, q))
    ds = Dataset(values=np.hstack([x, y]), p=p, q=q)
    return ds, B, alpha, seed


class TestSequentialPermutationTest:
    @settings(max_examples=60, deadline=None)
    @given(perm_cases())
    def test_decision_matches_full_test(self, case):
        ds, B, alpha, seed = case
        full = permutation_test(ds, B, alpha, np.random.default_rng(seed))
        seq = permutation_test(ds, B, alpha, np.random.default_rng(seed), stop_early=True)
        assert seq.reject == full.reject
        assert seq.statistic == full.statistic
        assert 0 <= seq.permutations <= B
        assert math.isnan(seq.p_value)
        assert full.permutations == B
        if seq.reject:
            # A rejection is fixed only once too few statistics remain to pass the limit.
            assert seq.permutations >= B - rejection_limit(B, alpha)

    @settings(max_examples=80, deadline=None)
    @given(perm_cases(), st.sampled_from([1, 2, 5, PERM_CHUNK, 10**6]))
    def test_schedule_stops_where_the_loop_fixes_the_verdict(self, case, floor):
        # A work floor of one sizes each product to the stopping point, so the
        # test stops at the first statistic of the loop that fixes its
        # verdict; a floor at the cap keeps every product at the cap, so it
        # stops at the first chunk boundary that does.  Any floor stops where
        # products of min(cap, max(floor, need)) reach a fixed verdict, fewer
        # than min(floor, cap) statistics past the first.
        ds, B, alpha, seed = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stat_tests, "PERM_MIN_WORK", floor * ds.n * ds.q * (ds.p + 1))
            assert perm_work_floor(ds.n, ds.p, ds.q) == floor
            dec, products = _products(ds, B, np.random.default_rng(seed), alpha, stop_early=True)
        loop = permuted_stats_loop(ds, B, np.random.default_rng(seed))
        counts = np.concatenate([[0], np.cumsum(loop >= cross_cov_stat(ds))])
        limit = rejection_limit(B, alpha)
        cap = perm_chunk_size(ds.n, ds.p, ds.q)

        def first_fixed(ends):
            return next(m for m in ends if counts[m] > limit or counts[m] + B - m <= limit)

        def product_ends():
            done = 0
            while True:
                yield done
                need = min(limit + 1 - counts[done], B - done - limit + counts[done])
                done = min(B, done + min(cap, max(floor, need)))

        fixed = first_fixed(range(B + 1))
        assert dec.reject == (counts[B] <= limit)
        assert dec.permutations == first_fixed(product_ends())
        if dec.permutations:
            # The recorded products have those sizes, and the loop's statistics.
            starts = list(itertools.takewhile(lambda m: m < dec.permutations, product_ends()))
            ends = starts[1:] + [dec.permutations]
            assert [len(c) for c in products] == [e - s + (s == 0) for s, e in zip(starts, ends)]
            assert np.array_equal(np.concatenate(products)[1:], loop[:dec.permutations])
        assert fixed <= dec.permutations <= min(B, fixed + min(floor, cap) - 1)
        if floor == 1:
            assert dec.permutations == fixed
        if floor >= cap:
            assert dec.permutations == first_fixed([0] + [min(j, B) for j in range(cap, B + cap, cap)])

    @settings(max_examples=60, deadline=None)
    @given(perm_cases())
    def test_chunked_statistics_bitwise_equal_loop(self, case):
        ds, B, _, seed = case
        chunked = np.concatenate(_permuted_chunks(ds, B, np.random.default_rng(seed)))
        loop = permuted_stats_loop(ds, B, np.random.default_rng(seed))
        assert np.array_equal(chunked, loop)

    # p = 1 puts a single row on the left of matmul, whose rounding depends
    # on the layout of the gathered Y rows.
    @pytest.mark.parametrize("n,p,q", [(50, 5, 5), (200, 10, 10), (200, 50, 50), (30, 3, 7), (23, 1, 3)])
    def test_chunked_statistics_bitwise_equal_loop_at_benchmark_shapes(self, n, p, q):
        ds = sample_dataset(None, n, np.random.default_rng(n + p), p=p, q=q)
        chunked = np.concatenate(_permuted_chunks(ds, 40, np.random.default_rng(1)))
        assert np.array_equal(chunked, permuted_stats_loop(ds, 40, np.random.default_rng(1)))

    @pytest.mark.parametrize("B", [19, 41])
    def test_chunked_statistics_bitwise_equal_loop_ragged_and_single(self, monkeypatch, B):
        # B = 19 and 41 leave a ragged last chunk of 3 and 9; a one-byte
        # buffer cap forces chunks of one permutation.
        ds = sample_dataset(None, 23, np.random.default_rng(B), p=3, q=2)
        loop = permuted_stats_loop(ds, B, np.random.default_rng(9))
        chunks = _permuted_chunks(ds, B, np.random.default_rng(9))
        assert [len(c) for c in chunks] == [PERM_CHUNK] * (B // PERM_CHUNK) + [B % PERM_CHUNK]
        assert np.array_equal(np.concatenate(chunks), loop)
        monkeypatch.setattr(stat_tests, "PERM_BUFFER_BYTES", 1)
        chunks = _permuted_chunks(ds, B, np.random.default_rng(9))
        assert [len(c) for c in chunks] == [1] * B
        assert np.array_equal(np.concatenate(chunks), loop)

    @pytest.mark.parametrize("coupling,alpha,stop_early",
                             [(3.0, 0.05, True), (0.0, 0.05, True), (0.0, 0.5 / 100, True), (0.0, 0.05, False)])
    def test_generator_advances_by_exactly_the_draws_made(self, coupling, alpha, stop_early):
        # Reject, accept and no-draw stops, and the full test: the generator
        # has advanced by exactly ``permutations`` rng.permutation(n) draws.
        data = np.random.default_rng(12)
        x = data.standard_normal((60, 3))
        ds = Dataset(values=np.hstack([x, coupling * x + data.standard_normal((60, 3))]), p=3, q=3)
        rng = np.random.default_rng(77)
        dec = permutation_test(ds, 99, alpha, rng, stop_early=stop_early)
        assert (dec.permutations < 99) == stop_early
        ref = np.random.default_rng(77)
        for _ in range(dec.permutations):
            ref.permutation(60)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("B", [19, 20, 99, 200])
    def test_limit_agrees_with_p_value_rule(self, B):
        # Every p-value grid point and its float neighbours, where a limit
        # derived from floor(alpha (B+1)) alone would be off by one.
        grid = [(c + 1) / (B + 1) for c in range(-1, B + 1)]
        candidates = [-0.5, 1e-6, 1.5] + [float(np.nextafter(g, g + d)) for g in grid for d in (-1.0, 0.0, 1.0)]
        counts = np.arange(B + 1)
        for alpha in candidates:
            limit = rejection_limit(B, alpha)
            assert -1 <= limit <= B
            assert np.array_equal(counts <= limit, (1 + counts) / (B + 1) <= alpha)

    @pytest.mark.parametrize("min_work", [1, 10**12])
    @pytest.mark.parametrize("alpha", [0.05, 9 / 201, 8 / 201])
    def test_strong_signal_stops_at_first_fixed_chunk(self, monkeypatch, alpha, min_work):
        # No permuted statistic reaches the observed one, so the rejection is
        # fixed once B - limit statistics are in: there with a work floor of
        # one, at the next chunk boundary with a floor at the cap.
        monkeypatch.setattr(stat_tests, "PERM_MIN_WORK", min_work)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 3))
        ds = Dataset(values=np.hstack([x, x + 0.1 * rng.standard_normal((60, 3))]), p=3, q=3)
        B = 200
        dec = permutation_test(ds, B, alpha, rng, stop_early=True)
        needed = B - rejection_limit(B, alpha)
        assert dec.reject
        if min_work == 1:
            assert dec.permutations == needed
        else:
            assert dec.permutations == min(B, -(-needed // PERM_CHUNK) * PERM_CHUNK)

    def test_alpha_below_grid_never_rejects_and_evaluates_nothing(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((60, 3))
        ds = Dataset(values=np.hstack([x, x]), p=3, q=3)
        dec = permutation_test(ds, 99, 0.5 / 100, rng, stop_early=True)
        assert not dec.reject and dec.permutations == 0

    def test_estimator_matches_full_tests_per_trial(self):
        # Same per-trial streams as the full test: rejections unchanged, fewer statistics.
        est = estimate_level(30, 3, 3, trials=100, B=39, seed=7, alpha=0.1)
        full = 0
        for i in range(100):
            rng = np.random.default_rng([7, i])
            full += permutation_test(sample_dataset(None, 30, rng, p=3, q=3), 39, 0.1, rng).reject
        assert est.rejections == full
        assert 0 < est.permutations < 100 * 39


# Every row permutation of Y at n = 7, the identity first.
ALL_PERMS_7 = np.array(list(itertools.permutations(range(7))))


def _all_stats_7(ds):
    """The statistic at each of ``ALL_PERMS_7``, through the kernel."""
    return stat_tests._stats(ds.x.T, np.ascontiguousarray(ds.y), ALL_PERMS_7)


def _exact_share(ds):
    """pi: the share of all n! row permutations of Y whose statistic is at
    least the observed one (the identity's)."""
    stats = _all_stats_7(ds)
    return np.count_nonzero(stats >= stats[0]) / len(stats)


def _binomial_cdf(limit, B, pi):
    """P(Bin(B, pi) <= limit)."""
    return math.fsum(math.comb(B, k) * pi**k * (1 - pi) ** (B - k) for k in range(limit + 1))


def _null_dataset_rejected_with(B, limit):
    """The first null dataset at n = 7, p = q = 2, in a fixed seed order, that
    the test rejects with probability in [0.2, 0.8].  At a limit of -1 or B
    the probability is 0 or 1 for any data, and the first dataset serves."""
    for seed in itertools.count():
        ds = Dataset(values=np.random.default_rng([7, seed]).standard_normal((7, 4)), p=2, q=2)
        prob = _binomial_cdf(limit, B, _exact_share(ds))
        if 0.2 <= prob <= 0.8 or limit in (-1, B):
            return ds, prob


class TestConditionalLevel:
    """Given the data, the B permutations are uniform draws with replacement,
    so the test rejects with probability P(Bin(B, pi) <= limit) exactly (Phipson
    & Smyth 2010), and the sequential test, which decides as the full one does,
    with the same.  At n = 7 pi is exact by enumeration, so the rejection
    frequency over many streams is checked against the exact value in a band
    fixed beforehand, |z| <= 4.5.  Where the probability is 0 or 1 the band is
    the one count, so a few streams suffice; B = 199 takes fewer streams than
    the rest to keep the class near 2 s."""

    @pytest.mark.parametrize("B, alpha, limit, streams", [
        (19, 0.05, 0, 4000),
        (19, math.nextafter(0.05, 0), -1, 200),  # below 1 / (B + 1): never rejects
        (19, 1.0, 19, 200),  # every count rejects
        (39, 0.1, 3, 4000),  # alpha = (1 + limit) / (B + 1): a p-value equal to alpha rejects
        (39, math.nextafter(0.1, 0), 2, 4000),
        (199, 0.05, 9, 2000),
    ])
    def test_rejection_frequency_is_the_exact_probability(self, B, alpha, limit, streams):
        assert rejection_limit(B, alpha) == limit
        ds, prob = _null_dataset_rejected_with(B, limit)
        seed = 100 * B + limit + 1
        full = [permutation_test(ds, B, alpha, rng).reject for rng in stat_tests._trial_rngs(seed, 0, streams)]
        seq = [permutation_test(ds, B, alpha, rng, stop_early=True).reject
               for rng in stat_tests._trial_rngs(seed, 0, streams)]
        assert seq == full
        assert abs(sum(full) - streams * prob) <= 4.5 * math.sqrt(streams * prob * (1 - prob))

    def test_level_is_at_most_alpha(self):
        # Over null data the observed statistic's rank among the n! is
        # uniform, so the level is the mean of P(Bin(B, r / n!) <= limit) over
        # the ranks r of every permutation's statistic taken as the observed
        # one.  At limit + 1 it would exceed alpha.
        B, alpha = 199, 0.05
        ds = Dataset(values=np.random.default_rng([7, 0]).standard_normal((7, 4)), p=2, q=2)
        stats = _all_stats_7(ds)
        # The share of statistics at least each one: n! less those below it.
        shares = (len(stats) - np.searchsorted(np.sort(stats), stats)) / len(stats)

        def level(limit):
            return np.mean([_binomial_cdf(limit, B, pi) for pi in shares])

        limit = rejection_limit(B, alpha)
        assert alpha - 1 / len(stats) <= level(limit) <= alpha < level(limit + 1)


def _frozen_cross_cov_stat(ds):
    """The statistic as one product on the Y block view, the form it took
    before it shared the permutation kernel."""
    cross = (ds.x.T @ ds.y) / ds.n
    return float(np.sum(cross * cross))


def _kernel_dataset(n, p, q, data_seed):
    return sample_dataset(None, n, np.random.default_rng(data_seed), p=p, q=q)


class TestKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 8), st.sampled_from([1, 1, 2, 3, 5]),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_statistic_is_the_identity_row(self, n, p, q, data_seed, perm_seed):
        ds = _kernel_dataset(n, p, q, data_seed)
        dec = permutation_test(ds, 19, 0.05, np.random.default_rng(perm_seed))
        first = _products(ds, 19, np.random.default_rng(perm_seed))[1][0]
        assert len(first) == PERM_CHUNK + 1
        assert dec.statistic == cross_cov_stat(ds) == first[0]

    # At n = 3 one permutation in six is the identity.  The data of seed 0
    # gave a q = 1 statistic one ulp above its identity row when it was a
    # separate product, so the identity draws fell below it.
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 5), st.integers(1, 8), st.sampled_from([1, 1, 2, 3]),
           st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    @example(3, 6, 1, 0, 0)
    def test_drawn_identities_tie_with_the_observed(self, n, p, q, data_seed, perm_seed):
        ds = _kernel_dataset(n, p, q, data_seed)
        B = 99
        dec = permutation_test(ds, B, 0.05, np.random.default_rng(perm_seed))
        loop = permuted_stats_loop(ds, B, np.random.default_rng(perm_seed))
        chunked = np.concatenate(_permuted_chunks(ds, B, np.random.default_rng(perm_seed)))
        assert np.array_equal(chunked, loop)
        replay = np.random.default_rng(perm_seed)
        identity = np.array([np.array_equal(replay.permutation(n), np.arange(n)) for _ in range(B)])
        assert np.all(loop[identity] >= dec.statistic)
        assert dec.p_value == (1 + np.count_nonzero(loop >= dec.statistic)) / (B + 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 200), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_statistic_keeps_its_bits_off_uncentered_q1(self, n, p, q, data_seed):
        # Only the q = 1 statistic moved when it became the kernel's
        # identity row.
        ds = _kernel_dataset(n, p, q, data_seed)
        if q >= 2:
            assert cross_cov_stat(ds) == _frozen_cross_cov_stat(ds)
        else:
            assert cross_cov_stat(ds) == pytest.approx(_frozen_cross_cov_stat(ds), rel=1e-14)

    @pytest.mark.parametrize("p", [4, 6, 8])
    def test_no_null_rejection_at_three_rows(self, p):
        # At n = 3 about one permuted statistic in six is the identity's,
        # which ties with the observed one, so no null trial rejects at 0.05.
        est = estimate_level(3, p, 1, trials=200, B=99, seed=11)
        assert est.rejections == 0


def _gram(x, y):
    return x @ x.T, y @ y.T


def _exact_permutation_mean(a, b, divisor):
    """E tr(A P B P') / divisor^2 over uniform permutations P, with A = XX'
    and B = YY': tr A tr B / n + (sum A - tr A)(sum B - tr B) / (n (n - 1))."""
    n = len(a)
    ta, tb = np.trace(a), np.trace(b)
    return (ta * tb / n + (a.sum() - ta) * (b.sum() - tb) / (n * (n - 1))) / divisor**2


def _all_trace_forms(a, b, divisor):
    """tr(A P B P') / divisor^2 for every permutation: the permuted statistic
    written without the cross-covariance."""
    return np.array([np.sum(a * b[np.ix_(perm, perm)])
                     for perm in itertools.permutations(range(len(a)))]) / divisor**2


class TestPermutationDraws:
    @pytest.mark.parametrize("k", [1, 5, 16])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 200])
    def test_permuted_rows_are_the_permutation_stream(self, n, k):
        # The kernel's draw: rows of arange(n) shuffled in place.  The rows
        # and the generator state after them must be those of k successive
        # rng.permutation(n) calls, or every Monte-Carlo digest moves.
        rng = np.random.default_rng([n, k])
        ref = np.random.default_rng([n, k])
        tile = np.tile(np.arange(n), (k, 1))
        rng.permuted(tile, axis=1, out=tile)
        assert np.array_equal(tile, np.stack([ref.permutation(n) for _ in range(k)]))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_exact_mean_against_enumeration(self):
        ds = sample_dataset(None, 6, np.random.default_rng(5), p=2, q=3)
        a, b = _gram(ds.x, ds.y)
        assert np.mean(_all_trace_forms(a, b, 6)) == pytest.approx(_exact_permutation_mean(a, b, 6), rel=1e-12)

    def test_mean_matches_exact_permutation_mean(self):
        ds = sample_dataset(None, 50, np.random.default_rng(314), p=5, q=5)
        exact = _exact_permutation_mean(*_gram(ds.x, ds.y), ds.n)
        stats = np.concatenate(_permuted_chunks(ds, 10_000, np.random.default_rng(2718)))
        se = stats.std(ddof=1) / math.sqrt(stats.size)
        assert abs(stats.mean() - exact) <= 5 * se

    @pytest.mark.parametrize("n,coupling", [(6, 0.0), (6, 0.6), (5, 0.3)])
    def test_exceedance_count_is_binomial_in_exact_p(self, n, coupling):
        # Enumerating all n! permutations gives the exact permutation p-value
        # p_exact; the count of B drawn statistics >= observed is then
        # Binomial(B, p_exact).
        data = np.random.default_rng(n * 10 + int(10 * coupling))
        x = data.standard_normal((n, 2))
        ds = Dataset(values=np.hstack([x, coupling * x + data.standard_normal((n, 2))]), p=2, q=2)
        observed = cross_cov_stat(ds)
        # The trace form rounds differently, so ties (the identity) need slack.
        p_exact = np.mean(_all_trace_forms(*_gram(ds.x, ds.y), n) >= observed * (1 - 1e-9))
        assert 1 / math.factorial(n) < p_exact < 1.0  # more than the identity
        B = 4000
        stats = np.concatenate(_permuted_chunks(ds, B, np.random.default_rng(1234)))
        count = np.count_nonzero(stats >= observed)
        assert abs(count - B * p_exact) <= 5 * math.sqrt(B * p_exact * (1 - p_exact))


class TestChunkSize:
    def test_small_inputs_use_full_chunk(self):
        assert perm_chunk_size(50, 5, 5) == PERM_CHUNK
        assert perm_chunk_size(200, 50, 50) == PERM_CHUNK

    def test_buffer_within_budget_at_large_shape(self):
        n, p, q = 20000, 500, 500
        k = perm_chunk_size(n, p, q)
        assert k >= 1
        assert k * 8 * (n * q + p * q) <= PERM_BUFFER_BYTES

    def test_never_below_one(self):
        assert perm_chunk_size(10**8, 1, 10) == 1

    def test_work_floor(self):
        # Shapes whose products are cheap keep whole chunks; BLAS-bound
        # shapes size their products close to the stopping point.
        assert perm_work_floor(50, 5, 5) >= perm_chunk_size(50, 5, 5)
        assert perm_work_floor(200, 10, 10) >= perm_chunk_size(200, 10, 10)
        assert perm_work_floor(200, 50, 50) == 3
        assert perm_work_floor(2000, 50, 50) == 1
        for n, p, q in [(50, 5, 5), (200, 50, 50), (10**4, 500, 500)]:
            floor = perm_work_floor(n, p, q)
            assert floor >= 1
            assert floor * n * q * (p + 1) >= PERM_MIN_WORK
            assert floor == 1 or (floor - 1) * n * q * (p + 1) < PERM_MIN_WORK

    @pytest.mark.parametrize("rows", [2, 3, 10, 16, 17, 18])
    def test_first_product_within_budget(self, rows):
        # The first product holds the chunk's permutations and the identity.
        n, p = 1000, 24
        q = PERM_BUFFER_BYTES // (8 * (n + p) * rows)
        k = perm_chunk_size(n, p, q)
        assert (k + 1) * 8 * q * (n + p) <= PERM_BUFFER_BYTES
        assert k == min(PERM_CHUNK, rows - 1)


class _RecordingPool:
    """Stand-in for the process pool: records its size, runs in-process."""

    def __init__(self, record, max_workers):
        record.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestWorkerCap:
    def test_pool_size_capped_by_cpus_and_trials(self, monkeypatch):
        record = []
        monkeypatch.setattr(stat_tests, "_process_pool", lambda workers: _RecordingPool(record, workers))
        monkeypatch.setattr(stat_tests.os, "cpu_count", lambda: 4)

        def run(trials, workers):
            return stat_tests._estimate(stat_tests._null_data, (10, 2, 2), trials, 19, 0.1, 3, workers, "null")

        serial = run(6, 1)
        assert record == []
        assert run(6, 10**9) == serial
        run(3, 10**9)
        run(6, 2)
        assert record == [4, 3, 2]
        monkeypatch.setattr(stat_tests.os, "cpu_count", lambda: None)
        assert run(6, 10**9) == serial
        assert record == [4, 3, 2]


def _constant_trial(args):
    return False, 19


class TestTrialMemory:
    def test_serial_memory_does_not_grow_with_trials(self, monkeypatch):
        # The trials' arguments and results were once held in two lists, about
        # 190 B a trial: 2.2 MB more at 20,000 trials than at 2,000.
        monkeypatch.setattr(stat_tests, "_trial", _constant_trial)
        peaks = []
        for trials in (2_000, 20_000):
            tracemalloc.start()
            try:
                est = estimate_level(3, 1, 1, trials, 19, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert (est.trials, est.rejections, est.permutations) == (trials, 0, 19 * trials)
        assert peaks[1] - peaks[0] < 64 * 1024

    def test_pooled_memory_does_not_grow_with_trials(self, monkeypatch):
        # With every 32-trial batch submitted up front, the process pool's
        # futures and arguments took about 200 B a trial: 3.9 MB more at
        # 20,000 trials than at 2,000.
        monkeypatch.setattr(stat_tests, "_trial", _constant_trial)
        monkeypatch.setattr(stat_tests.os, "cpu_count", lambda: 2)
        estimate_level(3, 1, 1, 64, 19, 0, workers=2)  # imports the pool's modules
        peaks = []
        for trials in (2_000, 20_000):
            tracemalloc.start()
            try:
                est = estimate_level(3, 1, 1, trials, 19, 0, workers=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert (est.trials, est.rejections, est.permutations) == (trials, 0, 19 * trials)
        assert peaks[1] - peaks[0] < 64 * 1024

    def test_pooled_results_are_every_trial_in_order(self):
        # Windows shorter and longer than the batches, and a ragged last batch.
        pool = _RecordingPool([], 2)
        for trials, workers in [(0, 2), (1, 1), (70, 1), (200, 3)]:
            batches = ((stat_tests._null_data, (10, 2, 2), 3, start, min(32, trials - start), 19, 0.1)
                       for start in range(0, trials, 32))
            expected = [stat_tests._trial((stat_tests._null_data, (10, 2, 2), np.random.default_rng([3, i]),
                                           19, 0.1))
                        for i in range(trials)]
            assert list(stat_tests._pooled(pool, batches, workers)) == expected


# Seeds at each 32-bit word count SeedSequence splits them into, phase_curve's
# per-point seeds past 2^64, and one past the pool of four words (2^96 + 5).
_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 3 * 1000003, 2**96 + 5]


class TestTrialStreams:
    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("start, count", [(0, 1), (0, 7), (64, 32), (2**32 - 33, 32), (2**32 - 1, 2)])
    def test_batch_generators_are_default_rng(self, seed, start, count):
        # The batch hash reproduces SeedSequence; a numpy that changed it
        # fails here rather than in every Monte-Carlo digest.  An index of
        # 2^32 and the seed 2^96 + 5 take default_rng itself.
        rngs = stat_tests._trial_rngs(seed, start, count)
        assert len(rngs) == count
        for i, rng in zip(range(start, start + count), rngs):
            want = np.random.default_rng([seed, i])
            assert rng.bit_generator.state == want.bit_generator.state
            assert np.array_equal(rng.standard_normal(3), want.standard_normal(3))
            assert np.array_equal(rng.permutation(20), want.permutation(20))

    @pytest.mark.parametrize("estimator", ["level", "avg_power", "phase"])
    def test_serial_equals_pooled(self, monkeypatch, estimator):
        # 70 trials: two full batches of 32 and a ragged one of 6.
        monkeypatch.setattr(stat_tests.os, "cpu_count", lambda: 2)
        run = {
            "level": lambda workers: estimate_level(20, 2, 2, 70, 39, 41, alpha=0.1, workers=workers),
            "avg_power": lambda workers: estimate_avg_power(20, 2, 2, 0.3, 70, 39, 41, alpha=0.1,
                                                            workers=workers),
            "phase": lambda workers: phase_curve(20, 2, 2, [0.0, 2.0], 70, 39, 41, alpha=0.1, workers=workers),
        }[estimator]
        assert run(1) == run(2)


class TestWilson:
    def test_bounds_ordering(self):
        lo, hi = wilson_interval(30, 100)
        assert 0 <= lo <= 0.3 <= hi <= 1

    def test_degenerate_counts(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1.0


def _no_trial(args):
    raise AssertionError("a trial ran before the arguments were checked")


# Each estimator at one valid setting of its own arguments, as a function of
# the shared ones.
_ESTIMATORS = {
    "level": lambda n, p, q, B, alpha: estimate_level(n, p, q, 10, B, 0, alpha=alpha),
    "avg_power": lambda n, p, q, B, alpha: estimate_avg_power(n, p, q, 0.5, 10, B, 0, alpha=alpha),
    "avg_power_b0": lambda n, p, q, B, alpha: estimate_avg_power(n, p, q, 0.0, 10, B, 0, alpha=alpha),
    "phase": lambda n, p, q, B, alpha: phase_curve(n, p, q, [1.0], 10, B, 0, alpha=alpha),
}


class TestArgumentCheck:
    @pytest.mark.parametrize("estimator", list(_ESTIMATORS))
    @pytest.mark.parametrize("n, p, q, B, alpha", [
        (10, 0, 2, 19, 0.05), (10, 2, 0, 19, 0.05), (0, 2, 2, 19, 0.05), (-3, 2, 2, 19, 0.05),
        (10, 2, 2, 19, 0.0), (10, 2, 2, 19, 1.0), (10, 2, 2, 19, 1.5), (10, 2, 2, 19, -0.1),
        (10, 2, 2, 19, math.nan), (10, 2, 2, 18, 0.05), (10, 2, 2, 5, 0.05), (10, 2, 2, 0, 0.05),
    ])
    def test_bad_problem_raises_before_any_trial(self, monkeypatch, estimator, n, p, q, B, alpha):
        # phase_curve once divided by zero at p = 0, rejected every trial at
        # alpha = 1.5 and failed inside a trial at alpha = NaN; B < 19 once
        # raised only inside the first trial, after its dataset was drawn.
        monkeypatch.setattr(stat_tests, "_trial", _no_trial)
        with pytest.raises(ValueError):
            _ESTIMATORS[estimator](n, p, q, B, alpha)


def _no_pool(workers):
    raise AssertionError("a process pool started before the arguments were checked")


class TestSeedCheck:
    @pytest.mark.parametrize("estimator", ["level", "avg_power", "phase"])
    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_raises_before_any_pool_or_trial(self, monkeypatch, estimator, seed):
        # A negative seed once raised only inside the first trial, after
        # --workers 2 had started its pool.  The messages are SeedSequence's.
        monkeypatch.setattr(stat_tests, "_trial", _no_trial)
        monkeypatch.setattr(stat_tests, "_process_pool", _no_pool)
        monkeypatch.setattr(stat_tests.os, "cpu_count", lambda: 2)
        with pytest.raises((TypeError, ValueError)) as want:
            np.random.default_rng([seed, 0])
        run = {
            "level": lambda: estimate_level(10, 2, 2, 5, 19, seed, workers=2),
            "avg_power": lambda: estimate_avg_power(10, 2, 2, 0.5, 5, 19, seed, workers=2),
            "phase": lambda: phase_curve(10, 2, 2, [0.0, 1.0], 5, 19, seed, workers=2),
        }[estimator]
        with pytest.raises(want.type, match=f"^{want.value}$"):
            run()


class TestPowerEstimation:
    def test_level_near_alpha(self):
        est = estimate_level(30, 3, 3, trials=400, B=39, seed=7, alpha=0.1)
        se = math.sqrt(0.1 * 0.9 / 400)
        assert abs(est.estimate - 0.1) < 4 * se
        assert est.ci_low <= est.estimate <= est.ci_high

    def test_trials_floor(self):
        # The floor is one trial, as for every estimator; 50 trials run.
        with pytest.raises(ValueError):
            estimate_level(10, 2, 2, trials=0, B=39, seed=0)
        assert estimate_level(10, 2, 2, trials=50, B=39, seed=0).trials == 50

    def test_avg_power_zero_signal_reduces_to_level(self):
        a = estimate_avg_power(30, 3, 3, 0.0, trials=200, B=39, seed=13, alpha=0.1)
        b = estimate_level(30, 3, 3, trials=200, B=39, seed=13, alpha=0.1)
        assert a.rejections == b.rejections

    def test_strong_signal_high_power(self):
        # signal ten times the threshold scale: s = 50 at (200, 10, 10)
        curve = phase_curve(200, 10, 10, [50.0], trials=150, B=99, seed=3)
        assert curve[0][1].estimate >= 0.9

    @pytest.mark.parametrize("n, p, q, b", [
        (200, 10, 10, 10.0), (200, 10, 10, -0.5), (200, 10, 10, math.nan), (1466, 17, 21, 12.45704200699826),
    ])
    def test_avg_power_rejects_non_pd_signal(self, monkeypatch, n, p, q, b):
        # b = 10 is not positive definite at (200, 10, 10); a NaN b once
        # reached a trial and failed on its non-finite data.  At (1466, 17, 21)
        # that b gives a^2 p q < 1 in floating point, yet a smallest eigenvalue
        # of 0.0: it once failed inside the first trial.
        monkeypatch.setattr(stat_tests, "_trial", _no_trial)
        with pytest.raises(ValueError):
            estimate_avg_power(n, p, q, b, trials=100, B=39, seed=0)

    def test_determinism_across_worker_counts(self):
        serial = estimate_avg_power(20, 2, 2, 0.3, trials=120, B=39, seed=41, alpha=0.1, workers=1)
        parallel = estimate_avg_power(20, 2, 2, 0.3, trials=120, B=39, seed=41, alpha=0.1, workers=2)
        assert serial == parallel


class TestPhaseCurve:
    def test_zero_signal_point_is_level(self):
        curve = phase_curve(40, 3, 3, [0.0], trials=300, B=39, seed=5, alpha=0.1)
        s, est = curve[0]
        assert s == 0.0
        se = math.sqrt(0.1 * 0.9 / 300)
        assert abs(est.estimate - 0.1) < 4 * se

    def test_nondecreasing_within_noise(self):
        curve = phase_curve(100, 4, 4, [0.0, 2.0, 10.0, 40.0], trials=250, B=99, seed=6)
        estimates = [est.estimate for _, est in curve]
        for lo, hi in zip(estimates, estimates[1:]):
            assert hi >= lo - 0.08
        assert estimates[-1] > 0.9

    @pytest.mark.parametrize("grid", [[-1.0], [0.0, math.nan], [0.0, -math.inf]])
    def test_rejects_negative_signal(self, monkeypatch, grid):
        # Every s is checked before any trial: a NaN once ran all of s = 0
        # first, then failed inside a trial on non-finite data.
        monkeypatch.setattr(stat_tests, "_trial", _no_trial)
        with pytest.raises(ValueError, match="nonnegative"):
            phase_curve(50, 2, 2, grid, trials=100, B=39, seed=0)

    def test_rejects_unattainable_signal(self):
        # sigma^2 = s sqrt(pq) / (n min(p,q)) >= 1
        with pytest.raises(ValueError):
            phase_curve(10, 2, 2, [11.0], trials=100, B=39, seed=0)


class TestScenarios:
    def test_regression_null_when_beta_zero(self):
        rng = np.random.default_rng(0)
        rejections = sum(
            permutation_test(scenario_regression(np.zeros(3), 40, rng), 39, 0.1, rng).reject
            for _ in range(300)
        )
        assert rejections / 300 <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / 300)

    def test_regression_cross_covariance(self):
        beta = np.array([0.5, -0.25, 0.0, 1.0])
        ds = scenario_regression(beta, 100_000, np.random.default_rng(8), noise=0.7)
        emp = (ds.x.T @ ds.y[:, 0]) / ds.n
        assert np.max(np.abs(emp - beta)) < 3.0 / math.sqrt(ds.n) * 2
        var_y = float(np.var(ds.y))
        assert var_y == pytest.approx(0.49 + float(beta @ beta), rel=0.05)

    @pytest.mark.parametrize("kwargs", [
        {"sigma_x": -np.eye(2)}, {"sigma_x": np.diag([1.0, 0.0])}, {"sigma_x": np.full((2, 2), np.nan)},
        {"sigma_x": np.eye(3)}, {"noise": 0.0}, {"noise": -1.0}, {"noise": math.nan},
    ], ids=["neg_sigma_x", "singular_sigma_x", "nan_sigma_x", "wrong_size_sigma_x", "zero_noise",
            "neg_noise", "nan_noise"])
    def test_regression_validates_before_drawing(self, kwargs):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError):
            scenario_regression(np.ones(2), 10, rng, **kwargs)
        assert rng.bit_generator.state == state

    def test_two_sample_cross_covariance(self):
        mu1 = np.array([0.5, 0.0, -0.3])
        mu2 = np.array([-0.5, 0.2, 0.1])
        ds = scenario_two_sample(mu1, mu2, 100_000, np.random.default_rng(9))
        emp = (ds.x.T @ ds.y[:, 0]) / ds.n
        assert np.max(np.abs(emp - (mu1 - mu2) / 2)) < 3.0 / math.sqrt(ds.n) * 2

    def test_two_sample_equal_means_is_level(self):
        mu = np.array([0.4, -0.1])
        rejections = 0
        trials = 300
        for i in range(trials):
            rng = np.random.default_rng([53, i])
            ds = scenario_two_sample(mu, mu, 30, rng)
            rejections += permutation_test(ds, 39, 0.1, rng).reject
        assert rejections / trials <= 0.1 + 3 * math.sqrt(0.1 * 0.9 / trials)

    def test_two_sample_length_mismatch(self):
        with pytest.raises(ValueError):
            scenario_two_sample(np.ones(2), np.ones(3), 10, np.random.default_rng(0))
