import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from indeplab import structured_cov
from indeplab.structured_cov import (
    CovStack,
    Dataset,
    LeastFavorableCov,
    SingularCovarianceError,
    amplitude,
    cov_det,
    cov_inverse,
    cov_sqrt_apply,
    dense_cov,
    random_signs,
    sample_dataset,
    sample_direction,
)

# Frozen with 40-digit arithmetic: 0.2 / (sqrt(400) * 50**0.25)
AMP_200_10_5 = 0.003760603093086393568124609234517225252


def random_lf(rng, p=None, q=None, a_frac=0.95):
    p = p or int(rng.integers(1, 11))
    q = q or int(rng.integers(1, 11))
    a = float(rng.uniform(0.0, a_frac)) / np.sqrt(p * q)
    return LeastFavorableCov(u=rng.choice([-1.0, 1.0], p), v=rng.choice([-1.0, 1.0], q), a=a)


class TestAmplitude:
    def test_direct_formula(self):
        assert amplitude(50, 4, 4, 0.5) == pytest.approx(0.025, abs=0)

    def test_all_factors_cancel(self):
        assert amplitude(1, 1, 1, np.sqrt(2)) == pytest.approx(1.0, rel=1e-15)

    def test_high_precision_oracle(self):
        assert amplitude(200, 10, 5, 0.2) == pytest.approx(AMP_200_10_5, rel=1e-14)

    def test_cross_frobenius_matches_radius(self):
        # ||Sigma_XY||_F = a sqrt(pq) = b (pq)^(1/4) / sqrt(2n)
        n, p, q, b = 80, 6, 3, 0.4
        a = amplitude(n, p, q, b)
        assert a * np.sqrt(p * q) == pytest.approx(b * (p * q) ** 0.25 / np.sqrt(2 * n), rel=1e-14)

    @pytest.mark.parametrize("bad", [(0, 1, 1, 0.5), (1, 0, 1, 0.5), (1, 1, 1, 0.0), (1, 1, 1, -1.0)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            amplitude(*bad)


class TestSampleDirection:
    def test_signs_only(self):
        rng = np.random.default_rng(7)
        lf = sample_direction(5, 3, rng, a=0.1)
        assert lf.signs.shape == (8,) and set(np.abs(lf.signs)) == {1.0}
        assert (lf.p, lf.q, lf.a) == (5, 3, 0.1)

    def test_deterministic(self):
        a = sample_direction(4, 4, np.random.default_rng(11))
        b = sample_direction(4, 4, np.random.default_rng(11))
        assert np.array_equal(a.signs, b.signs)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 70), st.integers(0, 2**32 - 1))
    def test_one_draw_matches_one_draw_per_block(self, p, q, seed):
        # Frozen copy of the earlier sampler, which drew u and v in two calls:
        # the one call for both takes the same signs and leaves the same state.
        two_calls = np.random.default_rng(seed)
        u = two_calls.integers(0, 2, size=p) * 2.0 - 1.0
        v = two_calls.integers(0, 2, size=q) * 2.0 - 1.0
        one_call = np.random.default_rng(seed)
        lf = sample_direction(p, q, one_call)
        assert np.array_equal(lf.signs, np.concatenate([u, v]))
        assert one_call.bit_generator.state == two_calls.bit_generator.state

    def test_uniform_over_sign_patterns(self):
        # chi-square goodness of fit over the 2^(3+2)=32 patterns
        rng = np.random.default_rng(3)
        p, q, draws = 3, 2, 32000
        counts = np.zeros(32)
        for _ in range(draws):
            lf = sample_direction(p, q, rng)
            bits = lf.signs > 0
            counts[int("".join("1" if x else "0" for x in bits), 2)] += 1
        expected = draws / 32
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        # 31 dof; 99.9% quantile is about 61.1
        assert chi2 < 61.1


class TestDenseCov:
    def test_2x2(self):
        lf = LeastFavorableCov(u=np.array([1.0]), v=np.array([1.0]), a=0.3)
        assert np.allclose(dense_cov(lf), [[1.0, 0.3], [0.3, 1.0]])

    def test_zero_amplitude_is_identity(self):
        lf = LeastFavorableCov(u=np.array([1.0, -1.0]), v=np.array([1.0]), a=0.0)
        assert np.array_equal(dense_cov(lf), np.eye(3))

    def test_sign_pattern(self):
        lf = LeastFavorableCov(u=np.array([1.0, -1.0]), v=np.array([1.0]), a=0.2)
        m = dense_cov(lf)
        assert m[0, 2] == 0.2 and m[1, 2] == -0.2
        assert np.array_equal(m[:2, :2], np.eye(2))

    def test_rejects_non_pd(self):
        with pytest.raises(SingularCovarianceError):
            LeastFavorableCov(u=np.ones(4), v=np.ones(4), a=0.3)

    def test_cross_block_frobenius_exact(self):
        rng = np.random.default_rng(0)
        lf = random_lf(rng, p=4, q=6)
        block = dense_cov(lf)[:4, 4:]
        assert np.all(np.abs(block) == lf.a)


class TestInverseAndDet:
    def test_inverse_of_identity(self):
        lf = LeastFavorableCov(u=np.ones(2), v=np.ones(3), a=0.0)
        assert np.array_equal(cov_inverse(lf), np.eye(5))

    def test_2x2_analytic(self):
        lf = LeastFavorableCov(u=np.array([1.0]), v=np.array([1.0]), a=0.3)
        expected = np.array([[1.0, -0.3], [-0.3, 1.0]]) / (1 - 0.09)
        assert np.allclose(cov_inverse(lf), expected, atol=1e-14)

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            lf = random_lf(rng, p=3, q=3)
            assert np.allclose(cov_inverse(lf), np.linalg.inv(dense_cov(lf)), atol=1e-10)

    def test_det_values(self):
        assert cov_det(LeastFavorableCov(u=np.ones(1), v=np.ones(1), a=0.0)) == 1.0
        lf = LeastFavorableCov(u=np.ones(4), v=np.ones(4), a=0.025)
        assert cov_det(lf) == pytest.approx(0.99, rel=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.floats(0.0, 0.95), st.integers(0, 2**32 - 1))
    def test_identities_property(self, p, q, frac, seed):
        rng = np.random.default_rng(seed)
        a = frac / np.sqrt(p * q)
        lf = LeastFavorableCov(u=rng.choice([-1.0, 1.0], p), v=rng.choice([-1.0, 1.0], q), a=a)
        dense = dense_cov(lf)
        assert np.max(np.abs(dense @ cov_inverse(lf) - np.eye(p + q))) < 1e-10
        det = np.linalg.det(dense)
        assert abs(cov_det(lf) - det) <= 1e-10 * abs(det) + 1e-14

    def test_pd_iff_amplitude_small(self):
        # smallest eigenvalue is 1 - a sqrt(pq): positive iff a^2 pq < 1
        rng = np.random.default_rng(5)
        lf = random_lf(rng, p=3, q=4, a_frac=0.999)
        assert np.min(np.linalg.eigvalsh(dense_cov(lf))) > 0

    # The edge a = 1/sqrt(pq) and up to 8 ulps below it, where a^2 p q < 1
    # once admitted members whose smallest eigenvalue or determinant rounds
    # to zero or below.  (17, 21) at the edge is the amplitude of
    # `power --regime lf --b 12.45704200699826 --grid-n 1466`.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 39), st.integers(1, 39), st.integers(0, 2**32 - 1))
    @example(17, 21, 0)
    def test_accepted_members_near_the_edge_have_root_and_inverse(self, p, q, seed):
        rng = np.random.default_rng(seed)
        a = 1.0 / math.sqrt(p * q)
        for _ in range(9):
            try:
                lf = CovStack(signs=random_signs(rng, p + q), p=p, a=a)
            except SingularCovarianceError:
                assert not structured_cov.positive_definite(p, q, a)
            else:
                assert cov_det(lf) > 0 and structured_cov._sqrt_factors(lf)[1] > 0
                assert np.isfinite(cov_inverse(lf)).all()
                assert np.isfinite(cov_sqrt_apply(lf, rng.standard_normal(p + q))).all()
            a = math.nextafter(a, 0.0)

    def test_int_sizes_past_int64(self):
        # np.sqrt of an int p*q at or past 2^64 raised TypeError, which ended
        # `power --regime lf --grid-p 1e10 --grid-q 1e10` in a traceback.
        assert structured_cov.positive_definite(10**10, 10**10, 1e-11) is True
        assert structured_cov.positive_definite(10**10, 10**10, 1e-9) is False


class TestSqrtAndSampling:
    def test_identity_sqrt(self):
        lf = LeastFavorableCov(u=np.ones(2), v=np.ones(2), a=0.0)
        z = np.arange(4.0)
        assert np.array_equal(cov_sqrt_apply(lf, z), z)

    def test_square_equals_dense(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            lf = random_lf(rng, p=2, q=2)
            z = rng.standard_normal(4)
            twice = cov_sqrt_apply(lf, cov_sqrt_apply(lf, z))
            assert np.allclose(twice, dense_cov(lf) @ z, atol=1e-10)

    def test_sqrt_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(12)
        lf = random_lf(rng, p=2, q=2)
        w, V = np.linalg.eigh(dense_cov(lf))
        dense_sqrt = (V * np.sqrt(w)) @ V.T
        z = rng.standard_normal(4)
        assert np.allclose(cov_sqrt_apply(lf, z), dense_sqrt @ z, atol=1e-10)

    def test_empirical_covariance_converges(self):
        rng = np.random.default_rng(123)
        lf = LeastFavorableCov(u=np.array([1.0, -1.0]), v=np.array([1.0, 1.0]), a=0.2)
        ds = sample_dataset(lf, 100_000, rng)
        emp = ds.values.T @ ds.values / ds.n
        assert np.max(np.abs(emp - dense_cov(lf))) < 3.0 / np.sqrt(ds.n) * 2.0

    def test_null_sampling(self):
        rng = np.random.default_rng(1)
        ds = sample_dataset(None, 50_000, rng, p=3, q=2)
        assert ds.p == 3 and ds.q == 2
        assert np.max(np.abs(ds.values.mean(axis=0))) < 3.0 / np.sqrt(ds.n)

    def test_bit_identical_with_same_seed(self):
        lf = LeastFavorableCov(u=np.ones(3), v=np.ones(2), a=0.1)
        d1 = sample_dataset(lf, 100, np.random.default_rng(77))
        d2 = sample_dataset(lf, 100, np.random.default_rng(77))
        assert np.array_equal(d1.values, d2.values)


class TestDataset:
    def test_dimension_check(self):
        with pytest.raises(ValueError):
            Dataset(values=np.zeros((5, 4)), p=2, q=3)

    def test_rejects_nonfinite(self):
        bad = np.zeros((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            Dataset(values=bad, p=2, q=1)

    def test_block_views(self):
        ds = Dataset(values=np.arange(12.0).reshape(3, 4), p=3, q=1)
        assert ds.x.shape == (3, 3) and ds.y.shape == (3, 1)

    # Blocks that no test can run on: a negative p whose sum with q matches
    # the columns once gave a 5 x 2 X and a 5 x 1 Y; q = 0 and zero rows made
    # the sequential permutation test divide by zero.  Sizes that are not
    # integers cannot slice the columns, even when whole.
    @pytest.mark.parametrize("values, p, q", [
        (np.ones((5, 3)), -1, 4),
        (np.ones((5, 2)), 2, 0),
        (np.ones((0, 4)), 2, 2),
        (np.ones((5, 2)), 0, 2),
        (np.ones((5, 4)), 2.0, 2),
    ], ids=["negative_p", "zero_q", "zero_rows", "zero_p", "float_p"])
    def test_rejects_untestable_blocks(self, values, p, q):
        with pytest.raises(ValueError):
            Dataset(values=values, p=p, q=q)


def _hex(x):
    return [v.hex() for v in np.ravel(x).tolist()]


def _mixed_stack(rng, m, d):
    """m members of sizes p + q from 2 to d, signs padded with zeros to width d,
    and amplitudes from 0 up to just below the positive-definite edge."""
    size = rng.integers(2, d + 1, size=m)
    p = rng.integers(1, size)
    signs = (rng.integers(0, 2, size=(m, d)) * 2.0 - 1.0) * (np.arange(d) < size[:, None])
    a = rng.choice([0.0, 0.5, 0.95, 0.999], m) * rng.uniform(0.0, 1.0, m) / np.sqrt(p * (size - p))
    return signs, p, size - p, a


class TestCovStack:
    # Each closed form on a stack of m members of any sizes, padded to one
    # width d, gives each member the bits of its own call at the width d.
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(2, 20), st.integers(0, 2**32 - 1))
    def test_stack_matches_member_calls(self, m, d, seed):
        rng = np.random.default_rng(seed)
        signs, p, q, a = _mixed_stack(rng, m, d)
        z = rng.standard_normal((m, d))
        stack = CovStack(signs=signs, p=p, a=a)
        assert stack.q.tolist() == q.tolist()
        dense, inv, det = dense_cov(stack), cov_inverse(stack), cov_det(stack)
        root, twice = cov_sqrt_apply(stack, z), cov_sqrt_apply(stack, cov_sqrt_apply(stack, z))
        assert dense.shape == inv.shape == (m, d, d) and det.shape == (m,) and root.shape == (m, d)
        for k in range(m):
            lf = CovStack(signs=signs[k], p=p[k], a=a[k])  # one member: no leading axis
            assert lf.signs.shape == (d,) and type(lf.p) is type(lf.q) is int and np.ndim(lf.a) == 0
            assert _hex(dense[k]) == _hex(dense_cov(lf))
            assert _hex(inv[k]) == _hex(cov_inverse(lf))
            assert _hex(det[k]) == _hex(cov_det(lf))
            assert _hex(root[k]) == _hex(cov_sqrt_apply(lf, z[k]))
            assert _hex(twice[k]) == _hex(cov_sqrt_apply(lf, cov_sqrt_apply(lf, z[k])))

    # A padded member is the unpadded one on its leading block and the
    # identity on the padding.
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 8), st.integers(2, 20), st.integers(0, 2**32 - 1))
    def test_padded_member_matches_unpadded(self, m, d, seed):
        rng = np.random.default_rng(seed)
        signs, p, q, a = _mixed_stack(rng, m, d)
        z = rng.standard_normal((m, d))
        stack = CovStack(signs=signs, p=p, a=a)
        dense, inv, det, root = dense_cov(stack), cov_inverse(stack), cov_det(stack), cov_sqrt_apply(stack, z)
        for k in range(m):
            k_size = p[k] + q[k]
            lf = CovStack(signs=signs[k, :k_size], p=p[k], a=a[k])
            for padded, block in ((dense[k], dense_cov(lf)), (inv[k], cov_inverse(lf))):
                expected = np.eye(d)
                expected[:k_size, :k_size] = block
                assert _hex(padded) == _hex(expected)
            assert _hex(det[k]) == _hex(cov_det(lf))
            assert np.max(np.abs(root[k, :k_size] - cov_sqrt_apply(lf, z[k, :k_size]))) <= 1e-14
            assert _hex(root[k, k_size:]) == _hex(z[k, k_size:])

    # One member and a batch of n vectors: each row gets the bits of its own
    # one-vector call.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_batch_matches_one_vector_calls(self, p, q, n, seed):
        rng = np.random.default_rng(seed)
        lf = CovStack(signs=random_signs(rng, p + q), p=p, a=rng.uniform(0.0, 0.99) / math.sqrt(p * q))
        z = rng.standard_normal((n, p + q))
        batch = cov_sqrt_apply(lf, z)
        assert batch.shape == z.shape
        for i in range(n):
            assert _hex(batch[i]) == _hex(cov_sqrt_apply(lf, z[i]))

    def test_padded_blocks(self):
        stack = CovStack(signs=[[1.0, -1.0, 1.0, 0.0], [-1.0, 1.0, 1.0, 1.0]], p=[1, 2], a=[0.1, 0.2])
        up, vp = stack.padded
        assert np.array_equal(up, [[1.0, 0.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0]])
        assert np.array_equal(vp, [[0.0, -1.0, 1.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        assert stack.q.tolist() == [2, 2]

    def test_sampling_rejects_a_padded_member(self):
        lf = CovStack(signs=[1.0, -1.0, 0.0], p=1, a=0.1)
        with pytest.raises(ValueError):
            sample_dataset(lf, 5, np.random.default_rng(0))

    @pytest.mark.parametrize("signs, p, a, error", [
        ([[1.0, 0.5]], [1], [0.1], ValueError),  # not a sign
        ([[1.0, 1.0]], [2], [0.1], ValueError),  # empty v
        ([[1.0, 1.0, 1.0]], [1.5], [0.1], ValueError),
        ([[1.0, 1.0]], [1], [-0.1], ValueError),
        ([[1.0, 1.0], [1.0, -1.0]], [1, 1], [0.1, 1.0], SingularCovarianceError),
        ([1.0, 1.0], [1], [0.1], ValueError),  # one member's p is a scalar
        ([[1.0, 1.0]], 1, 0.1, ValueError),  # a stack's p is one size per member
        ([[[1.0, 1.0]]], [[1]], [[0.1]], ValueError),  # at most one leading axis
        ([[1.0, 0.0, 1.0, 1.0]], [2], [0.1], ValueError),  # a zero inside u
        ([[1.0, 1.0, 1.0, 0.0, 1.0, 0.0]], [2], [0.1], ValueError),  # a zero inside v
        ([[1.0, 1.0, 0.0, 0.0, 0.5]], [1], [0.1], ValueError),  # a nonzero after v
        ([[1.0, 1.0, 0.0]], [2], [0.1], ValueError),  # u alone: q = 0
        ([1.0, 0.0], 1, 0.1, ValueError),  # one member, u alone
    ])
    def test_rejects_invalid_members(self, signs, p, a, error):
        with pytest.raises(error):
            CovStack(signs=signs, p=p, a=a)
