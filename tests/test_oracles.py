import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indeplab import oracles
from indeplab.divergence import chi_square_exact, gamma_eigs, hoeffding_tail_bound
from indeplab.oracles import (
    InfeasibleSizeError,
    enumerate_chi_square,
    enumerate_uv_tail,
    gamma_numeric,
    mc_chi_square,
    quad_chi_square,
    quad_form_pair,
)


def test_enumeration_zero_signal():
    assert enumerate_chi_square(3, 2, 2, 0.0) == 0.0


def test_enumeration_p1q1_hand_expansion():
    # signs of (u'g)(v'h) split 8/8 over the 16 quadruples
    from indeplab.structured_cov import amplitude

    n, b = 3, 0.4
    a = amplitude(n, 1, 1, b)
    hand = 0.5 * ((1 - a * a) ** -n + (1 + a * a) ** -n) - 1.0
    assert enumerate_chi_square(n, 1, 1, b) == pytest.approx(hand, rel=1e-13)


def test_enumeration_size_cap():
    with pytest.raises(InfeasibleSizeError):
        enumerate_chi_square(1, 5, 5, 0.1)


def _fsum_enumeration(n, p, q, b):
    """``enumerate_chi_square`` as it was: every one of the 4^(p+q) terms,
    summed by ``math.fsum``."""
    from indeplab.structured_cov import amplitude

    if b == 0.0:
        return 0.0
    a = amplitude(n, p, q, b)
    su, sv = oracles._sign_vectors(p), oracles._sign_vectors(q)
    x = a * a * (su @ su.T)[:, :, None, None] * (sv @ sv.T)[None, None, :, :]
    if np.any(1.0 - x <= 0.0):
        raise ValueError("divergent configuration")
    s = -0.5 * n * np.log1p(-x * x)
    terms = np.expm1(s) + 2.0 * np.exp(s) * np.sinh(0.5 * n * np.arctanh(x)) ** 2
    return math.fsum(terms.ravel().tolist()) / terms.size


class TestEnumerationExactSum:
    """The counted, exactly rounded sum against the full array's fsum, bit for bit."""

    @pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 8) for q in range(1, 9 - p)])
    def test_every_feasible_shape(self, p, q):
        for n in (1, 2, 5, 20, 100):
            for b in (0.01, 0.1, 0.196, 0.3, 0.5):
                want = _fsum_enumeration(n, p, q, b)
                assert enumerate_chi_square(n, p, q, b).hex() == want.hex(), (n, p, q, b)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 4), st.integers(1, 4), st.floats(1e-300, 0.7))
    def test_hypothesis(self, n, p, q, b):
        assert enumerate_chi_square(n, p, q, b).hex() == _fsum_enumeration(n, p, q, b).hex()

    def test_zero_keeps_its_sign(self):
        # Terms that underflow sum to +0.0 on both sides.
        for b in (0.0, 1e-300):
            got, want = enumerate_chi_square(3, 2, 2, b), _fsum_enumeration(3, 2, 2, b)
            assert got.hex() == want.hex() == "0x0.0p+0"

    @pytest.mark.parametrize("n,p,q,b", [(1, 1, 1, 2.0), (5, 2, 3, 9.0)])
    def test_divergent_point_raises_alike(self, n, p, q, b):
        with pytest.raises(ValueError) as got:
            enumerate_chi_square(n, p, q, b)
        with pytest.raises(ValueError) as want:
            _fsum_enumeration(n, p, q, b)
        assert type(got.value) is type(want.value)

    def test_infinite_terms_fall_back(self):
        # a^2 = 0.998: (1 - x)^-n overflows, and both sums are inf.
        b = 0.999 * math.sqrt(2 * 10**6)
        with np.errstate(over="ignore"):
            assert enumerate_chi_square(10**6, 1, 1, b) == _fsum_enumeration(10**6, 1, 1, b) == math.inf

    def test_nan_b(self):
        assert math.isnan(enumerate_chi_square(3, 2, 2, math.nan))
        assert math.isnan(_fsum_enumeration(3, 2, 2, math.nan))


def test_mc_chi_square_null():
    est, se = mc_chi_square(2, 1, 1, 1e-6, trials=20_000, rng=np.random.default_rng(5))
    assert abs(est) <= 3 * se + 1e-9


def test_mc_chi_square_vs_enumeration():
    est, se = mc_chi_square(2, 1, 1, 0.4, trials=200_000, rng=np.random.default_rng(8))
    want = enumerate_chi_square(2, 1, 1, 0.4)
    assert abs(est - want) <= 4 * se


def test_mc_size_caps():
    with pytest.raises(InfeasibleSizeError):
        mc_chi_square(2, 3, 3, 0.1, trials=10, rng=np.random.default_rng(0))
    with pytest.raises(InfeasibleSizeError):
        mc_chi_square(5, 1, 1, 0.1, trials=10, rng=np.random.default_rng(0))


@pytest.mark.parametrize("n,p,q,b", [
    (2, 1, 1, 0.4), (1, 1, 1, 0.3), (3, 1, 1, 0.05), (5, 2, 1, 0.3), (4, 1, 2, 0.6), (2, 2, 1, 0.9),
])
def test_quad_chi_square_matches_closed_form(n, p, q, b):
    assert quad_chi_square(n, p, q, b) == pytest.approx(chi_square_exact(n, p, q, b), rel=1e-11, abs=0.0)


def test_quad_size_cap():
    with pytest.raises(InfeasibleSizeError):
        quad_chi_square(2, 2, 2, 0.1)


def test_gamma_numeric_traceless_at_zero_amplitude():
    u, g = np.ones(3), np.ones(3)
    v, h = np.ones(2), np.ones(2)
    eigs = gamma_numeric(3, 2, u @ g, v @ h, 0.0)
    assert abs(eigs.sum()) < 1e-10
    # pairs symmetric about zero
    assert np.allclose(eigs, -eigs[::-1], atol=1e-10)


def test_gamma_numeric_matches_closed_form_sweep():
    rng = np.random.default_rng(99)
    for _ in range(300):
        p = int(rng.integers(1, 7))
        q = int(rng.integers(1, 7))
        u = rng.choice([-1.0, 1.0], p)
        g = rng.choice([-1.0, 1.0], p)
        v = rng.choice([-1.0, 1.0], q)
        h = rng.choice([-1.0, 1.0], q)
        a = float(rng.uniform(0.01, 0.9 / math.sqrt(p * q)))
        closed = np.sort(np.array(gamma_eigs(a, p, q, int(u @ g), int(v @ h)).gammas))
        assert np.max(np.abs(closed - gamma_numeric(p, q, u @ g, v @ h, a))) < 1e-8


def test_gamma_numeric_batch_matches_single_calls():
    # Stacked matmuls and one stacked eigvalsh give each configuration the
    # bits of its own call.
    configs = [(p, q, ug, vh, c / math.sqrt(p * q)) for p in range(1, 7) for q in range(1, 7)
               for ug in range(-p, p + 1, 2) for vh in range(-q, q + 1, 2) for c in (0.0, 0.4, 0.95)]
    batch = gamma_numeric(*(np.array(col) for col in zip(*configs)))
    single = np.array([gamma_numeric(*config) for config in configs])
    assert batch.shape == (len(configs), 4) and batch.tobytes() == single.tobytes()


def test_quad_form_identity_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = int(rng.integers(1, 7))
        q = int(rng.integers(1, 7))
        u = rng.choice([-1.0, 1.0], p)
        g = rng.choice([-1.0, 1.0], p)
        v = rng.choice([-1.0, 1.0], q)
        h = rng.choice([-1.0, 1.0], q)
        a = float(rng.uniform(0.0, 0.5 / math.sqrt(p * q)))
        z = rng.standard_normal(p + q)
        lhs, rhs = quad_form_pair([u @ z[:p], v @ z[p:], g @ z[:p], h @ z[p:]], p, q, a)
        assert lhs == pytest.approx(rhs, abs=1e-10 * max(1.0, abs(lhs)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(2, 20), st.integers(0, 2**32 - 1))
def test_quad_form_pair_stack_matches_single_calls(m, d, seed):
    # One stacked quad_form_pair gives each configuration the bits of its own call.
    rng = np.random.default_rng(seed)
    p = rng.integers(1, d, size=m)
    q = d - p
    a = rng.uniform(0.0, 0.5, m) / np.sqrt(p * q)
    chi = rng.standard_normal((m, 4))
    lhs, rhs = quad_form_pair(chi, p, q, a)
    single = [quad_form_pair(chi[k], int(p[k]), int(q[k]), float(a[k])) for k in range(m)]
    assert [x.hex() for x in lhs.tolist()] == [float(s[0]).hex() for s in single]
    assert [x.hex() for x in rhs.tolist()] == [float(s[1]).hex() for s in single]


class TestUVTail:
    def test_odd_parity_at_zero_threshold(self):
        # odd p, q: UV is never zero
        assert enumerate_uv_tail(3, 5, 1e-12) == pytest.approx(1.0, rel=1e-12)

    def test_beyond_support(self):
        assert enumerate_uv_tail(4, 4, 17.0) == 0.0

    def test_even_dims_have_mass_at_zero(self):
        # P(U=0) = C(4,2)/16 = 3/8 for p=4
        tail = enumerate_uv_tail(4, 2, 0.5)
        p_u0 = 6 / 16
        p_v0 = 2 / 4
        assert tail == pytest.approx(1 - (p_u0 + p_v0 - p_u0 * p_v0), rel=1e-12)

    def test_size_cap(self):
        with pytest.raises(InfeasibleSizeError):
            enumerate_uv_tail(13, 2, 1.0)


def test_one_minus_x_inverse_power_bound():
    # (1-x)^(-1/x) <= 4 on [-10, 1/2] \ {0}, increasing up to the endpoint
    grid = np.concatenate([np.linspace(-10, -1e-9, 5001), np.linspace(1e-9, 0.5, 5001)])
    vals = np.exp(-np.log1p(-grid) / grid)
    assert np.all(vals <= 4.0 + 1e-12)
    assert vals[-1] == pytest.approx(4.0, rel=1e-6)
    assert np.all(np.diff(vals) > 0)


def test_suite_runs_clean():
    from indeplab.oracles_suite import run_suite

    rows = run_suite(seed=123)
    assert rows and all(r["pass"] for r in rows)


def test_suite_negative_control():
    from indeplab.oracles_suite import run_suite

    rows = run_suite(seed=123, inject_fault=True)
    assert any(not r["pass"] for r in rows)


def _einsum_mc_chi_square(n, p, q, b, trials, rng, chunk):
    """``mc_chi_square`` with one np.einsum per mixture component, built from
    the Sherman-Morrison closed forms: the frozen reference for its
    sufficient-statistics form."""
    from indeplab.structured_cov import LeastFavorableCov, amplitude, cov_det, cov_inverse

    a = amplitude(n, p, q, b)
    components = []
    for u in oracles._sign_vectors(p):
        for v in oracles._sign_vectors(q):
            lf = LeastFavorableCov(u=u, v=v, a=a)
            components.append((np.eye(p + q) - cov_inverse(lf), cov_det(lf)))
    total = total_sq = 0.0
    done = 0
    while done < trials:
        batch = min(chunk, trials - done)
        z = rng.standard_normal((batch, n, p + q))
        log_ratios = np.empty((batch, len(components)))
        for c, (delta, det) in enumerate(components):
            log_ratios[:, c] = 0.5 * np.einsum("bij,jk,bik->b", z, delta, z) - 0.5 * n * math.log(det)
        peak = log_ratios.max(axis=1, keepdims=True)
        ratio = np.exp(peak[:, 0]) * np.exp(log_ratios - peak).mean(axis=1)
        sq = ratio * ratio
        total += float(sq.sum())
        total_sq += float((sq * sq).sum())
        done += batch
    mean = total / trials
    return mean - 1.0, math.sqrt(max(total_sq / trials - mean * mean, 0.0) / trials)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4), (2, 3), (3, 2), (4, 1)])
def test_mc_chi_square_matches_einsum_reference(n, p, q):
    # The scatter form sums each quadratic form in another order than einsum,
    # so the two agree to rounding, not bit for bit.  Chunks of 97 leave a
    # remainder of 3; batches of 1 and 2 are where einsum changes its loop order.
    for trials, chunk in ((400, 97), (3, 3), (50, 50), (1, 1), (4, 2)):
        got = mc_chi_square(n, p, q, 0.3, trials=trials, rng=np.random.default_rng([n, p, q]), chunk=chunk)
        want = _einsum_mc_chi_square(n, p, q, 0.3, trials, np.random.default_rng([n, p, q]), chunk)
        assert got == pytest.approx(want, rel=0.0, abs=1e-12), (trials, chunk)


def test_oracles_import_no_closed_form():
    # An oracle that borrows the formula it checks cannot catch that formula's
    # error: oracles takes nothing from divergence, nor structured_cov's
    # closed-form inverse, determinant or square root.
    imported = set()
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.name for alias in node.names} | {getattr(node, "module", None) or ""}
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"divergence", "cov_inverse", "cov_det", "cov_sqrt_apply"}, imported


def test_signs_draw_like_choice():
    from indeplab.structured_cov import random_signs

    for seed in range(50):
        for k in range(1, 12):
            r1, r2 = np.random.default_rng([seed, k]), np.random.default_rng([seed, k])
            assert np.array_equal(random_signs(r1, k), r2.choice([-1.0, 1.0], k))
            assert r1.random() == r2.random()


def _frozen_quad_form_pair(u, v, g, h, a, z):
    """``oracles.quad_form_pair`` on one configuration, taking the sign vectors
    and z: each projection a numpy sum, as the suite's are, and the right side
    the one-member ``einsum``."""
    p, q = u.size, v.size
    zx, zy = z[:p], z[p:]

    def T(uu, vv):
        uz = float(np.sum(uu * zx))
        vz = float(np.sum(vv * zy))
        return 2.0 * vz * uz - q * a * uz * uz - p * a * vz * vz

    chi = np.array([np.sum(u * zx), np.sum(v * zy), np.sum(g * zx), np.sum(h * zy)])
    return T(u, v) + T(g, h), float(np.einsum("i,ij,j->", chi, oracles._coupling_matrix(p, q, a), chi))


def _per_iteration_rows(seed, inject_fault):
    """The eigen, Sherman-Morrison, quadratic-form and Hoeffding sections of
    ``run_suite`` one configuration per call: the suite's array draws, then
    scalar or one-member calls on each configuration's slots:
    {row name: (brute_force, pass)}."""
    from indeplab import structured_cov as sc

    rng = np.random.default_rng([seed, 0xFACADE])
    P, Q = rng.integers(1, 7, size=(2, 200))
    signs = sc.random_signs(rng, 200 * 24).reshape(200, 2, 2, 6)  # (u, v), (g, h)
    A = rng.uniform(0.01, 0.9 / np.sqrt(P * Q))
    max_eig_err = max_prod_err = 0.0
    for p, q, s, a in zip(P.tolist(), Q.tolist(), signs, A.tolist()):
        ug, vh = float(s[0, 0, :p] @ s[1, 0, :p]), float(s[0, 1, :q] @ s[1, 1, :q])
        quad = gamma_eigs(a, p, q, ug, vh)
        closed = np.sort(np.array(quad.gammas))
        if inject_fault:
            closed = closed * (1.0 + 1e-3)
        numeric = gamma_numeric(p, q, ug, vh, a)
        max_eig_err = max(max_eig_err, float(np.max(np.abs(closed - numeric))))
        prod = float(np.prod(1.0 - quad.t * closed))
        r = (1.0 - a * a * ug * vh) / (1.0 - a * a * p * q)
        max_prod_err = max(max_prod_err, abs(prod - r * r) / abs(r * r))
    P, Q = rng.integers(1, 11, size=(2, 100))
    signs = sc.random_signs(rng, 100 * 20).reshape(100, 20)
    A = rng.uniform(0.0, 0.95 / np.sqrt(P * Q))
    max_inv = max_det = max_sqrt = 0.0
    for p, q, s, a, z in zip(P.tolist(), Q.tolist(), signs, A.tolist(), rng.standard_normal((100, 20))):
        lf = sc.CovStack(signs=s * (np.arange(20) < p + q), p=p, a=a)  # one member, padded to width 20
        dense = sc.dense_cov(lf)
        max_inv = max(max_inv, float(np.max(np.abs(dense @ sc.cov_inverse(lf) - np.eye(20)))))
        det = np.linalg.det(dense)
        max_det = max(max_det, abs(sc.cov_det(lf) - det) / abs(det))
        max_sqrt = max(max_sqrt, float(np.max(np.abs(sc.cov_sqrt_apply(lf, sc.cov_sqrt_apply(lf, z)) - dense @ z))))
    P, Q = rng.integers(1, 7, size=(2, 200))
    signs = sc.random_signs(rng, 200 * 24).reshape(200, 2, 2, 6)
    A = rng.uniform(0.01, 0.5 / np.sqrt(P * Q))
    max_quad = 0.0
    for p, q, s, a, z in zip(P.tolist(), Q.tolist(), signs, A.tolist(), rng.standard_normal((200, 2, 6))):
        u, v, g, h = s[0, 0, :p], s[0, 1, :q], s[1, 0, :p], s[1, 1, :q]
        lhs, rhs = _frozen_quad_form_pair(u, v, g, h, a, np.concatenate([z[0, :p], z[1, :q]]))
        max_quad = max(max_quad, abs(lhs - rhs))
    worst = 0.0
    for (p, q) in [(3, 3), (5, 4), (6, 6)]:
        for b in (0.2, 0.4):
            for mu in (1.5, 2.0, math.e, 10.0):
                threshold = (math.log(mu) / math.log(2.0)) * math.sqrt(p * q) / (b * b)
                worst = max(worst, enumerate_uv_tail(p, q, threshold) - hoeffding_tail_bound(p, q, b, mu))
    return {
        "gamma_eigs_max_abs_err": (max_eig_err, max_eig_err <= 1e-8),
        "gamma_product_identity_max_rel_err": (max_prod_err, max_prod_err <= 1e-10),
        "sherman_morrison_inverse_max_abs_err": (max_inv, max_inv <= 1e-10),
        "determinant_max_rel_err": (max_det, max_det <= 1e-10),
        "sqrt_composition_max_abs_err": (max_sqrt, max_sqrt <= 1e-10),
        "quad_form_identity_max_abs_err": (max_quad, max_quad <= 1e-10),
        "hoeffding_tail_dominates": (max(worst, 0.0), worst <= 0.0),
    }


@pytest.mark.parametrize("inject_fault", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 5, 7, 11, 42, 99, 123, 314, 777, 1000, 2024, 2758,
                                  4096, 31337, 65535, 2**31 - 1, 770799637690793716])
def test_suite_batches_match_per_iteration_loops(seed, inject_fault):
    from indeplab.oracles_suite import run_suite

    rows = {r["name"]: r for r in run_suite(seed=seed, inject_fault=inject_fault)}
    for name, (brute, passed) in _per_iteration_rows(seed, inject_fault).items():
        assert float(rows[name]["brute_force"]).hex() == float(brute).hex(), name
        assert rows[name]["pass"] == passed, name


def test_suite_draws_each_kind_once_per_section(monkeypatch):
    # Sizes, signs and amplitudes for each of the three randomized sections,
    # and z for two of them: 11 generator calls, where one call per number or
    # vector took 2,300.
    from indeplab.oracles_suite import run_suite

    calls = []
    make = np.random.default_rng

    class Counting:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            method = getattr(self._rng, name)

            def call(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return call

    monkeypatch.setattr(np.random, "default_rng", lambda *args: Counting(make(*args)))
    run_suite(seed=0)
    section = ["integers", "integers", "uniform"]  # sizes, signs, amplitudes
    assert calls == section + section + ["standard_normal"] + section + ["standard_normal"]
