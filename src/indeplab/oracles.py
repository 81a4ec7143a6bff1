"""Brute-force validators for the closed-form divergence machinery.

Everything here is deliberately independent of the closed forms it checks:
enumeration over sign vectors, dense eigendecompositions, and Monte-Carlo
and Gauss-Hermite integration of the exact density ratio.  Feasible only at
tiny dimensions; that is the point.  The full-grid kernels (``gamma_grid``,
``permuted_stats_loop``) are the straightforward forms that the package's
fast paths replaced, kept as their references.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from .divergence import _log_weights
from .structured_cov import Dataset, LeastFavorableCov, amplitude, cov_det, cov_inverse, dense_cov

MAX_ENUM_DIM = 8  # 4^(p+q) quadruple enumeration cap
MAX_MC_DIM = 5
MAX_MC_N = 4
MAX_QUAD_DIM = 3  # QUAD_NODES^(p+q) nodes per mixture component
QUAD_NODES = 32  # Gauss-Hermite nodes per axis


class InfeasibleSizeError(ValueError):
    """Requested brute-force computation is too large to enumerate."""


def _sign_vectors(d: int) -> np.ndarray:
    """All 2^d sign vectors as a (2^d, d) array."""
    return np.array(list(product((-1.0, 1.0), repeat=d)))


def enumerate_chi_square(n: int, p: int, q: int, b: float) -> float:
    """Average of (1 - a^2 (u'g)(v'h))^(-n) over all sign quadruples, minus 1.

    Exact 4^(p+q) enumeration; requires p + q <= 8.  x = a^2 (u'g)(v'h) and
    -x occur equally often, so each term is the mean of the two,
    expm1(s) + 2 e^s sinh^2(n atanh(x) / 2) with s = -(n/2) log1p(-x^2): two
    nonnegative parts, where the expm1 of each alone would cancel to first
    order in x.

    The u'g over all 2^p x 2^p sign pairs take p + 1 distinct values, and
    the v'h q + 1; their multiplicities are counted off the enumeration
    itself, so nothing here comes from a binomial formula.  The term is
    evaluated once per distinct (u'g, v'h), and the count-weighted sum is
    formed exactly and rounded once: the same bits as ``math.fsum`` over all
    4^(p+q) terms, which it falls back to when a term is not finite.
    """
    if p + q > MAX_ENUM_DIM:
        raise InfeasibleSizeError(f"p+q = {p + q} exceeds enumeration cap {MAX_ENUM_DIM}")
    if b == 0.0:
        return 0.0
    a = amplitude(n, p, q, b)
    su = _sign_vectors(p)
    sv = _sign_vectors(q)
    ug, ug_count = np.unique(su @ su.T, return_counts=True)  # distinct u'g inner products
    vh, vh_count = np.unique(sv @ sv.T, return_counts=True)
    x = a * a * ug[:, None] * vh[None, :]
    if np.any(1.0 - x <= 0.0):
        raise ValueError("1 - a^2 (u'g)(v'h) <= 0: divergent configuration")
    s = -0.5 * n * np.log1p(-x * x)
    terms = np.expm1(s) + 2.0 * np.exp(s) * np.sinh(0.5 * n * np.arctanh(x)) ** 2
    counts = (ug_count[:, None] * vh_count[None, :]).ravel().tolist()
    size = sum(counts)  # 4^(p+q)
    if not np.all(np.isfinite(terms)):
        return math.fsum(np.repeat(terms.ravel(), counts).tolist()) / size
    # Each double is m / 2^e exactly; over the largest denominator the
    # weighted sum is one integer ratio, and int / int rounds it once.
    ratios = [t.as_integer_ratio() for t in terms.ravel().tolist()]
    den = max(d for _, d in ratios)
    return sum(c * m * (den // d) for c, (m, d) in zip(counts, ratios)) / den / size


def mc_chi_square(
    n: int, p: int, q: int, b: float, trials: int, rng: np.random.Generator, chunk: int = 50_000
) -> tuple[float, float]:
    """Monte-Carlo estimate of E_0[(f1/f0)^2] - 1 with the exact mixture ratio.

    Draws z_1..z_n ~ N(0, I) and evaluates the 2^(p+q)-component Gaussian
    mixture density ratio exactly through the dense inverse and determinant.
    Returns (estimate, standard error).
    """
    if p + q > MAX_MC_DIM or n > MAX_MC_N:
        raise InfeasibleSizeError(f"(p+q, n) = ({p + q}, {n}) exceeds MC caps ({MAX_MC_DIM}, {MAX_MC_N})")
    a = amplitude(n, p, q, b)
    su = _sign_vectors(p)
    sv = _sign_vectors(q)
    components = []
    for u in su:
        for v in sv:
            lf = LeastFavorableCov(u=u, v=v, a=a)
            # log-ratio of N(0, Sigma) to N(0, I) at z: -(n/2) log det
            # + (1/2) sum_i z_i'(I - Sigma^-1) z_i
            components.append((np.eye(p + q) - cov_inverse(lf), cov_det(lf)))
    m = len(components)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < trials:
        batch = min(chunk, trials - done)
        # z is drawn as (batch, n, p + q) and held as (n, p + q, batch), so each
        # quadratic form sum_i z_i' delta z_i is accumulated term by term, in the
        # (i, j, k) order of np.einsum("bij,jk,bik->b", z, delta, z), across the
        # batch at once.  That keeps einsum's bits at every batch size but 1 and
        # 2, where einsum changes its loop order (seen at n = 1, p + q = 2).
        zt = np.ascontiguousarray(rng.standard_normal((batch, n, p + q)).transpose(1, 2, 0))
        quad, term = np.empty(batch), np.empty(batch)
        log_ratios = np.empty((batch, m))
        for c, (delta, det) in enumerate(components):
            quad[:] = 0.0
            for i, j, k in product(range(n), range(p + q), range(p + q)):
                np.multiply(zt[i, j], delta[j, k], out=term)
                term *= zt[i, k]
                quad += term
            log_ratios[:, c] = 0.5 * quad - 0.5 * n * math.log(det)
        peak = log_ratios.max(axis=1, keepdims=True)
        ratio = np.exp(peak[:, 0]) * np.exp(log_ratios - peak).mean(axis=1)
        sq = ratio * ratio
        total += float(sq.sum())
        total_sq += float((sq * sq).sum())
        done += batch
    mean = total / trials
    var = max(total_sq / trials - mean * mean, 0.0)
    stderr = math.sqrt(var / trials)
    return mean - 1.0, stderr


def quad_chi_square(n: int, p: int, q: int, b: float) -> float:
    """E_0[(f1/f0)^2] - 1 by Gauss-Hermite quadrature of the exact mixture ratio.

    f1/f0 = mean_c prod_i g_c(z_i) over the 2^(p+q) sign components, with
    g_c = N(0, Sigma_c) / N(0, I) from the dense inverse and determinant of
    Sigma_c, so E_0[(f1/f0)^2] = mean_{c,c'} E_0[g_c g_c']^n.  Since
    E_0[g_c] = 1, E_0[g_c g_c'] - 1 = E_0[h_c h_c'] with h_c = g_c - 1, which
    a QUAD_NODES^(p+q) tensor grid of ``hermegauss`` nodes integrates.  It
    converges fast while c = |a| sqrt(pq) is well below 1 (within 1e-14 at
    c = 0.54) and slowly as c -> 1.  Requires p + q <= MAX_QUAD_DIM.
    """
    if p + q > MAX_QUAD_DIM:
        raise InfeasibleSizeError(f"p+q = {p + q} exceeds quadrature cap {MAX_QUAD_DIM}")
    a, d = amplitude(n, p, q, b), p + q
    nodes, w = np.polynomial.hermite_e.hermegauss(QUAD_NODES)
    z = np.stack(np.meshgrid(*[nodes] * d, indexing="ij"), axis=-1).reshape(-1, d)
    weight = np.prod(np.meshgrid(*[w / math.sqrt(math.tau)] * d, indexing="ij"), axis=0).ravel()
    log_g = []
    for u in _sign_vectors(p):
        for v in _sign_vectors(q):
            sigma = dense_cov(LeastFavorableCov(u=u, v=v, a=a))
            delta = np.eye(d) - np.linalg.inv(sigma)
            log_g.append(0.5 * np.einsum("ij,jk,ik->i", z, delta, z) - 0.5 * math.log(np.linalg.det(sigma)))
    h = np.expm1(np.array(log_g))
    return float(np.mean(np.expm1(n * np.log1p((h * weight) @ h.T))))


def gamma_grid(a: float, p: int, q: int) -> np.ndarray:
    """All gamma_ij over the full achievable (ug, vh) grid, vectorized.

    The expanded-polynomial discriminant, independent of the stable scalar
    ``divergence.gamma_eigs``; reference for the 2c / (1 + c) maximum behind
    ``divergence.mgf_validity``.  Returns shape (len(Us), len(Vs), 4).
    """
    Us = np.arange(-p, p + 1, 2, dtype=float)[:, None]
    Vs = np.arange(-q, q + 1, 2, dtype=float)[None, :]
    out = np.empty((Us.shape[0], Vs.shape[1], 4))
    k = 0
    for i in (0, 1):
        si = (-1.0) ** i
        R = (
            4.0 * p * q
            - si * 4.0 * q * Us
            + a * a * q * q * Us**2
            - si * 4.0 * p * Vs
            + 4.0 * Us * Vs
            - 2.0 * a * a * p * q * Us * Vs
            + a * a * p * p * Vs**2
        )
        root = np.sqrt(np.maximum(R, 0.0))
        for j in (0, 1):
            out[:, :, k] = 0.5 * (-2.0 * a * p * q + si * a * q * Us + si * a * p * Vs - (-1.0) ** j * root)
            k += 1
    return out


def _coupling_matrix(p, q, a) -> np.ndarray:
    """The 4x4 A of chi' A chi, chi = (u'z, v'z, g'z, h'z); stacked over array arguments."""
    A = np.zeros(np.broadcast(p, q, a).shape + (4, 4))
    A[..., 0, 0] = A[..., 2, 2] = -q * a
    A[..., 1, 1] = A[..., 3, 3] = -p * a
    A[..., 0, 1] = A[..., 1, 0] = A[..., 2, 3] = A[..., 3, 2] = 1.0
    return A


def gamma_numeric(p, q, ug, vh, a) -> np.ndarray:
    """Eigenvalues of S^(1/2) A S^(1/2) for the 4x4 covariance of the sign
    projections (u'z, v'z, g'z, h'z), computed by dense eigendecomposition.

    ug = u'g and vh = v'h are the inner products of the sign vectors.
    Returns the four eigenvalues sorted ascending, along a last axis of four
    when the arguments are arrays of configurations (broadcast together).
    """
    p, q, ug, vh, a = np.broadcast_arrays(p, q, ug, vh, a)
    A = _coupling_matrix(p, q, a)
    # S has fixed eigenvectors (1,0,+-1,0)/sqrt(2), (0,1,0,+-1)/sqrt(2) with
    # eigenvalues p +- ug and q +- vh; forming the PSD square root from them
    # avoids the precision loss of a generic eigh near singular S.
    r2 = math.sqrt(2.0)
    V = np.array(
        [
            [1 / r2, 0, 1 / r2, 0],
            [0, 1 / r2, 0, 1 / r2],
            [1 / r2, 0, -1 / r2, 0],
            [0, 1 / r2, 0, -1 / r2],
        ]
    )
    w = np.stack([p + ug, q + vh, p - ug, q - vh], axis=-1)
    sqrt_S = (V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ V.T
    return np.sort(np.linalg.eigvalsh(sqrt_S @ A @ sqrt_S), axis=-1)


def quad_form_pair(u, v, g, h, a: float, z: np.ndarray) -> tuple[float, float]:
    """Both sides of the identity T(u,v,z) + T(g,h,z) = chi' A chi.

    T(u,v,z) = 2(v'z)(u'z) - qa(u'z)^2 - pa(v'z)^2 with u, v acting on their
    own blocks of z.  Used to validate the 4x4 reduction on random z.
    """
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    g = np.asarray(g, float)
    h = np.asarray(h, float)
    p, q = u.size, v.size
    zx, zy = z[:p], z[p:]

    def T(uu, vv):
        uz = float(uu @ zx)
        vz = float(vv @ zy)
        return 2.0 * vz * uz - q * a * uz * uz - p * a * vz * vz

    lhs = T(u, v) + T(g, h)
    chi = np.array([u @ zx, v @ zy, g @ zx, h @ zy])
    A = _coupling_matrix(p, q, a)
    rhs = float(chi @ A @ chi)
    return lhs, rhs


def _binomial_pmf(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Support and pmf of the sum of d independent +-1 signs."""
    return d - 2.0 * np.arange(d + 1), np.exp(_log_weights(d))


def enumerate_uv_tail(p: int, q: int, threshold):
    """Exact P(|UV| >= threshold) for the product of the two sign sums; an
    array of thresholds gives the array of tails."""
    if p > 12 or q > 12:
        raise InfeasibleSizeError("p, q must be <= 12 for exact tail enumeration")
    U, wu = _binomial_pmf(p)
    V, wv = _binomial_pmf(q)
    prod = np.abs(U[:, None] * V[None, :])
    w = wu[:, None] * wv[None, :]
    tails = [float(w[prod >= t].sum()) for t in np.ravel(threshold)]
    return tails[0] if np.ndim(threshold) == 0 else np.array(tails)


def permuted_stats_loop(
    ds: Dataset, B: int, rng: np.random.Generator, centered: bool = False
) -> np.ndarray:
    """The B permuted cross-covariance statistics, one product per permutation.

    Reference for the chunked kernel ``stat_tests.permuted_stat_chunks``: one
    ``rng.permutation(n)`` per statistic, the stream that the kernel's
    ``rng.permuted`` shuffles reproduce, and the same arithmetic per
    statistic, so the two agree bit for bit without sharing the draw call.
    """
    x, y = ds.x, ds.y
    n = ds.n
    if centered:
        x = x - x.mean(axis=0)
        y = y - y.mean(axis=0)
        denom = n - 1
    else:
        denom = n
    out = np.empty(B)
    for i in range(B):
        cross = (x.T @ y[rng.permutation(n)]) / denom
        out[i] = float(np.sum(cross * cross))
    return out
