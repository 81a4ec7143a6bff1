"""Built-in oracle comparison sweep behind the `verify` subcommand.

Each entry pits a closed form against an independent brute-force computation
at tiny dimensions and reports the worst-case discrepancy.  Aggregate rows
use closed_form = 0 as the target with brute_force holding the observed
maximum error.

Each randomized section draws all its configurations first, in one loop that
makes the same generator calls in the same order as one check per
configuration would, and then checks them in stacks: the production closed
forms broadcast over a leading axis, and every inner product is a stacked
``matmul``, so each configuration gets the bits of its own call.
"""

from __future__ import annotations

import math

import numpy as np

from . import divergence as dv
from . import oracles
from . import structured_cov as sc


def _row(name: str, closed: float, brute: float, tol: float, passed: bool | None = None) -> dict:
    abs_err = abs(closed - brute)
    scale = max(abs(closed), abs(brute))
    rel_err = abs_err / scale if scale > 0 else 0.0
    if passed is None:
        passed = (abs_err <= tol) if (closed == 0.0 or brute == 0.0) else (rel_err <= tol)
    return {
        "name": name,
        "closed_form": closed,
        "brute_force": brute,
        "abs_err": abs_err,
        "rel_err": rel_err,
        "pass": bool(passed),
    }


def _sign_quadruple(rng: np.random.Generator, p: int, q: int) -> tuple[np.ndarray, ...]:
    """Sign vectors u, g of length p and v, h of length q, in that order, from one draw."""
    signs = sc.random_signs(rng, 2 * (p + q))
    return signs[:p], signs[p:2 * p], signs[2 * p:2 * p + q], signs[2 * p + q:]


def _sizes(rng: np.random.Generator, high: int) -> tuple[int, int]:
    """(p, q), each uniform on [1, high)."""
    return int(rng.integers(1, high)), int(rng.integers(1, high))


def _groups(sizes) -> list[tuple[int, list[int]]]:
    """(k, the indices i with sizes[i] == k, in order) for each size k, ascending.

    Plain Python: ``np.unique`` on integers would import ``numpy.ma``.
    """
    groups: dict[int, list[int]] = {}
    for i, k in enumerate(sizes):
        groups.setdefault(k, []).append(i)
    return sorted(groups.items())


def _projections(pairs: list[np.ndarray], z: list[np.ndarray]) -> np.ndarray:
    """(m, 2): s'z[i] and t'z[i] for each concatenated sign pair pairs[i] = (s, t).

    Stacked per length of z[i], with the bits of the 1-d ``s @ z[i]``.
    """
    out = np.empty((len(z), 2))
    for k, idx in _groups([zi.size for zi in z]):
        s_t = np.array([pairs[i] for i in idx]).reshape(-1, 2, k)
        out[idx] = sc._dot(s_t, np.array([z[i] for i in idx])[:, None])
    return out


def run_suite(seed: int = 0, inject_fault: bool = False) -> list[dict]:
    rng = np.random.default_rng([seed, 0xFACADE])
    rows: list[dict] = []

    # Chi-square: binomial closed form vs full sign-quadruple enumeration.
    for (p, q) in [(1, 1), (2, 2), (3, 2), (4, 4)]:
        for n in (1, 5):
            for b in (0.1, 0.3):
                closed = dv.chi_square_exact(n, p, q, b)
                brute = oracles.enumerate_chi_square(n, p, q, b)
                rows.append(_row(f"chi2_enum_p{p}q{q}n{n}b{b:g}", closed, brute, 1e-12))

    # Eigenvalue closed form vs dense eigendecomposition; product identity.
    draws = []
    for _ in range(200):
        p, q = _sizes(rng, 7)
        u, g, v, h = _sign_quadruple(rng, p, q)
        a = float(rng.uniform(0.01, 0.9 / math.sqrt(p * q)))
        draws.append((p, q, u @ g, v @ h, a))
    p, q, ug, vh, a = (np.array(col) for col in zip(*draws))
    quad = dv.gamma_eigs(a, p, q, ug, vh)
    closed = np.sort(np.stack(quad.gammas, axis=-1), axis=-1)
    if inject_fault:
        closed = closed * (1.0 + 1e-3)
    numeric = oracles.gamma_numeric(p, q, ug, vh, a)
    max_eig_err = float(np.max(np.abs(closed - numeric)))
    prods = np.prod(1.0 - quad.t[:, None] * closed, axis=-1).tolist()
    ratios = ((1.0 - a * a * ug * vh) / (1.0 - a * a * p * q)).tolist()
    # Squared one float at a time: libm's pow, as for a scalar, not numpy's x * x.
    max_prod_err = max(abs(prod - r**2) / abs(r**2) for prod, r in zip(prods, ratios))
    rows.append(_row("gamma_eigs_max_abs_err", 0.0, max_eig_err, 1e-8))
    rows.append(_row("gamma_product_identity_max_rel_err", 0.0, max_prod_err, 1e-10))

    # Sherman-Morrison inverse, determinant, and square root vs dense oracles,
    # on one stack of members per size d = p + q.
    draws = []
    for _ in range(100):
        p, q = _sizes(rng, 11)
        a = float(rng.uniform(0.0, 0.95)) / math.sqrt(p * q)
        draws.append((p, a, sc.random_signs(rng, p + q), rng.standard_normal(p + q)))
    max_inv = max_det = max_sqrt = 0.0
    for d, idx in _groups([draw[3].size for draw in draws]):
        # Lists, not zip(*...): its short tuples of varying length would pile
        # up in the interpreter's tuple free lists, call after call.
        p, a, signs, z = (np.array([draws[i][c] for i in idx]) for c in range(4))
        lf = sc.CovStack(signs=signs, p=p, a=a)
        dense = sc.dense_cov(lf)
        max_inv = max(max_inv, float(np.max(np.abs(dense @ sc.cov_inverse(lf) - np.eye(d)))))
        det = np.linalg.det(dense)
        max_det = max(max_det, float(np.max(np.abs(sc.cov_det(lf) - det) / np.abs(det))))
        twice = sc.cov_sqrt_apply(lf, sc.cov_sqrt_apply(lf, z))
        max_sqrt = max(max_sqrt, float(np.max(np.abs(twice - (dense @ z[..., None])[..., 0]))))
    rows.append(_row("sherman_morrison_inverse_max_abs_err", 0.0, max_inv, 1e-10))
    rows.append(_row("determinant_max_rel_err", 0.0, max_det, 1e-10))
    rows.append(_row("sqrt_composition_max_abs_err", 0.0, max_sqrt, 1e-10))

    # Quadratic-form reduction to the 4x4 representation, for all 200
    # configurations at once.
    draws = []
    for _ in range(200):
        p, q = _sizes(rng, 7)
        signs = sc.random_signs(rng, 2 * (p + q))  # u, g, v, h
        a = float(rng.uniform(0.01, 0.5 / math.sqrt(p * q)))
        z = rng.standard_normal(p + q)
        draws.append((p, q, a, signs[:2 * p], z[:p], signs[2 * p:], z[p:]))
    p, q, a, ug, zx, vh, zy = zip(*draws)
    chi = np.empty((len(draws), 4))  # u'z, v'z, g'z, h'z
    chi[:, ::2] = _projections(ug, zx)
    chi[:, 1::2] = _projections(vh, zy)
    lhs, rhs = oracles.quad_form_pair(chi, np.array(p), np.array(q), np.array(a))
    rows.append(_row("quad_form_identity_max_abs_err", 0.0, float(np.max(np.abs(lhs - rhs))), 1e-10))

    # Hoeffding tail bound dominates the exact sign-sum tail.
    worst_violation = 0.0
    cases = [(b, mu) for b in (0.2, 0.4) for mu in (1.5, 2.0, math.e, 10.0)]
    for (p, q) in [(3, 3), (5, 4), (6, 6)]:
        thresholds = [(math.log(mu) / math.log(2.0)) * math.sqrt(p * q) / (b * b) for b, mu in cases]
        exact = oracles.enumerate_uv_tail(p, q, np.array(thresholds)).tolist()
        for (b, mu), tail in zip(cases, exact):
            worst_violation = max(worst_violation, tail - dv.hoeffding_tail_bound(p, q, b, mu))
    rows.append(_row("hoeffding_tail_dominates", 0.0, max(worst_violation, 0.0), 0.0,
                     passed=worst_violation <= 0.0))

    # (1-x)^(-1/x) <= 4 on x in [-10, 1/2], excluding 0, a quarter of each
    # half at a time: small temporaries, and the max is exact.
    excess = -math.inf
    for half in (np.linspace(-10.0, -1e-6, 20001), np.linspace(1e-6, 0.5, 20001)):
        for x in np.array_split(half, 4):
            excess = max(excess, float(np.max(np.exp(-np.log1p(-x) / x) - 4.0)))
    rows.append(_row("one_minus_x_pow_bound", 0.0, max(excess, 0.0), 0.0, passed=excess <= 1e-12))

    # Quadrature of the exact density ratio checks the Gaussian-integral derivation.
    closed = dv.chi_square_exact(2, 1, 1, 0.4)
    rows.append(_row("quad_chi2_p1q1n2b0.4", closed, oracles.quad_chi_square(2, 1, 1, 0.4), 1e-11))

    return rows
