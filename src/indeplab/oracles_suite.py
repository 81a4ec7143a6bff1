"""Built-in oracle comparison sweep behind the `verify` subcommand.

Each entry pits a closed form against an independent brute-force computation
at tiny dimensions and reports the worst-case discrepancy.  Aggregate rows
use closed_form = 0 as the target with brute_force holding the observed
maximum error.

Each randomized section draws all its configurations at once, one generator
call per kind (sizes, signs, amplitudes, z), each configuration's signs and z
in fixed slots of which it uses the first p or q, and then checks them in
one stack: the production closed forms broadcast over a leading axis, and a
``CovStack`` holds members of any size padded to one width.
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


def _draw(rng: np.random.Generator, m: int, high: int, a_lo: float, a_hi: float, slots: tuple):
    """m configurations, one generator call per kind: sizes p and q, each uniform
    on [1, high); signs of shape (m, *slots); and the amplitude a, uniform on
    [a_lo, a_hi / sqrt(pq))."""
    p, q = rng.integers(1, high, size=(2, m))
    signs = sc.random_signs(rng, m * math.prod(slots)).reshape(m, *slots)
    return p, q, signs, rng.uniform(a_lo, a_hi / np.sqrt(p * q))


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
    # Signs in slots (u, v), (g, h) of 6 each: u and g take the first p of
    # theirs, v and h the first q.
    p, q, signs, a = _draw(rng, 200, 7, 0.01, 0.9, (2, 2, 6))
    in_block = np.arange(6) < np.stack([p, q], axis=-1)[..., None]
    ug, vh = np.sum(signs[:, 0] * signs[:, 1] * in_block, axis=-1).T
    quad = dv.gamma_eigs(a, p, q, ug, vh)
    closed = np.sort(np.stack(quad.gammas, axis=-1), axis=-1)
    if inject_fault:
        closed = closed * (1.0 + 1e-3)
    numeric = oracles.gamma_numeric(p, q, ug, vh, a)
    max_eig_err = float(np.max(np.abs(closed - numeric)))
    prods = np.prod(1.0 - quad.t[:, None] * closed, axis=-1)
    target = ((1.0 - a * a * ug * vh) / (1.0 - a * a * p * q)) ** 2
    max_prod_err = float(np.max(np.abs(prods - target) / np.abs(target)))
    rows.append(_row("gamma_eigs_max_abs_err", 0.0, max_eig_err, 1e-8))
    rows.append(_row("gamma_product_identity_max_rel_err", 0.0, max_prod_err, 1e-10))

    # Sherman-Morrison inverse, determinant, and square root vs dense oracles,
    # on one stack of width 20: each member's signs (u, v) in the first p + q
    # of its 20 slots, zeros after them, and z in all 20.
    p, q, signs, a = _draw(rng, 100, 11, 0.0, 0.95, (20,))
    z = rng.standard_normal((100, 20))
    lf = sc.CovStack(signs=signs * (np.arange(20) < (p + q)[:, None]), p=p, a=a)
    dense = sc.dense_cov(lf)
    err = dense @ sc.cov_inverse(lf)
    err -= np.eye(20)
    max_inv = float(np.max(np.abs(err, out=err)))
    det = np.linalg.det(dense)
    max_det = float(np.max(np.abs(sc.cov_det(lf) - det) / np.abs(det)))
    err = sc.cov_sqrt_apply(lf, sc.cov_sqrt_apply(lf, z))
    err -= (dense @ z[..., None])[..., 0]
    max_sqrt = float(np.max(np.abs(err, out=err)))
    rows.append(_row("sherman_morrison_inverse_max_abs_err", 0.0, max_inv, 1e-10))
    rows.append(_row("determinant_max_rel_err", 0.0, max_det, 1e-10))
    rows.append(_row("sqrt_composition_max_abs_err", 0.0, max_sqrt, 1e-10))

    # Quadratic-form reduction to the 4x4 representation, for all 200
    # configurations at once; signs in slots as for the eigenvalues, z's X and
    # Y blocks in the first p and q of its two slots of 6.
    p, q, signs, a = _draw(rng, 200, 7, 0.01, 0.5, (2, 2, 6))
    in_block = np.arange(6) < np.stack([p, q], axis=-1)[..., None]
    z = rng.standard_normal((200, 2, 6)) * in_block
    chi = np.sum(signs * z[:, None], axis=-1).reshape(-1, 4)  # u'z, v'z, g'z, h'z
    lhs, rhs = oracles.quad_form_pair(chi, p, q, a)
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
