"""Rank-two perturbed covariance family for cross-covariance testing.

The family consists of (p+q) x (p+q) matrices

    Sigma_uv = I + a * (uv' + vu')

where u is a length-p sign vector (padded with zeros on the Y block), v a
length-q sign vector (padded with zeros on the X block), and a > 0 a small
amplitude.  Every entry of the implied cross-covariance block is +-a, so its
Frobenius norm is a * sqrt(p*q).  The matrix is positive definite exactly
when a^2 * p * q < 1.  In floating point ``positive_definite`` decides it for
the whole package: ``CovStack``, ``power --regime lf``, and the chi-square of
``divergence``, so every admitted member has a finite square root, inverse
and chi-square grid corner.

``CovStack`` is the one type for members of the family: with no leading axis
it is one member, with a leading axis of length m a stack of m members of any
sizes, each padded with zeros to the stack's width d, where every closed form
acts as the identity.  ``LeastFavorableCov(u, v, a)`` builds one member from
u and v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class SingularCovarianceError(ValueError):
    """Raised when a member fails ``positive_definite``."""


@dataclass(frozen=True)
class CovStack:
    """One member of the family, or a stack of members of any sizes.

    The last axis of ``signs`` holds u, then v, then zeros up to the width d:
    p entries of u, and q, read off as the nonzero count less p, of v.  a is
    the amplitude.  With no leading axis (signs of length d, scalar p and a)
    it is one member; with a leading axis of length m it is m members padded
    to one width d, with p and a of length m.  ``dense_cov``, ``cov_inverse``,
    ``cov_det`` and ``cov_sqrt_apply`` take either and return a stack's
    results along the leading axis, each member's with the bits of its own
    call at the width d; on the padding they act as the identity.
    """

    signs: np.ndarray
    p: int | np.ndarray
    a: float | np.ndarray
    q: int | np.ndarray = field(init=False)

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=float)
        p = np.asarray(self.p, dtype=float)  # exact, and cheaper against floats
        a = np.asarray(self.a, dtype=float)
        if signs.ndim not in (1, 2) or p.shape != signs.shape[:-1] or a.shape != p.shape:
            raise ValueError("need signs of length d, or m x d, and one size p and amplitude a per member")
        p, a = p[()], a[()]  # one member's as scalars, which every closed form takes faster
        q = np.count_nonzero(signs, axis=-1) - p
        if not (np.abs(signs) == (np.arange(signs.shape[-1]) < _last(p + q, 1))).all():
            raise ValueError("u and v entries must be exactly +-1, and zero after them")
        if np.count_nonzero((p % 1 != 0) | (p < 1) | (q < 1)):
            raise ValueError("sizes p and q must be positive integers")
        if np.count_nonzero(a < 0):
            raise ValueError("amplitude a must be nonnegative")
        if not positive_definite(p, q, a).all():
            raise SingularCovarianceError("a^2*p*q >= 1: not positive definite")
        object.__setattr__(self, "signs", signs)
        # One member's sizes are ints, which can size arrays.
        object.__setattr__(self, "p", p if signs.ndim == 2 else int(p))
        object.__setattr__(self, "q", q if signs.ndim == 2 else int(q))
        object.__setattr__(self, "a", a)

    @cached_property
    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-padded vectors (u, 0) and (0, v, 0), stacked like ``signs``."""
        x_block = np.arange(self.signs.shape[-1]) < _last(self.p, 1)
        return np.where(x_block, self.signs, 0.0), np.where(x_block, 0.0, self.signs)


def positive_definite(p, q, a) -> bool | np.ndarray:
    """The one admission rule for a^2 pq < 1, elementwise: the smallest
    eigenvalue 1 - a sqrt(pq) (``_sqrt_factors``) and the determinant
    1 - pq a^2 (``cov_det``) are positive, and the grid corner a^2 pq of
    ``divergence`` is below 1, each rounded as its consumer rounds it.  NaN
    fails.  Scalars take ``math.sqrt``, which has ``np.sqrt``'s bits."""
    root = np.sqrt(p * q) if isinstance(p * q, np.ndarray) else math.sqrt(p * q)
    return (1.0 - a * root > 0.0) & (1.0 - p * q * a * a > 0.0) & (a * a * p * q < 1.0)


def LeastFavorableCov(u: np.ndarray, v: np.ndarray, a: float) -> CovStack:
    """One member of the family, a ``CovStack`` with no leading axis, from its
    sign blocks u (length p) and v (length q)."""
    return CovStack(signs=np.concatenate([u, v]), p=np.size(u), a=a)


@dataclass(frozen=True)
class Dataset:
    """n >= 1 samples of (X, Y) pairs, X of p >= 1 and Y of q >= 1 columns,
    stored as an n x (p+q) matrix."""

    values: np.ndarray
    p: int
    q: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not all(isinstance(k, (int, np.integer)) and k >= 1 for k in (self.p, self.q)):
            raise ValueError(f"p and q must be positive integers, got {self.p}, {self.q}")
        if values.ndim != 2 or values.shape[1] != self.p + self.q:
            raise ValueError(f"values must be n x (p+q) = n x {self.p + self.q}")
        if values.shape[0] < 1:
            raise ValueError("dataset must have at least one row")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite values")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.values[:, : self.p]

    @property
    def y(self) -> np.ndarray:
        return self.values[:, self.p :]


def amplitude(n: int, p: int, q: int, b: float) -> float:
    """Perturbation amplitude a = b / (sqrt(2n) * (pq)^(1/4)).

    With this scaling the cross-covariance Frobenius norm is
    b * (pq)^(1/4) / sqrt(2n).
    """
    if n < 1 or p < 1 or q < 1:
        raise ValueError("n, p, q must be positive")
    if b <= 0:
        raise ValueError("b must be positive")
    return b / (math.sqrt(2.0 * n) * (p * q) ** 0.25)


def random_signs(rng: np.random.Generator, k: int) -> np.ndarray:
    """k random signs; the same draws as ``rng.choice([-1.0, 1.0], k)``, faster.

    Bounded ``integers`` takes one 32-bit word per value from the bit
    generator's buffered stream, in order, so one call for several vectors,
    sliced apart, draws the same signs as one call per vector.
    """
    return rng.integers(0, 2, size=k) * 2.0 - 1.0


def sample_direction(p: int, q: int, rng: np.random.Generator, a: float = 0.0) -> CovStack:
    """Draw (u, v) uniformly over the 2^(p+q) sign patterns."""
    return CovStack(signs=random_signs(rng, p + q), p=p, a=a)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.outer of the last axes, stacked over any leading ones."""
    return x[..., :, None] * y[..., None, :]


def _last(x, axes: int) -> np.ndarray:
    """A per-member scalar (or array of them) with ``axes`` unit axes appended."""
    return np.asarray(x).reshape(np.shape(x) + (1,) * axes)


def dense_cov(lf: CovStack) -> np.ndarray:
    """Full d x d matrix I + a(uv' + vu')."""
    up, vp = lf.padded
    return np.eye(up.shape[-1]) + _last(lf.a, 2) * (_outer(up, vp) + _outer(vp, up))


def cov_inverse(lf: CovStack) -> np.ndarray:
    """Closed-form inverse via the Sherman-Morrison rank-two update.

    Sigma^-1 = I - a(vu' + uv' - a(p vv' + q uu')) / (1 - pq a^2).
    """
    p, q, a, denom = (_last(x, 2) for x in (lf.p, lf.q, lf.a, cov_det(lf)))
    up, vp = lf.padded
    num = a * (_outer(vp, up) + _outer(up, vp) - a * (p * _outer(vp, vp) + q * _outer(up, up)))
    return np.eye(up.shape[-1]) - num / denom


def cov_det(lf: CovStack) -> float | np.ndarray:
    """det(Sigma_uv) = 1 - pq a^2 (Schur complement + Sylvester)."""
    return 1.0 - lf.p * lf.q * lf.a * lf.a


def _sqrt_factors(lf: CovStack) -> tuple:
    """Eigenpairs of the rank-two perturbation.

    The perturbation a(uv'+vu') has eigenvalues +-a*sqrt(pq) with unit
    eigenvectors w_pm = u/sqrt(2p) (+/-) v/sqrt(2q) (padded blocks); all other
    eigenvalues are 0.  Hence lambda_pm = 1 +- a*sqrt(pq) for Sigma itself.
    """
    p, q, a = lf.p, lf.q, lf.a
    s = a * np.sqrt(p * q)
    lam_plus, lam_minus = 1.0 + s, 1.0 - s
    up, vp = lf.padded
    up = up / _last(np.sqrt(2.0 * p), 1)
    vp = vp / _last(np.sqrt(2.0 * q), 1)
    return lam_plus, lam_minus, up + vp, up - vp


def cov_sqrt_apply(lf: CovStack, z: np.ndarray) -> np.ndarray:
    """Apply the symmetric square root Sigma^(1/2) to z in O(d).

    z is one vector of length d, a batch of shape (n, d) for one member, or
    one vector per member of a stack, shape (m, d).  One expression serves all
    three: numpy's ``einsum`` sums each w'z in one order, with no BLAS call,
    wherever the vector sits in memory, so each vector gets the bits of its
    own one-vector call.
    """
    lam_plus, lam_minus, w_plus, w_minus = _sqrt_factors(lf)
    z = np.asarray(z, dtype=float)
    cw_plus = _last(np.sqrt(lam_plus) - 1.0, 1) * w_plus
    cw_minus = _last(np.sqrt(lam_minus) - 1.0, 1) * w_minus
    dot_plus, dot_minus = (np.einsum("...i,...i->...", w, z) for w in (w_plus, w_minus))
    return z + _last(dot_plus, 1) * cw_plus + _last(dot_minus, 1) * cw_minus


def sample_dataset(
    lf: CovStack | None,
    n: int,
    rng: np.random.Generator,
    p: int | None = None,
    q: int | None = None,
) -> Dataset:
    """Draw n i.i.d. rows from N(0, Sigma_uv), or from N(0, I) when lf is None.

    Under the null (lf None) the dimensions p, q must be given explicitly.
    """
    if lf is None:
        if p is None or q is None:
            raise ValueError("p and q required for null-hypothesis sampling")
        values = rng.standard_normal((n, p + q))
        return Dataset(values=values, p=p, q=q)
    z = rng.standard_normal((n, lf.signs.shape[-1]))  # a padded member's rows fail Dataset's check
    values = cov_sqrt_apply(lf, z)
    return Dataset(values=values, p=lf.p, q=lf.q)
