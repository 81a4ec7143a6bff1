"""Rank-two perturbed covariance family for cross-covariance testing.

The family consists of (p+q) x (p+q) matrices

    Sigma_uv = I + a * (uv' + vu')

where u is a length-p sign vector (padded with zeros on the Y block), v a
length-q sign vector (padded with zeros on the X block), and a > 0 a small
amplitude.  Every entry of the implied cross-covariance block is +-a, so its
Frobenius norm is a * sqrt(p*q).  The matrix is positive definite exactly
when a^2 * p * q < 1.

``CovStack`` is the one type for members of the family: with no leading axis
it is one member, with a leading axis of length m a stack of m members of one
size p + q.  ``LeastFavorableCov(u, v, a)`` builds one member from u and v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


class SingularCovarianceError(ValueError):
    """Raised when a^2 * p * q >= 1 and the family member is not PD."""


@dataclass(frozen=True)
class ProblemConfig:
    """Dimensions and test-design parameters for one testing problem."""

    n: int
    p: int
    q: int
    alpha: float = 0.05
    beta: float = 0.35
    kappa: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.n < 1 or self.p < 1 or self.q < 1:
            raise ValueError("n, p, q must be positive integers")
        if not (0.0 < self.alpha < self.beta < 1.0):
            raise ValueError(f"need 0 < alpha < beta < 1, got alpha={self.alpha}, beta={self.beta}")
        if self.kappa is not None:
            if self.kappa <= 0:
                raise ValueError("kappa must be positive")
            if (self.p + self.q) / self.n > self.kappa:
                raise ValueError(
                    f"(p+q)/n = {(self.p + self.q) / self.n:.4g} exceeds kappa = {self.kappa}"
                )
        if self.b is not None and self.b < 0:
            raise ValueError("b must be nonnegative")


@dataclass(frozen=True)
class CovStack:
    """One member of the family, or a stack of members of one size.

    The last axis of ``signs`` holds u followed by v, split after p entries,
    and a is the amplitude.  With no leading axis (signs of length d = p + q,
    scalar p and a) it is one member; with a leading axis of length m it is m
    members that share the size d, with p and a of length m.  ``dense_cov``,
    ``cov_inverse``, ``cov_det`` and ``cov_sqrt_apply`` take either and return
    a stack's results along the leading axis, each member's with the bits of
    its own call.
    """

    signs: np.ndarray
    p: int | np.ndarray
    a: float | np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=float)
        p = np.asarray(self.p, dtype=float)  # exact, and cheaper against floats
        a = np.asarray(self.a, dtype=float)
        if signs.ndim not in (1, 2) or p.shape != signs.shape[:-1] or a.shape != p.shape:
            raise ValueError("need signs of length d, or m x d, and one size p and amplitude a per member")
        p, a = p[()], a[()]  # one member's as scalars, which every closed form takes faster
        if not (np.abs(signs) == 1.0).all():
            raise ValueError("u and v entries must be exactly +-1")
        q = signs.shape[-1] - p
        if np.count_nonzero((p % 1 != 0) | (p < 1) | (q < 1)):
            raise ValueError("sizes p and q must be positive integers")
        if np.count_nonzero(a < 0):
            raise ValueError("amplitude a must be nonnegative")
        if np.count_nonzero(a * a * p * q >= 1.0):
            raise SingularCovarianceError("a^2*p*q >= 1: not positive definite")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "p", p if signs.ndim == 2 else int(p))  # one member's p can size arrays
        object.__setattr__(self, "a", a)

    @cached_property
    def q(self) -> int | np.ndarray:
        return self.signs.shape[-1] - self.p

    @cached_property
    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-padded vectors (u, 0) and (0, v), stacked like ``signs``."""
        x_block = np.arange(self.signs.shape[-1]) < _last(self.p, 1)
        return np.where(x_block, self.signs, 0.0), np.where(x_block, 0.0, self.signs)


def LeastFavorableCov(u: np.ndarray, v: np.ndarray, a: float) -> CovStack:
    """One member of the family, a ``CovStack`` with no leading axis, from its
    sign blocks u (length p) and v (length q)."""
    return CovStack(signs=np.concatenate([u, v]), p=np.size(u), a=a)


@dataclass(frozen=True)
class Dataset:
    """n samples of (X, Y) pairs stored as an n x (p+q) matrix."""

    values: np.ndarray
    p: int
    q: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != self.p + self.q:
            raise ValueError(f"values must be n x (p+q) = n x {self.p + self.q}")
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
    return b / (np.sqrt(2.0 * n) * (p * q) ** 0.25)


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
    """Full (p+q) x (p+q) matrix I + a(uv' + vu')."""
    up, vp = lf.padded
    return np.eye(up.shape[-1]) + _last(lf.a, 2) * (_outer(up, vp) + _outer(vp, up))


def cov_inverse(lf: CovStack) -> np.ndarray:
    """Closed-form inverse via the Sherman-Morrison rank-two update.

    Sigma^-1 = I - a(vu' + uv' - a(p vv' + q uu')) / (1 - pq a^2).
    """
    p, q, a, denom = (_last(x, 2) for x in (lf.p, lf.q, lf.a, cov_det(lf)))
    if (denom <= 0).any():
        raise SingularCovarianceError("a^2*p*q >= 1: inverse undefined")
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


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x'y over the last axes, one (1 x d)(d x 1) matmul per leading index:
    the bits of the 1-d ``x @ y``, which a stacked einsum or sum lacks."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def cov_sqrt_apply(lf: CovStack, z: np.ndarray) -> np.ndarray:
    """Apply the symmetric square root Sigma^(1/2) to z in O(p+q).

    Accepts a single vector of length p+q or a batch of shape (m, p+q); for a
    ``CovStack`` of m members, z holds one vector per member, shape (m, p+q).
    """
    lam_plus, lam_minus, w_plus, w_minus = _sqrt_factors(lf)
    if (lam_minus <= 0).any():
        raise SingularCovarianceError("smallest eigenvalue <= 0: square root undefined")
    z = np.asarray(z, dtype=float)
    cp = np.sqrt(lam_plus) - 1.0
    cm = np.sqrt(lam_minus) - 1.0
    if z.ndim == w_plus.ndim:
        return z + _last(cp * _dot(w_plus, z), 1) * w_plus + _last(cm * _dot(w_minus, z), 1) * w_minus
    return z + np.outer(z @ w_plus, cp * w_plus) + np.outer(z @ w_minus, cm * w_minus)


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
    z = rng.standard_normal((n, lf.p + lf.q))
    values = cov_sqrt_apply(lf, z)
    return Dataset(values=values, p=lf.p, q=lf.q)
