"""Rank-two perturbed covariance family for cross-covariance testing.

The family consists of (p+q) x (p+q) matrices

    Sigma_uv = I + a * (uv' + vu')

where u is a length-p sign vector (padded with zeros on the Y block), v a
length-q sign vector (padded with zeros on the X block), and a > 0 a small
amplitude.  Every entry of the implied cross-covariance block is +-a, so its
Frobenius norm is a * sqrt(p*q).  The matrix is positive definite exactly
when a^2 * p * q < 1.
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
class LeastFavorableCov:
    """One member of the sign-vector covariance family.

    u, v are stored as their nonzero sign blocks (lengths p and q); the
    zero-padding of the full (p+q)-vectors is purely notational.
    """

    u: np.ndarray
    v: np.ndarray
    a: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.ndim != 1 or v.ndim != 1 or u.size < 1 or v.size < 1:
            raise ValueError("u and v must be nonempty 1-d arrays")
        if not np.all(np.abs(u) == 1.0) or not np.all(np.abs(v) == 1.0):
            raise ValueError("u and v entries must be exactly +-1")
        if self.a < 0:
            raise ValueError("amplitude a must be nonnegative")
        if self.a**2 * self.p * self.q >= 1.0:
            raise SingularCovarianceError(
                f"a^2*p*q = {self.a**2 * self.p * self.q:.4g} >= 1: not positive definite"
            )

    @property
    def p(self) -> int:
        return self.u.size

    @property
    def q(self) -> int:
        return self.v.size

    @property
    def cross_frobenius(self) -> float:
        """Frobenius norm of the implied cross-covariance block, a*sqrt(pq)."""
        return self.a * np.sqrt(self.p * self.q)

    @cached_property
    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Zero-padded (p+q)-vectors (u, 0) and (0, v)."""
        return np.concatenate([self.u, np.zeros(self.q)]), np.concatenate([np.zeros(self.p), self.v])


@dataclass(frozen=True)
class CovStack:
    """m members of the family that share the size d = p + q.

    Row k of ``signs`` holds u_k followed by v_k, split after p[k] entries;
    a holds the m amplitudes.  ``dense_cov``, ``cov_inverse``, ``cov_det``
    and ``cov_sqrt_apply`` take a stack wherever they take one member and
    return their results along a leading axis of length m, each member's
    with the bits of its own call.
    """

    signs: np.ndarray
    p: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        signs = np.asarray(self.signs, dtype=float)
        p = np.asarray(self.p, dtype=float)  # exact, and cheaper against floats
        a = np.asarray(self.a, dtype=float)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "a", a)
        if signs.ndim != 2 or p.shape != (len(signs),) or a.shape != p.shape:
            raise ValueError("need m x d signs and m sizes p and amplitudes a")
        if not (np.abs(signs) == 1.0).all():
            raise ValueError("u and v entries must be exactly +-1")
        if (p % 1).any() or (p < 1).any() or (self.q < 1).any():
            raise ValueError("sizes p and q must be positive integers")
        if (a < 0).any():
            raise ValueError("amplitude a must be nonnegative")
        if (a**2 * p * self.q >= 1.0).any():
            raise SingularCovarianceError("a^2*p*q >= 1 for some member: not positive definite")

    @cached_property
    def q(self) -> np.ndarray:
        return self.signs.shape[1] - self.p

    @cached_property
    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """The (m, d) stacks of zero-padded vectors (u, 0) and (0, v)."""
        x_block = np.arange(self.signs.shape[1]) < self.p[:, None]
        return np.where(x_block, self.signs, 0.0), np.where(x_block, 0.0, self.signs)


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


def sample_direction(p: int, q: int, rng: np.random.Generator, a: float = 0.0) -> LeastFavorableCov:
    """Draw (u, v) uniformly over the 2^(p+q) sign patterns."""
    u = rng.integers(0, 2, size=p) * 2.0 - 1.0
    v = rng.integers(0, 2, size=q) * 2.0 - 1.0
    return LeastFavorableCov(u=u, v=v, a=a)


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.outer of the last axes, stacked over any leading ones."""
    return x[..., :, None] * y[..., None, :]


def _last(x, axes: int) -> np.ndarray:
    """A per-member scalar (or array of them) with ``axes`` unit axes appended."""
    return np.asarray(x).reshape(np.shape(x) + (1,) * axes)


def dense_cov(lf: LeastFavorableCov | CovStack) -> np.ndarray:
    """Full (p+q) x (p+q) matrix I + a(uv' + vu')."""
    up, vp = lf.padded
    return np.eye(up.shape[-1]) + _last(lf.a, 2) * (_outer(up, vp) + _outer(vp, up))


def cov_inverse(lf: LeastFavorableCov | CovStack) -> np.ndarray:
    """Closed-form inverse via the Sherman-Morrison rank-two update.

    Sigma^-1 = I - a(vu' + uv' - a(p vv' + q uu')) / (1 - pq a^2).
    """
    p, q, a, denom = (_last(x, 2) for x in (lf.p, lf.q, lf.a, cov_det(lf)))
    if (denom <= 0).any():
        raise SingularCovarianceError("a^2*p*q >= 1: inverse undefined")
    up, vp = lf.padded
    num = a * (_outer(vp, up) + _outer(up, vp) - a * (p * _outer(vp, vp) + q * _outer(up, up)))
    return np.eye(up.shape[-1]) - num / denom


def cov_det(lf: LeastFavorableCov | CovStack) -> float | np.ndarray:
    """det(Sigma_uv) = 1 - pq a^2 (Schur complement + Sylvester)."""
    return 1.0 - lf.p * lf.q * lf.a * lf.a


def _sqrt_factors(lf: LeastFavorableCov | CovStack) -> tuple:
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


def cov_sqrt_apply(lf: LeastFavorableCov | CovStack, z: np.ndarray) -> np.ndarray:
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
    lf: LeastFavorableCov | None,
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
