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


def _padded(lf: LeastFavorableCov) -> tuple[np.ndarray, np.ndarray]:
    """Zero-padded (p+q)-vectors (u, 0) and (0, v)."""
    p, q = lf.p, lf.q
    up = np.concatenate([lf.u, np.zeros(q)])
    vp = np.concatenate([np.zeros(p), lf.v])
    return up, vp


def dense_cov(lf: LeastFavorableCov) -> np.ndarray:
    """Full (p+q) x (p+q) matrix I + a(uv' + vu')."""
    up, vp = _padded(lf)
    d = lf.p + lf.q
    return np.eye(d) + lf.a * (np.outer(up, vp) + np.outer(vp, up))


def cov_inverse(lf: LeastFavorableCov) -> np.ndarray:
    """Closed-form inverse via the Sherman-Morrison rank-two update.

    Sigma^-1 = I - a(vu' + uv' - a(p vv' + q uu')) / (1 - pq a^2).
    """
    p, q, a = lf.p, lf.q, lf.a
    denom = 1.0 - p * q * a * a
    if denom <= 0:
        raise SingularCovarianceError("a^2*p*q >= 1: inverse undefined")
    up, vp = _padded(lf)
    d = p + q
    num = a * (
        np.outer(vp, up) + np.outer(up, vp) - a * (p * np.outer(vp, vp) + q * np.outer(up, up))
    )
    return np.eye(d) - num / denom


def cov_det(lf: LeastFavorableCov) -> float:
    """det(Sigma_uv) = 1 - pq a^2 (Schur complement + Sylvester)."""
    return 1.0 - lf.p * lf.q * lf.a * lf.a


def _sqrt_factors(lf: LeastFavorableCov) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Eigenpairs of the rank-two perturbation.

    The perturbation a(uv'+vu') has eigenvalues +-a*sqrt(pq) with unit
    eigenvectors w_pm = u/sqrt(2p) (+/-) v/sqrt(2q) (padded blocks); all other
    eigenvalues are 0.  Hence lambda_pm = 1 +- a*sqrt(pq) for Sigma itself.
    """
    p, q, a = lf.p, lf.q, lf.a
    s = a * np.sqrt(p * q)
    lam_plus, lam_minus = 1.0 + s, 1.0 - s
    up, vp = _padded(lf)
    w_plus = up / np.sqrt(2.0 * p) + vp / np.sqrt(2.0 * q)
    w_minus = up / np.sqrt(2.0 * p) - vp / np.sqrt(2.0 * q)
    return lam_plus, lam_minus, w_plus, w_minus


def cov_sqrt_apply(lf: LeastFavorableCov, z: np.ndarray) -> np.ndarray:
    """Apply the symmetric square root Sigma^(1/2) to z in O(p+q).

    Accepts a single vector of length p+q or a batch of shape (m, p+q).
    """
    lam_plus, lam_minus, w_plus, w_minus = _sqrt_factors(lf)
    if lam_minus <= 0:
        raise SingularCovarianceError("smallest eigenvalue <= 0: square root undefined")
    z = np.asarray(z, dtype=float)
    cp = np.sqrt(lam_plus) - 1.0
    cm = np.sqrt(lam_minus) - 1.0
    if z.ndim == 1:
        return z + cp * (w_plus @ z) * w_plus + cm * (w_minus @ z) * w_minus
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
