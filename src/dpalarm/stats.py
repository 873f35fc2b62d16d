"""Statistical kernels for residual-based alarm testing.

Covariance eigenfactorization and whitening, the chi-square alarm test, the
noncentral chi-square CDF and upper quantile (thin checked wrappers over the
``scipy.special`` ufuncs ``chndtr`` / ``chndtrix``), plus the Laplace sampler
of the covariance phase.

All functions are pure and safe for unrestricted parallel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

__all__ = [
    "CovFactorization",
    "TestOutcome",
    "eig_factorize",
    "whiten",
    "chi2_test",
    "central_chi2_quantile",
    "noncentral_chi2_cdf",
    "noncentral_chi2_quantile",
    "laplace_sample",
]

@dataclass(frozen=True)
class CovFactorization:
    """Eigenfactorization of a symmetric PSD covariance, top-p retained.

    Attributes:
        vectors: (d, d) orthonormal eigenvectors as columns, ordered to match
            ``lambdas``; each column's largest-magnitude component is positive
            so repeated factorizations are reproducible.
        lambdas: (d,) eigenvalues sorted descending.
        p: number of leading components retained for whitening, 1 <= p <= d.
    """

    vectors: np.ndarray
    lambdas: np.ndarray
    p: int

    @property
    def d(self) -> int:
        return int(self.lambdas.shape[0])

    def retained(self) -> tuple[np.ndarray, np.ndarray]:
        """Top-p eigenvectors (d, p) and eigenvalues (p,)."""
        return self.vectors[:, : self.p], self.lambdas[: self.p]

    def reconstruct(self) -> np.ndarray:
        """V diag(lambdas) V^T."""
        return (self.vectors * self.lambdas) @ self.vectors.T


@dataclass(frozen=True)
class TestOutcome:
    """Result of one chi-square alarm test."""

    tau: np.ndarray
    t_stat: float
    threshold: float
    rho: int
    alpha: float


def _check_symmetric(s: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {s.shape}")
    scale = max(1.0, float(abs(s).max()))
    asym = float(abs(s - s.T).max())
    if asym > tol * scale:
        raise ValueError(f"matrix not symmetric: max asymmetry {asym:.3e}")
    return 0.5 * (s + s.T)


def eig_factorize(s: np.ndarray, count: int | None = None) -> CovFactorization:
    """Factorize a symmetric PSD matrix with a deterministic sign convention.

    Eigenvalues come out descending, clipped at 0 from below. ``count`` is
    the number p of leading components retained for whitening; None keeps
    all d.

    Raises:
        ValueError: non-symmetric input, an eigenvalue below
            -1e-8 * max(trace, 1), or a count outside [1, d].
    """
    s = _check_symmetric(s)
    d = s.shape[0]
    lam, vec = np.linalg.eigh(s)
    # eigh returns ascending; flip to descending (a C-contiguous copy: a
    # negative-stride view would take another matmul path downstream)
    lam = lam[::-1].copy()
    vec = vec[:, ::-1].copy()

    trace = float(s.trace())
    if lam[-1] < -1e-8 * max(trace, 1.0):
        raise ValueError(
            f"matrix not PSD: smallest eigenvalue {lam[-1]:.3e} "
            f"below tolerance for trace {trace:.3e}"
        )
    lam = np.maximum(lam, 0.0)

    # Sign convention: largest-magnitude component of each column positive.
    k = abs(vec).argmax(axis=0)
    vec *= np.where(vec[k, np.arange(d)] < 0, -1.0, 1.0)

    p = d if count is None else int(count)
    if not 1 <= p <= d:
        raise ValueError(f"count must be in [1, {d}], got {count}")

    return CovFactorization(vectors=vec, lambdas=lam, p=p)


def whiten(r: np.ndarray, fac: CovFactorization) -> np.ndarray:
    """Project r onto the retained eigenbasis and scale to unit variance.

    Returns the p-vector with components (v_i^T r) / sqrt(lambda_i).

    Raises:
        ValueError: a retained eigenvalue is <= 0 (clamp eigenvalues upstream
            before whitening).
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (fac.d,):
        raise ValueError(f"residual length {r.shape} does not match d={fac.d}")
    vec, lam = fac.retained()
    if np.any(lam <= 0.0):
        raise ValueError(
            "retained eigenvalue <= 0; clamp eigenvalues upstream before whitening"
        )
    return (vec.T @ r) / np.sqrt(lam)


def central_chi2_quantile(alpha_upper: float, k: float) -> float:
    """Upper-alpha quantile of the central chi-square with k dof."""
    if not 0.0 < alpha_upper < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha_upper}")
    return float(2.0 * special.gammaincinv(k / 2.0, 1.0 - alpha_upper))


def chi2_test(tau: np.ndarray, alpha: float) -> TestOutcome:
    """Chi-square alarm test on a whitened residual.

    The statistic is ||tau||^2; the alarm fires (rho=1) strictly above the
    central chi-square upper-alpha quantile at len(tau) degrees of freedom.
    """
    tau = np.asarray(tau, dtype=float)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    t_stat = float(tau @ tau)
    threshold = central_chi2_quantile(alpha, len(tau))
    return TestOutcome(
        tau=tau,
        t_stat=t_stat,
        threshold=threshold,
        rho=int(t_stat > threshold),
        alpha=float(alpha),
    )


def noncentral_chi2_cdf(x, k: float, lam: float):
    """CDF of the noncentral chi-square with k dof and noncentrality lam.

    ``scipy.special.chndtr``; vectorized over x, a scalar x returns a float.
    The upper tail 1 - cdf carries an absolute error of a few ulps of 1.0.

    Raises:
        ValueError: k < 1, negative x or lam, or a NaN result (NaN x, or lam
            beyond chndtr's range).
    """
    if k < 1:
        raise ValueError(f"dof must be >= 1, got {k}")
    if lam < 0.0:
        raise ValueError(f"noncentrality must be >= 0, got {lam}")
    out = special.chndtr(x, k, lam)
    # scalars skip numpy's 0-d reductions, which cost more than chndtr itself
    if out.ndim == 0:
        bad_x, bad_out = x < 0.0, math.isnan(out)
    else:
        bad_x, bad_out = np.any(np.asarray(x) < 0.0), np.isnan(out).any()
    if bad_x:
        raise ValueError("x must be >= 0")
    if bad_out:
        raise ValueError(f"chndtr gave NaN (NaN x, or lam={lam:.3e} out of range)")
    return float(out) if out.ndim == 0 else out


def noncentral_chi2_quantile(alpha_upper: float, k: float, lam: float) -> float:
    """x such that 1 - noncentral_chi2_cdf(x, k, lam) = alpha_upper.

    ``scipy.special.chndtrix(1 - alpha_upper, k, lam)``, or the central
    quantile when lam = 0. Within 1e-9 relative of ``scipy.stats.ncx2.isf``
    for alpha_upper >= 1e-8 and 1e-5 below (rounding of 1 - alpha_upper), as
    tested for k <= 3 and lam <= 100.

    Raises:
        ValueError: alpha_upper outside (0, 1), k < 1 or negative lam (when
            lam != 0), or lam beyond chndtrix's range.
    """
    if not 0.0 < alpha_upper < 1.0:
        raise ValueError(f"alpha must be in (0,1), got {alpha_upper}")
    if lam == 0.0:
        return central_chi2_quantile(alpha_upper, k)
    if k < 1:
        raise ValueError(f"dof must be >= 1, got {k}")
    if lam < 0.0:
        raise ValueError(f"noncentrality must be >= 0, got {lam}")
    q = float(special.chndtrix(1.0 - alpha_upper, k, lam))
    if math.isnan(q):
        raise ValueError(f"noncentrality {lam:.3e} outside the range of chndtrix")
    return q


def laplace_sample(scale: float, rng: np.random.Generator, size=None):
    """Inverse-CDF sampling of Laplace(0, scale)."""
    if scale < 0.0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    u = rng.random(size) - 0.5
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
