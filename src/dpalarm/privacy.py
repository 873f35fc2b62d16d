"""Two-phase sequential differential privacy for covariance and residuals.

Phase one adds Laplace noise to the eigenvalues of the residual covariance
(eigenvectors untouched), then floors them so the perturbed matrix stays
invertible — flooring is post-processing and cannot weaken the guarantee.
Phase two adds Gaussian noise N(0, sigma^2 I) to the whitened residual.
sigma is fixed with the parameters, never below the Gaussian-mechanism
minimum set by (delta_r, eps_r, gamma_r), and each epoch is one disclosure:
one Laplace draw on the eigenvalues, one Gaussian draw at that sigma.

The sensitivities delta_l (eigenvalue l1) and delta_r (residual l2) are
operator-supplied configuration; estimate them from a calibration run (max
observed eigenvalue / residual 2-norm), never silently self-calibrate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .stats import CovFactorization, eig_factorize, laplace_sample, whiten

__all__ = [
    "PrivacyParams",
    "PerturbedCovariance",
    "Disclosure",
    "gdp_sigma",
    "gaussian_sum_bound",
    "laplace_max_bound",
    "perturb_covariance",
    "gdp_perturb",
    "sequential_disclose",
]

EIGENVALUE_FLOOR_FRAC = 1e-8


def gdp_sigma(
    delta_r: float, eps_r: float, gamma_r: float, waive_eps_range: bool = False
) -> float:
    """Gaussian mechanism noise scale (delta_r / eps_r) * sqrt(2 ln(1.25/gamma_r)).

    The classical calibration assumes eps_r in (0, 1); larger budgets are
    accepted only with ``waive_eps_range`` (the calibration formula is then
    applied outside its proven regime, as the reference parameter sweeps do).

    Raises:
        ValueError: gamma_r outside (0, 1.25) (the log becomes nonpositive),
            nonpositive delta_r/eps_r, or eps_r >= 1 without the waiver.
    """
    if delta_r < 0:
        raise ValueError(f"delta_r must be >= 0, got {delta_r}")
    if eps_r <= 0:
        raise ValueError(f"eps_r must be > 0, got {eps_r}")
    if not 0.0 < gamma_r < 1.25:
        raise ValueError(f"gamma_r must be in (0, 1.25), got {gamma_r}")
    if eps_r >= 1.0 and not waive_eps_range:
        raise ValueError(
            f"eps_r={eps_r} outside the classical (0,1) regime; pass waive_eps_range=True"
        )
    return float(delta_r / eps_r * np.sqrt(2.0 * np.log(1.25 / gamma_r)))


def gaussian_sum_bound(sigma: float, eps_r: float, delta_r: float, p: int) -> float:
    """High-probability bound on |sum of the p Gaussian noise components|.

    theta = sigma^2 * eps_r / delta_r - p * delta_r / 2. A nonpositive value
    makes the downstream probabilistic bounds vacuous; a warning is emitted.
    """
    if sigma <= 0 or eps_r <= 0 or delta_r <= 0 or p < 1:
        raise ValueError("sigma, eps_r, delta_r must be > 0 and p >= 1")
    theta = sigma**2 * eps_r / delta_r - p * delta_r / 2.0
    if theta <= 0.0:
        warnings.warn(
            f"gaussian_sum_bound is nonpositive ({theta:.3e}); derived bounds are vacuous",
            stacklevel=2,
        )
    return float(theta)


def laplace_max_bound(delta_l: float, eps_cov: float, gamma_cov: float, d: int) -> float:
    """High-probability bound on the max absolute eigenvalue noise.

    theta = (delta_l / eps_cov) * ln(d / gamma_cov); holds with probability at
    least 1 - gamma_cov over the d i.i.d. Laplace draws.
    """
    if delta_l <= 0 or eps_cov <= 0 or d < 1:
        raise ValueError("delta_l, eps_cov must be > 0 and d >= 1")
    if gamma_cov <= 0 or gamma_cov > d:
        raise ValueError(f"gamma_cov must be in (0, {d}], got {gamma_cov}")
    return float(delta_l / eps_cov * np.log(d / gamma_cov))


@dataclass(frozen=True)
class PrivacyParams:
    """Full parameter set for the two-phase disclosure scheme.

    sigma defaults to the calibrated minimum; any explicit sigma below that
    minimum is rejected.
    """

    eps_cov: float
    eps_r: float
    gamma_cov: float
    gamma_r: float
    delta_l: float
    delta_r: float
    p: int
    sigma: float = 0.0
    eps_r_waiver: bool = False

    def __post_init__(self):
        for name in ("eps_cov", "eps_r", "delta_l", "delta_r"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in ("gamma_cov", "gamma_r"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {v}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        sigma_min = gdp_sigma(
            self.delta_r, self.eps_r, self.gamma_r, waive_eps_range=self.eps_r_waiver
        )
        if self.sigma == 0.0:
            object.__setattr__(self, "sigma", sigma_min)
        elif self.sigma < sigma_min * (1.0 - 1e-12):
            raise ValueError(
                f"sigma={self.sigma} below the calibrated minimum {sigma_min}"
            )

    @property
    def sigma_min(self) -> float:
        return gdp_sigma(self.delta_r, self.eps_r, self.gamma_r, waive_eps_range=True)

    @property
    def theta_r(self) -> float:
        return gaussian_sum_bound(self.sigma, self.eps_r, self.delta_r, self.p)

    def theta_l(self, d: int) -> float:
        return laplace_max_bound(self.delta_l, self.eps_cov, self.gamma_cov, d)

    def to_flat(self) -> dict:
        return {
            "eps_cov": self.eps_cov,
            "eps_r": self.eps_r,
            "gamma_cov": self.gamma_cov,
            "gamma_r": self.gamma_r,
            "delta_l": self.delta_l,
            "delta_r": self.delta_r,
            "p": self.p,
            "sigma": self.sigma,
        }

    @classmethod
    def from_flat(cls, obj: dict) -> "PrivacyParams":
        return cls(
            eps_cov=float(obj["eps_cov"]),
            eps_r=float(obj["eps_r"]),
            gamma_cov=float(obj["gamma_cov"]),
            gamma_r=float(obj["gamma_r"]),
            delta_l=float(obj["delta_l"]),
            delta_r=float(obj["delta_r"]),
            p=int(obj["p"]),
            sigma=float(obj.get("sigma", 0.0)),
            eps_r_waiver=True,
        )


@dataclass(frozen=True)
class PerturbedCovariance:
    """DP covariance: original eigenvectors, Laplace-perturbed eigenvalues.

    ``lambdas_raw`` are the pre-clamp noisy eigenvalues in the original
    (descending-by-clean-eigenvalue) order; ``fac`` is the factorization of
    s_hat = V diag(lambdas) V^T, re-sorted descending by perturbed eigenvalue
    so a regulator refactorizing s_hat retains the same leading components.
    """

    s_hat: np.ndarray
    fac: CovFactorization
    lambdas_raw: np.ndarray
    clamp_count: int
    floor: float


def perturb_covariance(
    s: np.ndarray,
    delta_l: float,
    eps_cov: float,
    rng: np.random.Generator,
    p: int | None = None,
) -> PerturbedCovariance:
    """Laplace eigenvalue perturbation of a symmetric PSD matrix.

    Each eigenvalue gets i.i.d. Laplace(0, delta_l/eps_cov) noise, then is
    floored at EIGENVALUE_FLOOR_FRAC * trace(S)/d so the perturbed matrix stays
    invertible. Eigenvectors are left unperturbed.
    """
    fac0 = eig_factorize(s, count=p)
    d = fac0.d
    scale = delta_l / eps_cov
    noise = laplace_sample(scale, rng, size=d)
    lam_raw = fac0.lambdas + noise
    floor = EIGENVALUE_FLOOR_FRAC * max(float(np.trace(np.asarray(s))), 0.0) / d
    lam_clamped = np.maximum(lam_raw, floor)
    clamp_count = int(np.sum(lam_raw < floor))

    order = np.argsort(lam_clamped)[::-1]
    vec = fac0.vectors[:, order]
    lam_sorted = lam_clamped[order]
    s_hat = (vec * lam_sorted) @ vec.T
    s_hat = 0.5 * (s_hat + s_hat.T)
    fac = CovFactorization(vectors=vec, lambdas=lam_sorted, p=fac0.p)
    return PerturbedCovariance(
        s_hat=s_hat, fac=fac, lambdas_raw=lam_raw, clamp_count=clamp_count, floor=floor
    )


def gdp_perturb(
    tau: np.ndarray, sigma: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Add N(0, sigma^2) noise per component; returns (tau_hat, noise).

    The noise vector is returned because the regulator-frame residual needs
    it lifted back through the covariance square root.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    tau = np.asarray(tau, dtype=float)
    e = sigma * rng.standard_normal(tau.shape)
    return tau + e, e


@dataclass(frozen=True)
class Disclosure:
    """Output of the sequential two-phase disclosure for one epoch."""

    perturbed: PerturbedCovariance
    tau_cov_hat: np.ndarray
    tau_res_hat: np.ndarray
    tau_rg: np.ndarray

    @property
    def s_hat(self) -> np.ndarray:
        return self.perturbed.s_hat

    @property
    def t_cov_hat(self) -> float:
        return float(self.tau_cov_hat @ self.tau_cov_hat)

    @property
    def t_res_hat(self) -> float:
        return float(self.tau_res_hat @ self.tau_res_hat)


def sequential_disclose(
    r_w: np.ndarray,
    s_w: np.ndarray,
    params: PrivacyParams,
    rng: np.random.Generator,
) -> Disclosure:
    """Apply covariance perturbation then residual perturbation.

    tau_cov_hat whitens the raw residual with the perturbed factorization;
    tau_res_hat adds the Gaussian noise; tau_rg lifts that noise back to the
    sensor frame (r_w + V_p sqrt(lam_p) e) so a regulator whitening tau_rg
    with s_hat recovers tau_res_hat exactly. The noise scale is params.sigma.
    """
    r_w = np.asarray(r_w, dtype=float)
    if not np.all(np.isfinite(r_w)):
        raise ValueError("residual must be finite")
    pert = perturb_covariance(s_w, params.delta_l, params.eps_cov, rng, p=params.p)
    tau_cov_hat = whiten(r_w, pert.fac)
    tau_res_hat, e = gdp_perturb(tau_cov_hat, params.sigma, rng)
    vec_p, lam_p = pert.fac.retained()
    tau_rg = r_w + vec_p @ (np.sqrt(lam_p) * e)
    return Disclosure(
        perturbed=pert, tau_cov_hat=tau_cov_hat, tau_res_hat=tau_res_hat, tau_rg=tau_rg
    )
