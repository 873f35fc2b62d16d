"""Evaluators for the disclosure scheme's theoretical guarantees.

Every evaluator is a pure function of its inputs: covariance-phase statistic
gap bound, residual-phase statistic gap interval, worst-case Type-I error of
the DP test and its inversion to an equivalent significance level,
misclassification bounds between local and regulator alarms, and the privacy
losses of the two verification modes.

Conventions used throughout (fixed package-wide):
  * noncentral chi-square CDFs are evaluated on variance-scaled statistics
    T / sigma^2 with noncentrality ||tau||^2 / sigma^2 — the frame in which
    the perturbed statistic's law is exact;
  * thresholds written with an explicit sigma^2 factor are converted through
    that factor before CDF evaluation;
  * probability outputs are clamped to [0, 1] (the raw bounds can exceed 1
    for loose parameters, and clamping preserves validity as upper bounds).
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np
# Not `from scipy import special`: scipy loads scipy.special at its first
# attribute access, so a process that computes no p-value or quantile (a CR
# regulator, CR replay, ingest) never pays its ~0.3 s import and ~20 MB.
import scipy

from .privacy import PrivacyParams
from .stats import (
    CovFactorization,
    central_chi2_quantile,
    noncentral_chi2_cdf,
    noncentral_chi2_quantile,
)

__all__ = [
    "NormTracker",
    "BoundReport",
    "BoundInputs",
    "cov_gap_bound",
    "residual_gap_interval",
    "type1_upper_bound",
    "equivalent_alpha",
    "AlphaInversion",
    "misclassification_bounds",
    "cr_privacy_loss",
    "statistic_privacy_profile",
]

ALPHA_FLOOR = 1e-12
# Relative width of the equivalent-alpha bracket: the inversion stops once its
# bracket is this narrow, and a bound within this of the target counts as met.
ALPHA_RTOL = 1e-12


class NormTracker:
    """Sliding-window tracker of the max-2-norm vector seen recently.

    Holds the last ``window`` vectors, each with its squared 2-norm computed
    once on push. The current max is the stored vector of largest 2-norm,
    ties broken by the most recent insert. A monotonic queue keeps it at the
    front: entries are (push index, squared norm, vector) with norms strictly
    decreasing from front to back, so reading the max costs O(1) and a push
    costs amortized O(1).
    """

    def __init__(self, window: int = 50):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._buf: deque[tuple[float, np.ndarray]] = deque(maxlen=window)
        self._maxq: deque[tuple[int, float, np.ndarray]] = deque()
        self._pushed = 0

    def push(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=float)
        if self._buf and vec.shape != self._buf[0][1].shape:
            raise ValueError(
                f"vector length {vec.shape} does not match tracker {self._buf[0][1].shape}"
            )
        vec = vec.copy()
        sq = float(vec @ vec)
        self._buf.append((sq, vec))
        maxq = self._maxq
        while maxq and maxq[-1][1] <= sq:  # later entries win ties
            maxq.pop()
        maxq.append((self._pushed, sq, vec))
        if maxq[0][0] <= self._pushed - self.window:  # left the window
            maxq.popleft()
        self._pushed += 1

    def __len__(self) -> int:
        return len(self._buf)

    def _front(self) -> tuple[int, float, np.ndarray]:
        if not self._buf:
            raise ValueError("tracker is empty; run warm-up epochs first")
        return self._maxq[0]

    @property
    def max_vector(self) -> np.ndarray:
        return self._front()[2].copy()

    @property
    def max_norm(self) -> float:
        return math.sqrt(self._front()[1])

    @property
    def median_vector(self) -> np.ndarray:
        """Window entry of median 2-norm: the representative typical vector.

        Feeding the equivalent-significance inversion with this (rather than
        the vector of whichever epoch triggers a recompute) keeps the
        inversion snapshot decoupled from the recompute trigger; triggers
        fire exactly when a new window max arrives, whose own vector would
        make the current and max terms coincide.
        """
        if not self._buf:
            raise ValueError("tracker is empty; run warm-up epochs first")
        norms = [sq for sq, _ in self._buf]
        order = int(np.argsort(norms, kind="stable")[(len(norms) - 1) // 2])
        return self._buf[order][1].copy()


def _clamp01(x: float) -> float:
    return float(min(max(x, 0.0), 1.0))


def cov_gap_bound(
    r_w: np.ndarray,
    fac: CovFactorization,
    theta_l: float,
    gamma_cov: float,
) -> tuple[float, float]:
    """Bound on |T_cov_hat - T| from the covariance phase alone.

    Returns (res_energy * theta_l, 1 - gamma_cov): the gap between the
    perturbed and original statistics stays below the bound with at least the
    returned confidence. res_energy is the residual energy in the retained
    eigenbasis of the *original* covariance, the frame in which the bound's
    derivation holds.
    """
    vec_p, lam_p = fac.retained()
    if np.any(lam_p <= 0.0):
        raise ValueError("retained eigenvalues must be positive")
    proj = vec_p.T @ np.asarray(r_w, dtype=float)
    res_energy = float(proj @ proj)
    return res_energy * theta_l, 1.0 - gamma_cov


def residual_gap_interval(
    tau: np.ndarray,
    sigma: float,
    theta_r: float,
    gamma_r: float,
) -> tuple[float, float, float, bool]:
    """Interval [L, U] for the scaled statistic gap (T_res_hat - T)/sigma^2.

    Returns (L, U, joint_prob_lower, swapped). joint_prob_lower multiplies
    the noncentral chi-square mass of [L, U] (noncentrality ||tau||^2/sigma^2)
    by (1-gamma_r)^p. When sum(tau) < 0 the raw endpoints come out reversed;
    they are reordered and flagged, with the probability computed on the
    ordered pair.
    """
    tau = np.asarray(tau, dtype=float)
    p = len(tau)
    s_tau = float(tau.sum())
    lo = theta_r / (sigma**2 * p) * (theta_r - 2.0 * s_tau)
    hi = theta_r / (sigma**2 * p) * (theta_r + 2.0 * s_tau)
    swapped = lo > hi
    if swapped:
        lo, hi = hi, lo
    nc = float(tau @ tau) / sigma**2
    f_hi = noncentral_chi2_cdf(max(hi, 0.0), p, nc)
    f_lo = noncentral_chi2_cdf(max(lo, 0.0), p, nc)
    joint = (f_hi - f_lo) * (1.0 - gamma_r) ** p
    return float(lo), float(hi), _clamp01(joint), swapped


@dataclass(frozen=True)
class BoundInputs:
    """Per-epoch snapshot every bound evaluator reads from.

    tau_cov_hat / tau_cov_max are whitened residuals after the covariance
    phase (current epoch, and the tracked window max); res_energy is the
    residual energy in the original covariance eigenbasis; r_max the largest
    residual 2-norm in the window.
    """

    tau_cov_hat: np.ndarray
    tau_cov_max: np.ndarray
    res_energy: float
    r_max: float
    d: int
    params: PrivacyParams

    @property
    def p(self) -> int:
        return self.params.p

    @property
    def sigma(self) -> float:
        return self.params.sigma

    def _weights(self) -> tuple[float, float]:
        """(omega_1, omega_2): tail weights of the two covariance-phase cases.

        omega_1 is the Gamma(p, rate) survival at res_energy * theta_l and
        omega_2 the p-th power of the Exp(eps_cov/delta_l) CDF at theta_l.
        """
        params = self.params
        theta_l = params.theta_l(self.d)
        arg = self.res_energy * theta_l
        scale = params.delta_l * self.r_max**2
        if scale <= 0.0:
            # degenerate window (r_max = 0, or so small that its square
            # underflows): the gamma-tail case carries all the weight
            w1 = 1.0 if arg <= 0.0 else 0.0
        else:
            rate = params.eps_cov / scale
            w1 = 1.0 - (float(scipy.special.gammainc(self.p, rate * arg)) if arg > 0.0 else 0.0)
        rate = params.eps_cov / params.delta_l
        w2 = (float(-np.expm1(-rate * theta_l)) if theta_l > 0.0 else 0.0) ** self.p
        return float(w1), float(w2)

    def scaled_nc_current(self) -> float:
        t = float(self.tau_cov_hat @ self.tau_cov_hat)
        return t / self.sigma**2

    def scaled_nc_max(self) -> float:
        t = float(self.tau_cov_max @ self.tau_cov_max)
        return t / self.sigma**2


def _type1_bound(inputs: BoundInputs) -> Callable[[float], float]:
    """type1_upper_bound(., inputs) as a function of alpha_hat alone.

    The weights and both noncentralities depend on the inputs only, so they
    are evaluated once here; each call of the returned function then costs
    one quantile and one CDF. alpha_hat must lie in (0, 1).
    """
    w1, w2 = inputs._weights()
    p = inputs.p
    nc_cur = inputs.scaled_nc_current()
    nc_max = inputs.scaled_nc_max()

    def bound(alpha_hat: float) -> float:
        q = noncentral_chi2_quantile(alpha_hat, p, nc_cur)
        s_max = 1.0 - noncentral_chi2_cdf(q, p, nc_max)
        return _clamp01(w1 * alpha_hat + w2 * s_max)

    return bound


def type1_upper_bound(alpha_hat: float, inputs: BoundInputs) -> float:
    """Worst-case Type-I error of the DP test at significance alpha_hat.

    omega_1 * S_cur(q) + omega_2 * S_max(q), where q is the upper-alpha_hat
    quantile of the scaled perturbed statistic's law (noncentral chi-square at
    the current noncentrality), S_cur its own survival there (alpha_hat by
    construction, so used as such) and S_max the survival under the
    window-max noncentrality.
    Monotone increasing in alpha_hat; clamped to [0, 1]. Evaluates the same
    function of alpha_hat that equivalent_alpha inverts, so the two agree bit
    for bit.
    """
    if not 0.0 < alpha_hat < 1.0:
        raise ValueError(f"alpha_hat must be in (0,1), got {alpha_hat}")
    return _type1_bound(inputs)(alpha_hat)


@dataclass(frozen=True)
class AlphaInversion:
    """Result of solving type1_upper_bound(alpha_hat) = alpha_target."""

    alpha_hat: float
    achieved: float
    target: float
    degenerate: bool


def _itp_invert(
    bound: Callable[[float], float],
    target: float,
    lo: float,
    f_lo: float,
    hi: float,
    f_hi: float,
) -> tuple[float, float]:
    """Narrow [lo, hi] with bound(lo) <= target < bound(hi) to hi/lo < 1 + ALPHA_RTOL.

    ITP on x = ln alpha with kappa_1 = 0.2 / (initial width), kappa_2 = 2 and
    n_0 = 1: step j evaluates the regula falsi estimate (taken in alpha, where
    the bound is nearly linear) moved towards the log-space midpoint by
    kappa_1 * width^2, then projected to within r_j of the midpoint, with r_j
    shrinking so that after n_1/2 + 1 steps the bracket is as narrow as
    bisection's after n_1/2. Below about 1e-10 relative width, chndtrix
    rounding makes the bound noisy and interpolation unreliable; the
    projection still holds those steps to that worst case, falling back
    towards bisection. Returns (lo, bound(lo)) of the final bracket.
    """
    x_lo, x_hi = math.log(lo), math.log(hi)
    eps = 0.5 * math.log1p(ALPHA_RTOL)  # stop once x_hi - x_lo < 2 eps
    n_max = math.ceil(math.log2((x_hi - x_lo) / (2.0 * eps))) + 1
    # project onto a 1/64 narrower budget, so that rounding of ln alpha (a few
    # ulps of 1e-12) cannot leave the bracket at 2 eps after n_max steps
    eps *= 1.0 - 2.0**-6
    kappa_1 = 0.2 / (x_hi - x_lo)
    for j in range(200):
        width = x_hi - x_lo
        x_half = 0.5 * (x_lo + x_hi)
        x_f = math.log(lo + (target - f_lo) * (hi - lo) / (f_hi - f_lo))
        toward = x_half - x_f
        delta = kappa_1 * width * width
        x_t = x_f + math.copysign(delta, toward) if delta <= abs(toward) else x_half
        r = max(eps * 2.0 ** (n_max - j) - 0.5 * width, 0.0)
        x = x_t if abs(x_t - x_half) <= r else x_half - math.copysign(r, toward)
        mid = math.exp(x)
        if not lo < mid < hi:  # rounding put x on an end: bisect instead
            mid = math.sqrt(lo * hi)
        f_mid = bound(mid)
        if f_mid > target:
            hi, f_hi, x_hi = mid, f_mid, math.log(mid)
        else:
            lo, f_lo, x_lo = mid, f_mid, math.log(mid)
        if hi / lo < 1.0 + ALPHA_RTOL:
            break
    return lo, f_lo


def equivalent_alpha(alpha_target: float, inputs: BoundInputs) -> AlphaInversion:
    """Solve for the alpha_hat whose worst-case Type-I error equals alpha_target.

    The solution is analytic and deterministic: it reads only alpha_target and
    ``inputs`` and draws nothing. Checking the bound against simulation is the
    caller's job (the bounds demo and tests do it).

    Brackets alpha_hat in [ALPHA_FLOOR, alpha_target] and narrows the bracket
    by ITP (interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS
    47(1), 2020) on x = ln alpha_hat, exploiting monotonicity of the bound.
    The interpolation is regula falsi in alpha_hat itself, where the bound is
    nearly linear, so a typical inversion takes about 10 bound evaluations;
    the projection bounds the worst case at one step more than log-space
    bisection's (48 evaluations against 47 at alpha_target = 0.05). The bound
    is built once per inversion (one evaluation of the weights and
    noncentralities), so each step costs one noncentral chi-square quantile
    and one CDF; every value equals type1_upper_bound at the same alpha_hat
    bit for bit.

    Returns one of three outcomes, ``achieved`` always being the bound at the
    returned alpha_hat:
      * the bound at alpha_target already meets the target: alpha_target, not
        inverted, flagged degenerate only if the bound falls short of the
        target by more than the bracket's relative width ALPHA_RTOL;
      * the bound exceeds the target even at ALPHA_FLOOR: the floor, flagged
        degenerate;
      * otherwise the bracket side lo whose bound is <= the target, once
        hi/lo < 1 + ALPHA_RTOL (the other side's bound exceeds it).
    """
    if not 0.0 < alpha_target < 1.0:
        raise ValueError(f"alpha_target must be in (0,1), got {alpha_target}")

    bound = _type1_bound(inputs)
    hi = alpha_target
    f_hi = bound(hi)
    if f_hi <= alpha_target:
        return AlphaInversion(
            alpha_hat=alpha_target,
            achieved=f_hi,
            target=alpha_target,
            degenerate=f_hi < alpha_target * (1.0 - ALPHA_RTOL),
        )
    lo = ALPHA_FLOOR
    f_lo = bound(lo)
    if f_lo > alpha_target:
        # bound exceeds the target even at the floor: return the floor
        return AlphaInversion(alpha_hat=lo, achieved=f_lo, target=alpha_target, degenerate=True)
    lo, f_lo = _itp_invert(bound, alpha_target, lo, f_lo, hi, f_hi)
    return AlphaInversion(alpha_hat=lo, achieved=f_lo, target=alpha_target, degenerate=False)


def misclassification_bounds(
    t_orig: float,
    alpha: float,
    alpha_hat: float,
    inputs: BoundInputs,
) -> tuple[float, float]:
    """Upper bounds on (miss, false-alarm) rates between DP and local alarms.

    With q the scaled DP threshold and chi2_alpha the local central
    threshold, the pivot is T_hat = t_orig + sigma^2 q - chi2_alpha,
    evaluated in the scaled frame (negative pivots give CDF 0):

        P(dp=0 | local=1) <= F_cur(T_hat) * (omega_1 + omega_2)
        P(dp=1 | local=0) <= omega_1 * (1 - F_cur(T_hat))
                              + omega_2 * (1 - F_max(T_hat))

    Both clamped to [0, 1].
    """
    w1, w2 = inputs._weights()
    p = inputs.p
    sigma2 = inputs.sigma**2
    nc_cur = inputs.scaled_nc_current()
    nc_max = inputs.scaled_nc_max()
    q = noncentral_chi2_quantile(alpha_hat, p, nc_cur)
    chi2_alpha = central_chi2_quantile(alpha, p)
    t_hat_scaled = (t_orig + sigma2 * q - chi2_alpha) / sigma2
    if t_hat_scaled <= 0.0:
        f_cur = 0.0
        f_max = 0.0
    else:
        f_cur = noncentral_chi2_cdf(t_hat_scaled, p, nc_cur)
        f_max = noncentral_chi2_cdf(t_hat_scaled, p, nc_max)
    miss = _clamp01(f_cur * (w1 + w2))
    false_alarm = _clamp01(w1 * (1.0 - f_cur) + w2 * (1.0 - f_max))
    return miss, false_alarm


def cr_privacy_loss(
    delta_r: float,
    sigma: float,
    s_hat: np.ndarray,
    theta_r: float,
    p: int,
    gamma_r: float,
) -> tuple[float, float]:
    """Worst-case privacy loss of the critical-region disclosure.

    Returns (loss, prob_bound) with
    loss = (delta_r/sigma^2) * q^2 * (theta_r^2/p + 1/(2q)), q = 1^T S_hat^-1 1,
    and P[loss exceeded] <= prob_bound = 1 - (1-gamma_r)^p.
    """
    s_hat = np.asarray(s_hat, dtype=float)
    d = s_hat.shape[0]
    ones = np.ones(d)
    try:
        sol = np.linalg.solve(s_hat, ones)
    except np.linalg.LinAlgError as exc:
        raise ValueError("perturbed covariance is singular") from exc
    quad = float(ones @ sol)
    if quad <= 0.0:
        raise ValueError(f"1^T S_hat^-1 1 = {quad:.3e} must be positive (S_hat not PD)")
    loss = delta_r / sigma**2 * quad**2 * (theta_r**2 / p + 1.0 / (2.0 * quad))
    prob_bound = 1.0 - (1.0 - gamma_r) ** p
    return float(loss), _clamp01(prob_bound)


def statistic_privacy_profile(
    eps_cov: float,
    sigma: float,
    delta_vec: np.ndarray,
    cov: np.ndarray,
    eps_prime: float | None = None,
) -> tuple[float, float]:
    """(eps', delta') privacy of disclosing the covariance-phase statistic.

    a = delta^T C^-1 delta, eps' >= eps_cov + a/(2 sigma^2) (the lower bound
    is used when ``eps_prime`` is not given), and with b = ||C^-1 delta||,
    delta' = Phi(sigma^2 (eps'-eps_cov)/b - a/(2b))
             - Phi(-sigma^2 (eps'-eps_cov)/b + a/(2b)),
    Phi the CDF of N(0, a). At the lower bound the two arguments coincide at
    zero and delta' vanishes.
    """
    cov = np.asarray(cov, dtype=float)
    delta_vec = np.asarray(delta_vec, dtype=float)
    if cov.shape[0] != cov.shape[1] or cov.shape[0] != len(delta_vec):
        raise ValueError("cov must be square and match delta_vec length")
    try:
        sol = np.linalg.solve(cov, delta_vec)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance matrix is singular") from exc
    a = float(delta_vec @ sol)
    if a <= 0.0:
        raise ValueError(f"delta^T C^-1 delta = {a:.3e} must be positive")
    b = float(np.linalg.norm(sol))
    # carry the budget increment separately so u vanishes exactly at the bound
    increment = a / (2.0 * sigma**2)
    eps_lb = eps_cov + increment
    if eps_prime is not None and float(eps_prime) > eps_lb:
        increment = float(eps_prime) - eps_cov
    u = sigma**2 * increment / b - a / (2.0 * b)
    delta_out = scipy.special.erf(u / math.sqrt(2.0 * a))  # Phi_a(u) - Phi_a(-u)
    return float(eps_cov + increment), _clamp01(delta_out)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated values of every bound for one epoch snapshot."""

    cov_gap_bound: float
    cov_gap_confidence: float
    gap_low: float
    gap_high: float
    gap_joint_prob: float
    type1_upper: float
    alpha_hat: float
    miss_bound: float
    false_alarm_bound: float
    cr_loss: float
    cr_loss_prob: float
    eps_prime: float
    delta_prime: float
    seed: int

    def to_flat(self) -> dict[str, str]:
        """Flat key-value form for audit logs and report files, in field order."""
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = str(v) if isinstance(v, int) else format(float(v), ".17g")
        return out
