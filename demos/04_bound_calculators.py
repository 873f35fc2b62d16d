"""Every privacy and misclassification bound, evaluated and simulated.

Each calculator is exercised at one parameter point next to a quick Monte
Carlo of the quantity it bounds, so the domination is visible rather than
taken on faith.

Run:  python demos/04_bound_calculators.py
"""

import numpy as np

from dpalarm import (
    BoundInputs,
    PrivacyParams,
    cov_gap_bound,
    cr_privacy_loss,
    eig_factorize,
    equivalent_alpha,
    gaussian_sum_bound,
    misclassification_bounds,
    noncentral_chi2_quantile,
    perturb_covariance,
    residual_gap_interval,
    statistic_privacy_profile,
    type1_upper_bound,
    whiten,
)

rng = np.random.default_rng(3)
params = PrivacyParams(
    eps_cov=100.0, eps_r=0.932, gamma_cov=1e-2, gamma_r=1e-2,
    delta_l=0.1, delta_r=0.3, p=3,
)
sigma = params.sigma
theta_r = params.theta_r
theta_l = params.theta_l(3)

a = rng.normal(size=(3, 3))
s_w = a @ a.T + np.eye(3)
fac = eig_factorize(s_w, count=3)
r_w = np.linalg.cholesky(s_w) @ rng.standard_normal(3)
tau = whiten(r_w, fac)

# covariance-phase gap bound vs simulation
bound, conf = cov_gap_bound(r_w, fac, theta_l, params.gamma_cov)
t_orig = float(tau @ tau)
hits = 0
n = 2000
for _ in range(n):
    pert = perturb_covariance(s_w, params.delta_l, params.eps_cov, rng)
    t_cov = float(np.sum(whiten(r_w, pert.fac) ** 2))
    hits += abs(t_cov - t_orig) <= bound
print(f"covariance gap bound {bound:.4f} at confidence {conf:.2f}: "
      f"simulated hold rate {hits / n:.4f}")

# residual-phase gap interval vs simulation
lo, hi, joint, _ = residual_gap_interval(tau, sigma, theta_r, params.gamma_r)
e = sigma * rng.standard_normal((50_000, 3))
diff = ((tau + e) ** 2).sum(axis=1) - t_orig
cover = np.mean((diff / sigma**2 >= lo) & (diff / sigma**2 <= hi))
print(f"gap interval [{lo:.2f}, {hi:.2f}] joint prob >= {joint:.3f}: simulated {cover:.3f}")

# worst-case Type-I error and its inversion
inputs = BoundInputs(
    tau_cov_hat=tau, tau_cov_max=1.8 * tau, res_energy=float(r_w @ r_w),
    r_max=float(np.linalg.norm(r_w)) * 1.3, d=3, params=params,
)
inv = equivalent_alpha(0.05, inputs)
# simulate the bound's two survival terms at alpha_hat: the scaled statistic
# ||z + tau/sigma||^2 under the current and the window-max residual
w1, w2 = inputs._weights()
q = noncentral_chi2_quantile(inv.alpha_hat, 3, inputs.scaled_nc_current())
z = rng.standard_normal((20_000, 3))
s_cur = np.mean(((z + inputs.tau_cov_hat / sigma) ** 2).sum(axis=1) > q)
s_max = np.mean(((z + inputs.tau_cov_max / sigma) ** 2).sum(axis=1) > q)
simulated = w1 * s_cur + w2 * s_max
se = np.sqrt((w1**2 * s_cur * (1 - s_cur) + w2**2 * s_max * (1 - s_max)) / len(z))
print(f"\nequivalent significance for target 0.05: alpha_hat = {inv.alpha_hat:.2e}")
print(f"  exact bound at alpha_hat: {inv.achieved:.4f}; simulated {simulated:.4f} +- {se:.4f}")
print(f"  bound at alpha_hat doubled: {type1_upper_bound(min(2 * inv.alpha_hat, 0.999), inputs):.4f}")

# misclassification bounds at a mid-range original statistic
miss, fa = misclassification_bounds(t_orig, 0.05, inv.alpha_hat, inputs)
print(f"misclassification bounds at T={t_orig:.2f}: miss <= {miss:.3f}, false alarm <= {fa:.3f}")

# privacy losses of the two disclosure modes
pert = perturb_covariance(s_w, params.delta_l, params.eps_cov, rng)
loss, prob = cr_privacy_loss(params.delta_r, sigma, pert.s_hat, theta_r, 3, params.gamma_r)
print(f"\ncritical-region worst-case loss {loss:.3f} exceeded with prob <= {prob:.4f}")

delta_vec = params.delta_r / np.sqrt(3) * np.ones(3)
eps_p, delta_p = statistic_privacy_profile(params.eps_cov, sigma, delta_vec, s_w)
print(f"statistic disclosure profile: eps' = {eps_p:.4f}, delta' = {delta_p:.2e}")
