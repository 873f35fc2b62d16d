"""Extended Kalman filter residuals and the chi-square alarm.

Runs the filter over a clean trace and an attacked one, whitens each
residual by its covariance, and shows that the squared whitened norm sits at
its theoretical mean (= the sensor count) under the null and jumps during
the attack. Epoch sums of residuals drive the actual alarm test.

Run:  python demos/02_filter_residuals_and_alarms.py
"""

import numpy as np

from dpalarm import (
    AttackSpec,
    EkfBelief,
    chi2_test,
    default_spec,
    eig_factorize,
    generate_trace,
    run_filter,
    whiten,
)
from dpalarm.protocol import aggregate_epoch

spec = default_spec()
attack = AttackSpec(kind="bias", targets=frozenset({0}), magnitude=0.5, t_start=600, t_end=10**9)


def whitened_stats(attacked):
    trace = generate_trace(spec, attack if attacked else None, 1000, seed=42)
    init = EkfBelief(x_hat=np.zeros(2), cov=1e-3 * np.eye(2))
    records = run_filter(trace, spec, init)
    stats = []
    for rec in records[100:]:  # discard the transient
        tau = whiten(rec.r, eig_factorize(rec.s))
        stats.append(float(tau @ tau))
    return records, np.array(stats)


records, clean_stats = whitened_stats(False)
_, hit_stats = whitened_stats(True)
print(f"null whitened statistic: mean {clean_stats.mean():.3f} (theory: d = {spec.d})")
print(f"attacked, pre-window   : mean {hit_stats[:480].mean():.3f}")
print(f"attacked, in-window    : mean {hit_stats[520:].mean():.3f}")

# Epochs of W=10 steps: sum residuals and covariances, then test at alpha.
alpha, w_len = 0.05, 10
alarms = []
for w in range(len(records) // w_len):
    agg = aggregate_epoch(records[w * w_len : (w + 1) * w_len], w=w, alpha=alpha, p=3)
    alarms.append(agg.rho)
print(f"\nclean epoch alarm rate at alpha={alpha}: {np.mean(alarms):.3f} over {len(alarms)} epochs")

# the per-epoch test reproduces the per-step construction at epoch scale
tau = whiten(records[0].r, eig_factorize(records[0].s))
out = chi2_test(tau, alpha)
print(f"single-step test: T={out.t_stat:.2f} vs threshold {out.threshold:.2f} -> rho={out.rho}")
