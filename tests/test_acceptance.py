"""Acceptance gate: end-to-end statistical criteria with fixed tolerances and time budgets.

Each test prints one PASS/FAIL line (bypassing pytest capture so the lines
always show) and asserts the criterion. Heavy Monte Carlo lives here rather
than in the per-module suites.
"""

import sys
import time

import numpy as np
import pytest
from scipy import stats as sps

from dpalarm.bounds import misclassification_bounds, residual_gap_interval
from dpalarm.cli import cmd_align, cmd_false_alarms
from dpalarm.config import default_scenario, reference_params
from dpalarm.netsvc import HarnessConfig, replay_audit, run_harness
from dpalarm.pipeline import epoch_stream, residual_stream, run_pipeline
from dpalarm.plant import AttackSpec
from dpalarm.privacy import (
    PrivacyParams,
    gaussian_sum_bound,
    gdp_sigma,
    laplace_max_bound,
    perturb_covariance,
)
from dpalarm.protocol import (
    CrTuple,
    ProtocolError,
    PvTuple,
    UtilitySession,
    decode_record,
    encode_record,
    verify_cr,
)
from dpalarm.stats import eig_factorize, noncentral_chi2_cdf, whiten
from conftest import random_psd


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def wilson_slack(p: float, n: int) -> float:
    return 3.0 * np.sqrt(p * (1.0 - p) / n)


def test_01_distributional_core():
    # KS between samples of the scaled perturbed statistic and the
    # noncentral chi-square law, three (p, tau, sigma) settings
    t0 = time.time()
    rng = np.random.default_rng(101)
    settings = [
        (1, np.array([2.0]), 1.0),
        (3, np.array([1.0, 1.0, 1.0]), 2.0),
        (5, np.full(5, 0.5), 0.7),
    ]
    ks_vals = []
    for p, tau, sigma in settings:
        n = 100_000
        e = sigma * rng.standard_normal((n, p))
        scaled = ((tau + e) ** 2).sum(axis=1) / sigma**2
        nc = float(tau @ tau) / sigma**2
        ks = sps.kstest(scaled, lambda x: noncentral_chi2_cdf(x, p, nc)).statistic
        ks_vals.append(ks)
    elapsed = time.time() - t0
    ok = all(k < 0.02 for k in ks_vals) and elapsed < 30
    report(1, "distributional-core", ok,
           f"ks={','.join(f'{k:.4f}' for k in ks_vals)}; {elapsed:.1f}s")


def test_02_gdp_tail():
    # P(|sum of noise| >= theta) <= gamma + slack at 1e6 draws; the claim is
    # exact at p=1 with the equality-calibrated sigma, and needs sigma above
    # the minimum for p > 1
    t0 = time.time()
    rng = np.random.default_rng(102)
    delta_r, eps_r = 50.0, 1e-3
    n = 1_000_000
    results = []
    ok = True
    for gamma_r in (1e-1, 1e-2):
        sigma = gdp_sigma(delta_r, eps_r, gamma_r)
        theta = gaussian_sum_bound(sigma, eps_r, delta_r, 1)
        rate = float(np.mean(np.abs(sigma * rng.standard_normal(n)) >= theta))
        ok &= rate <= gamma_r + wilson_slack(gamma_r, n)
        results.append(f"g={gamma_r:g}:p1rate={rate:.4f}")
    # p=3 at three times the calibrated minimum
    gamma_r = 1e-2
    sigma = 3.0 * gdp_sigma(delta_r, eps_r, gamma_r)
    theta = gaussian_sum_bound(sigma, eps_r, delta_r, 3)
    draws = sigma * rng.standard_normal((n, 3))
    rate = float(np.mean(np.abs(draws.sum(axis=1)) >= theta))
    ok &= rate <= gamma_r + wilson_slack(gamma_r, n)
    results.append(f"g={gamma_r:g}:p3rate={rate:.5f}")
    elapsed = time.time() - t0
    ok &= elapsed < 10
    report(2, "gdp-tail", ok, "; ".join(results) + f"; {elapsed:.1f}s")


def test_03_covariance_gap_bound():
    # |T_cov_hat - T| <= res_energy * theta_l in at least 1-gamma_cov of
    # trials (minus Wilson slack) on random PSD covariances, d <= 10
    t0 = time.time()
    rng = np.random.default_rng(103)
    delta_l, eps_cov, gamma_cov = 0.5, 2.0, 0.1
    n, hits = 10_000, 0
    for _ in range(n):
        d = int(rng.integers(3, 11))
        s = random_psd(rng, d, (1.0, 10.0))
        fac = eig_factorize(s)
        r = np.linalg.cholesky(s) @ rng.standard_normal(d)
        theta_l = laplace_max_bound(delta_l, eps_cov, gamma_cov, d)
        proj = fac.vectors.T @ r
        bound = float(proj @ proj) * theta_l
        pert = perturb_covariance(s, delta_l, eps_cov, rng)
        t_orig = float(np.sum(whiten(r, fac) ** 2))
        t_cov = float(np.sum(whiten(r, pert.fac) ** 2))
        hits += abs(t_cov - t_orig) <= bound
    freq = hits / n
    target = (1 - gamma_cov) - wilson_slack(gamma_cov, n)
    elapsed = time.time() - t0
    ok = freq >= target and elapsed < 60
    report(3, "covariance-gap-bound", ok,
           f"freq={freq:.4f} >= {target:.4f}; {elapsed:.1f}s")


def test_04_gap_interval_coverage():
    # empirical coverage of the scaled statistic gap within [L, U] at least
    # the computed joint probability, three parameter settings, 1e5 draws
    t0 = time.time()
    rng = np.random.default_rng(104)
    settings = [
        # (tau, sigma, gamma_r, eps_r, delta_r) with sigma at the minimum
        (np.array([2.0]), 1.0, 0.05, 0.761, 0.3),
        (np.array([2.0, 1.0]), 1.0, 0.05, 0.761, 0.3),
        (np.array([1.0, 1.0, 1.0]), 1.0, 0.1, 0.899, 0.4),
    ]
    ok = True
    detail = []
    for tau, sigma, gamma_r, eps_r, delta_r in settings:
        p = len(tau)
        theta = gaussian_sum_bound(sigma, eps_r, delta_r, p)
        lo, hi, joint, _ = residual_gap_interval(tau, sigma, theta, gamma_r)
        n = 100_000
        e = sigma * rng.standard_normal((n, p))
        diff = ((tau + e) ** 2).sum(axis=1) - float(tau @ tau)
        cover = float(np.mean((diff / sigma**2 >= lo) & (diff / sigma**2 <= hi)))
        ok &= cover >= joint
        detail.append(f"p={p}:cover={cover:.3f}>=bound={joint:.3f}")
    elapsed = time.time() - t0
    ok &= elapsed < 30
    report(4, "gap-interval-coverage", ok, "; ".join(detail) + f"; {elapsed:.1f}s")


def test_05_type1_domination():
    # Monte Carlo Type-I rate at the regulator on a null scenario stays below
    # the worst-case bound at the inverted significance level, and the
    # inversion achieves the target within 5% relative
    t0 = time.time()
    params = reference_params()
    ok = True
    detail = []
    for alpha in (0.05, 0.01):
        sc = default_scenario(alpha=alpha)
        epochs, sess = run_pipeline(sc, params, 10_000, seed=105, mode="pv")
        rate = float(np.mean([e.rho_hat for e in epochs]))
        inv = sess.last_inversion
        bound = inv.achieved
        ok &= rate <= bound
        ok &= abs(inv.achieved - alpha) < 0.05 * alpha
        detail.append(
            f"a={alpha:g}:rate={rate:.4f}<=bound={bound:.4f},ahat={inv.alpha_hat:.4f}"
        )
    elapsed = time.time() - t0
    ok &= elapsed < 300
    report(5, "type1-domination", ok, "; ".join(detail) + f"; {elapsed:.0f}s")


def _paired_epoch_rates(scenario, params, n_epochs, seed, condition):
    """Empirical mismatch rates and mean per-epoch bounds over one run.

    condition selects which epochs enter the conditional rate: 'null' counts
    P(dp=1 | local=0) against the false-alarm bound, 'attack' counts
    P(dp=0 | local=1) against the miss bound.
    """
    records = residual_stream(scenario, n_epochs * scenario.epoch_len, seed)
    aggs = epoch_stream(records, scenario)[:n_epochs]
    sess = UtilitySession(
        uid="u0", mode="pv", params=params, d=scenario.plant.d,
        alpha=scenario.alpha, rng=np.random.default_rng(seed + 1),
        epoch_len=scenario.epoch_len,
    )
    miss_n = miss_hits = fa_n = fa_hits = 0
    miss_bounds = []
    fa_bounds = []
    for agg in aggs:
        res = sess.process_epoch(agg)
        dp = res.rho_hat_local
        miss_b, fa_b = misclassification_bounds(
            agg.t_stat, scenario.alpha, res.alpha_hat, sess.last_inputs
        )
        if agg.rho == 1:
            miss_n += 1
            miss_hits += 1 - dp
            miss_bounds.append(miss_b)
        else:
            fa_n += 1
            fa_hits += dp
            fa_bounds.append(fa_b)
    if condition == "attack":
        return miss_hits / max(miss_n, 1), float(np.mean(miss_bounds)), miss_n
    return fa_hits / max(fa_n, 1), float(np.mean(fa_bounds)), fa_n


def test_06_misclassification_domination():
    t0 = time.time()
    params = reference_params()
    null_sc = default_scenario()
    fa_rate, fa_bound, fa_n = _paired_epoch_rates(null_sc, params, 10_000, 106, "null")
    attack = AttackSpec("bias", frozenset({0}), 0.5, 101, 10**9)
    att_sc = default_scenario().with_attack(attack)
    miss_rate, miss_bound, miss_n = _paired_epoch_rates(att_sc, params, 10_000, 107, "attack")
    elapsed = time.time() - t0
    ok = (
        fa_rate <= fa_bound
        and miss_rate <= miss_bound
        and fa_n > 5000
        and miss_n > 5000
        and elapsed < 300
    )
    report(
        6,
        "misclassification-domination",
        ok,
        f"fa={fa_rate:.4f}<=bound={fa_bound:.4f}(n={fa_n}); "
        f"miss={miss_rate:.4f}<=bound={miss_bound:.4f}(n={miss_n}); {elapsed:.0f}s",
    )


def _random_aggregates(rng, n, d=3, w0=0):
    from dpalarm.protocol import EpochAggregate
    from dpalarm.stats import chi2_test

    aggs = []
    for i in range(n):
        s = random_psd(rng, d, (0.5, 3.0))
        r = np.linalg.cholesky(s) @ rng.standard_normal(d) * rng.uniform(0.5, 3.0)
        out = chi2_test(whiten(r, eig_factorize(s, count=d)), 0.05)
        aggs.append(
            EpochAggregate(w=w0 + i, r_w=r, s_w=s, rho=out.rho, n_steps=1, t_stat=out.t_stat)
        )
    return aggs


def test_07_cr_roundtrip_exactness():
    t0 = time.time()
    params = PrivacyParams(
        eps_cov=100.0, eps_r=0.932, gamma_cov=1e-2, gamma_r=1e-2,
        delta_l=0.1, delta_r=0.3, p=3,
    )

    def run_once():
        rng = np.random.default_rng(107)
        aggs = _random_aggregates(rng, 1000)
        sess = UtilitySession(
            uid="u0", mode="cr", params=params, d=3, alpha=0.05,
            rng=np.random.default_rng(7), epoch_len=1,
        )
        lines = []
        max_rel = 0.0
        matches = True
        for agg in aggs:
            res = sess.process_epoch(agg)
            line = encode_record(res.tuple_obj)
            lines.append(line)
            verdict = verify_cr(decode_record(line), p=3)
            utility_t = res.t_res_scaled * sess.params.sigma**2
            rel = abs(verdict.t_res_hat - utility_t) / max(abs(utility_t), 1e-300)
            max_rel = max(max_rel, rel)
            matches &= verdict.rho_hat == res.rho_hat_local
        return lines, max_rel, matches

    lines_a, max_rel, matches = run_once()
    lines_b, _, _ = run_once()
    deterministic = lines_a == lines_b
    elapsed = time.time() - t0
    ok = max_rel < 1e-8 and matches and deterministic and elapsed < 30
    report(
        7,
        "cr-roundtrip-exactness",
        ok,
        f"max_rel={max_rel:.2e}; thresholds_agree={matches}; "
        f"deterministic={deterministic}; {elapsed:.1f}s",
    )


def test_08_ekf_null_calibration():
    t0 = time.time()
    sc = default_scenario(alpha=0.05)
    records = residual_stream(sc, 10_000, seed=108)
    stats = []
    for rec in records:
        tau = whiten(rec.r, eig_factorize(rec.s))
        stats.append(float(tau @ tau))
    mean = float(np.mean(stats))
    d = sc.plant.d
    band = 3.0 * np.sqrt(2.0 * d / len(stats))
    mean_ok = abs(mean - d) < band

    aggs = epoch_stream(records, sc)
    rate = float(np.mean([a.rho for a in aggs]))
    rate_band = 3.0 * np.sqrt(0.05 * 0.95 / len(aggs))
    rate_ok = abs(rate - 0.05) < rate_band
    elapsed = time.time() - t0
    ok = mean_ok and rate_ok and elapsed < 60
    report(
        8,
        "ekf-null-calibration",
        ok,
        f"mean={mean:.3f} (d={d}+-{band:.3f}); alarm={rate:.4f} (0.05+-{rate_band:.3f}); "
        f"{elapsed:.1f}s",
    )


def test_09_alignment_pattern():
    # synthetic attack at paper-analog parameters: alignment nondecreasing
    # across 200/400/600s checkpoints and >= 0.85 at 600s over 50 repeats
    t0 = time.time()
    params = reference_params()  # delta_r=50, delta_l=0.1, eps_cov=100, gammas 1e-2
    sc = default_scenario(alpha=0.05).with_attack(
        AttackSpec("bias", frozenset({0}), 0.5, 1101, 10**9)
    )
    rows = cmd_align(sc, params, seed=109, checkpoints_s=(200.0, 400.0, 600.0), repeats=50)
    rates = [r.alignment_rate for r in rows]
    nondecreasing = all(b >= a for a, b in zip(rates, rates[1:]))
    means = np.array([r.mean_alpha_hat for r in rows])
    alpha_stable = float(np.std(means)) < 0.1 * float(np.mean(means))
    elapsed = time.time() - t0
    ok = nondecreasing and rates[-1] >= 0.85 and alpha_stable and elapsed < 600
    report(
        9,
        "alignment-pattern",
        ok,
        f"rates={','.join(f'{r:.2f}' for r in rates)}; mean_ahat={means[0]:.2e}; {elapsed:.0f}s",
    )


def test_10_false_alarm_anchor():
    t0 = time.time()
    params = reference_params()
    rate = cmd_false_alarms(
        default_scenario(alpha=0.05), params, seed=110, repeats=5, n_epochs=600
    )
    elapsed = time.time() - t0
    ok = rate <= 0.10 and elapsed < 300
    report(10, "false-alarm-anchor", ok, f"rate={rate:.4f} over 3000 epochs; {elapsed:.0f}s")


def test_11_wire_robustness():
    t0 = time.time()
    rng = np.random.default_rng(111)
    ok = True
    for i in range(10_000):
        if rng.random() < 0.5:
            d = int(rng.integers(1, 5))
            tup = CrTuple(
                uid=f"u{i}", w=int(rng.integers(1_000_000)),
                s_hat=random_psd(rng, d, (1e-3, 1e3)),
                tau_rg=rng.normal(size=d) * 10.0 ** rng.integers(-6, 7),
                threshold=float(10.0 ** rng.uniform(-8, 8)), rho=int(rng.integers(2)),
            )
            back = decode_record(encode_record(tup))
            ok &= (
                np.array_equal(back.s_hat, tup.s_hat)
                and np.array_equal(back.tau_rg, tup.tau_rg)
                and back.threshold == tup.threshold
                and back.rho == tup.rho
                and back.w == tup.w
            )
        else:
            tup = PvTuple(
                uid=f"u{i}", w=int(rng.integers(1_000_000)),
                t_res=float(10.0 ** rng.uniform(-12, 12)),
                t_cov=float(10.0 ** rng.uniform(-12, 12)),
                alpha_hat=float(rng.uniform(1e-12, 1.0 - 1e-12)),
                rho=int(rng.integers(2)),
            )
            ok &= decode_record(encode_record(tup)) == tup
    roundtrip_ok = ok

    malformed = [
        "",
        "{",
        '{"v":1}',
        '{"v":3,"mode":"cr","uid":"u","w":0}',
        '{"v":1,"mode":"xx","uid":"u","w":0}',
        '{"v":1,"mode":"pv","uid":"u","w":0,"t_res":"x","t_cov":1,"alpha_hat":0.1,"rho":0}',
        '{"v":1,"mode":"pv","uid":"u","w":0,"t_res":Infinity,"t_cov":1,"alpha_hat":0.1,"rho":0}',
        '{"v":1,"mode":"cr","uid":"u","w":0,"s_hat":[1,2,3,4],"tau_rg":[1,2,3],"thr":1,"rho":0}',
        '[1,2,3]',
        '{"v":1,"mode":"cr","uid":"u","w":0,"s_hat":[1,0,0,1],"tau_rg":[1,2],"thr":1,"rho":0}'[:40],
    ]
    typed = True
    for line in malformed:
        try:
            decode_record(line)
            typed = False
        except ProtocolError:
            pass
        except Exception:
            typed = False
    elapsed = time.time() - t0
    ok = roundtrip_ok and typed and elapsed < 10
    report(
        11,
        "wire-robustness",
        ok,
        f"roundtrip={roundtrip_ok}; typed_errors={typed}; {elapsed:.1f}s",
    )


def test_12_harness_end_to_end(tmp_path):
    t0 = time.time()
    sc = default_scenario()
    attack = AttackSpec("bias", frozenset({0}), 0.5, 601, 10**9)
    cfg = HarnessConfig(
        n_utilities=5, n_epochs=200, params=reference_params(), scenario=sc,
        mode="cr", master_seed=112, attacked_utility=2,
        attacked_scenario=sc.with_attack(attack),
    )
    audit = tmp_path / "audit.log"
    rec = run_harness(cfg, audit)
    completed = not rec.partial and all(
        s.completed and len(s.epochs) == 200 for s in rec.summaries.values()
    )

    # isolation: every session's verdict stream covers exactly its own epochs
    from dpalarm.protocol import Verdict

    per_uid: dict[str, list[int]] = {}
    for line in audit.read_text().splitlines():
        _, direction, record = line.split(" ", 2)
        if direction != "TX":
            continue
        obj = decode_record(record)
        if isinstance(obj, Verdict):
            per_uid.setdefault(obj.uid, []).append(obj.w)
    isolation = set(per_uid) == {f"u{j}" for j in range(5)} and all(
        sorted(ws) == list(range(200)) for ws in per_uid.values()
    )

    # the attacked utility's local alarms cluster after the attack epoch
    alarms = {uid: sum(e[1] for e in s.epochs) for uid, s in rec.summaries.items()}
    attacked_visible = alarms["u2"] >= 100 and all(
        alarms[f"u{j}"] <= 30 for j in (0, 1, 3, 4)
    )

    pairs = replay_audit(audit)
    replay_ok = len(pairs) == 1000 and all(a == b for a, b in pairs)
    elapsed = time.time() - t0
    ok = completed and isolation and attacked_visible and replay_ok and elapsed < 120
    report(
        12,
        "harness-end-to-end",
        ok,
        f"completed={completed}; isolation={isolation}; attacked_alarms={alarms['u2']}; "
        f"replay_exact={replay_ok}; {elapsed:.0f}s",
    )
