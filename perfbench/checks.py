"""Output checks, computed apart from the program and run after the timed phase.

Each check returns a list of failure messages; an empty list means it passed.
They recompute what the program reports with numpy and scipy directly, so a
program change that moves a verdict, a threshold or a statistic is caught.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import stats as sps

# Tolerances (README, "Checks"). Measured differences today: 4e-15 relative on
# the PV quantile, 2e-15 absolute on the p-value, 1e-15 relative on the local
# statistic. They leave room for a looser root-finder, not for a wrong one.
THRESHOLD_RTOL = 1e-7
PVALUE_ATOL = 1e-8
STAT_RTOL = 1e-9
# Decisions within this relative distance of their threshold are not compared.
BAND_RTOL = 1e-9
# Binomial band half-width in standard errors (two-sided miss chance ~6e-7).
BAND_Z = 5.0


def _limit(msgs: list[str], n: int = 5) -> list[str]:
    return msgs[:n] + ([f"... and {len(msgs) - n} more"] if len(msgs) > n else [])


def read_csv_rows(path, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, r, s) straight from a residual CSV, without the program's reader."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0].astype(np.int64), data[:, 1 : 1 + d], data[:, 1 + d :].reshape(-1, d, d)


def binomial_band(alpha: float, n: int) -> float:
    return BAND_Z * math.sqrt(alpha * (1.0 - alpha) / n)


def check_pv_epochs(rows, csv_r, csv_s, epoch_len: int, alpha: float, p: int) -> list[str]:
    """PV-mode epochs of one utility against an in-process regulator.

    ``rows`` holds, per verdicted epoch: (k, t_stat, rho, rho_hat_local,
    t_res, t_cov, alpha_hat, verdict), where k indexes the epoch in the CSV.
    """
    fails: list[str] = []
    if not rows:
        return ["no epochs were verdicted"]
    k = np.array([r[0] for r in rows])
    t_stat = np.array([r[1] for r in rows])
    rho = np.array([r[2] for r in rows])
    rho_local_dp = np.array([r[3] for r in rows])
    t_res = np.array([r[4] for r in rows])
    t_cov = np.array([r[5] for r in rows])
    alpha_hat = np.array([r[6] for r in rows])
    verdicts = [r[7] for r in rows]

    rejected = [f"epoch {v.w}: {v.reason}" for v in verdicts if v.reason is not None]
    fails += _limit(rejected)
    rho_hat = np.array([v.rho_hat for v in verdicts])
    bad = np.nonzero(rho_hat != rho_local_dp)[0]
    fails += _limit([f"epoch {i}: regulator rho_hat != utility rho_hat_local" for i in bad])

    if np.any(~(alpha_hat > 0.0)) or np.any(alpha_hat > alpha):
        fails.append(f"alpha_hat outside (0, {alpha}]: min {alpha_hat.min()} max {alpha_hat.max()}")
        return fails

    thr_ref = sps.ncx2.isf(alpha_hat, p, t_cov)
    pv_ref = sps.ncx2.sf(t_res, p, t_cov)
    thr = np.array([v.threshold if v.threshold is not None else np.nan for v in verdicts])
    pv = np.array([v.pvalue if v.pvalue is not None else np.nan for v in verdicts])
    rel = np.abs(thr - thr_ref) / thr_ref
    bad = np.nonzero(~(rel <= THRESHOLD_RTOL))[0]
    fails += _limit([f"epoch {i}: threshold {thr[i]!r} vs ncx2.isf {thr_ref[i]!r}" for i in bad])
    bad = np.nonzero(~(np.abs(pv - pv_ref) <= PVALUE_ATOL))[0]
    fails += _limit([f"epoch {i}: p-value {pv[i]!r} vs ncx2.sf {pv_ref[i]!r}" for i in bad])
    clear = np.abs(t_res - thr_ref) > BAND_RTOL * thr_ref
    bad = np.nonzero(clear & (rho_hat != (t_res > thr_ref)))[0]
    fails += _limit([f"epoch {i}: rho_hat disagrees with ncx2.isf" for i in bad])

    # local statistic r_w' S_w^-1 r_w, summed by numpy from the CSV rows
    n_ep = len(csv_r) // epoch_len
    r_w = csv_r[: n_ep * epoch_len].reshape(n_ep, epoch_len, -1).sum(axis=1)
    s_w = csv_s[: n_ep * epoch_len].reshape(n_ep, epoch_len, *csv_s.shape[1:]).sum(axis=1)
    s_w = 0.5 * (s_w + np.swapaxes(s_w, 1, 2))
    t_ref = np.einsum("ni,ni->n", r_w, np.linalg.solve(s_w, r_w[..., None])[..., 0])[k]
    bad = np.nonzero(~(np.abs(t_stat - t_ref) <= STAT_RTOL * t_ref))[0]
    fails += _limit([f"epoch {i}: local statistic {t_stat[i]!r} vs {t_ref[i]!r}" for i in bad])
    crit = sps.chi2.isf(alpha, p)
    clear = np.abs(t_ref - crit) > BAND_RTOL * crit
    bad = np.nonzero(clear & (rho != (t_ref > crit)))[0]
    fails += _limit([f"epoch {i}: local alarm disagrees with chi2.isf" for i in bad])

    # Type-I guarantee over attack-free epochs; the local alarm depends only on
    # the stream, so its rate is taken over the distinct epochs
    first = np.unique(k, return_index=True)[1]
    local_rate = float(rho[first].mean())
    band = binomial_band(alpha, len(first))
    if abs(local_rate - alpha) > band:
        fails.append(f"local alarm rate {local_rate:.4f} outside {alpha} +- {band:.4f}")
    dp_rate = float(rho_hat.mean())
    if dp_rate > alpha + binomial_band(alpha, len(rho_hat)):
        fails.append(f"DP alarm rate {dp_rate:.4f} above {alpha} + band")
    return fails


def check_cr_verdicts(sent, verdict_lines, pool) -> list[str]:
    """Verdicts of resent CR tuples against the set-up disclosures.

    ``sent[i]`` is (uid, w, pool index) of the i-th tuple, ``verdict_lines[i]``
    the raw wire line answering it (parsed here with ``json``, not the
    program's decoder), ``pool[uid][j]`` the EpochResult it came from.
    """
    fails: list[str] = []
    if len(verdict_lines) != len(sent):
        fails.append(f"{len(sent)} tuples sent but {len(verdict_lines)} verdicts read")
    expected: dict[tuple[str, int], int] = {}
    for uid, results in pool.items():
        for j, res in enumerate(results):
            tup = res.tuple_obj
            s_hat = np.asarray(tup.s_hat, dtype=float)
            tau = np.asarray(tup.tau_rg, dtype=float)
            t = float(tau @ np.linalg.solve(s_hat, tau))
            thr = float(tup.threshold)
            if abs(t - thr) > BAND_RTOL * abs(thr) and int(t > thr) != res.rho_hat_local:
                fails.append(f"{uid} pool {j}: numpy statistic disagrees with rho_hat_local")
            expected[(uid, j)] = res.rho_hat_local
    bad = []
    for (uid, w, j), line in zip(sent, verdict_lines):
        try:
            v = json.loads(line)
        except ValueError:
            bad.append(f"{uid} w={w}: unreadable verdict {line[:80]!r}")
            continue
        if not isinstance(v, dict) or "rho_hat" not in v:
            bad.append(f"{uid} w={w}: not a verdict: {line[:80]!r}")
        elif v.get("reason") is not None:
            bad.append(f"{uid} w={w}: rejected: {v['reason']}")
        elif v.get("uid") != uid or v.get("w") != w:
            bad.append(f"verdict for {v.get('uid')} w={v.get('w')}, expected {uid} w={w}")
        elif v["rho_hat"] != expected[(uid, j)]:
            bad.append(f"{uid} w={w}: rho_hat {v['rho_hat']} != rho_hat_local {expected[(uid, j)]}")
    return fails + _limit(bad)


def check_replay(pairs, n_tuples: int) -> list[str]:
    """replay_audit pairs every tuple and reproduces every verdict byte-exactly."""
    fails = []
    if len(pairs) != n_tuples:
        fails.append(f"replay paired {len(pairs)} tuples, {n_tuples} were verdicted")
    diff = [i for i, (logged, replayed) in enumerate(pairs) if logged != replayed]
    fails += _limit([f"replayed verdict {i} differs from the logged one" for i in diff])
    return fails


def check_alignment(rows_per_round, repeats: int, alpha: float) -> list[str]:
    """cmd_align tables: complete counts, nested windows, sane alpha_hat."""
    fails = []
    for r, rows in enumerate(rows_per_round):
        prev_both, prev_any = -1, -1
        for row in rows:
            both, only = row.dp_and_nondp, row.only_nondp
            if both + only != repeats:
                fails.append(f"round {r} at {row.checkpoint_s:g}s: {both}+{only} != {repeats}")
            if both < prev_both or both + only < prev_any:
                fails.append(f"round {r} at {row.checkpoint_s:g}s: counts fell")
            prev_both, prev_any = both, both + only
            if not 0.0 < row.mean_alpha_hat <= alpha:
                fails.append(f"round {r}: mean_alpha_hat {row.mean_alpha_hat} not in (0, {alpha}]")
    return _limit(fails)
