"""Experiment runner and service entry points.

Subcommands: ``simulate``, ``sweep``, ``align``, ``false-alarms``,
``bounds-report``, ``ingest``, ``serve``, ``client``, ``audit-stats``. All
output files are CSV or flat key=value text prefixed with ``# key=value``
header comments carrying the master seed, a params hash, and the package
version, so identical headers imply identical outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
# Not `from scipy import special`: scipy loads scipy.special at its first
# attribute access, so a process that computes no p-value or quantile (a CR
# regulator, CR replay, ingest) never pays its ~0.3 s import and ~20 MB.
import scipy

from . import __version__
from .bounds import (
    BoundReport,
    cr_privacy_loss,
    misclassification_bounds,
    residual_gap_interval,
    statistic_privacy_profile,
)
from .config import (
    ScenarioConfig,
    default_scenario,
    params_hash,
    parse_params_text,
)
from .ekf import ResidualRecord, residuals_from_csv, residuals_to_csv
from .netsvc import RegulatorConfig, replay_audit, run_utility_client, serve_regulator
from .pipeline import PipelineEpoch, run_pipeline, simulated_stream
from .plant import trace_to_csv
from .privacy import PrivacyParams
from .protocol import ProtocolError, decode_record
from .stats import eig_factorize, noncentral_chi2_cdf

__all__ = [
    "SweepConfig",
    "AlignmentRow",
    "cmd_simulate",
    "cmd_sweep",
    "cmd_align",
    "cmd_false_alarms",
    "cmd_bounds_report",
    "cmd_ingest",
    "AuditStats",
    "cmd_audit_stats",
    "main",
]

SWEEPABLE = ("eps_cov", "eps_r", "gamma_cov", "gamma_r")
ATTACK_WINDOW_S = 800.0  # the designated attack window that caps align checkpoints
_fmt_str = json.encoder.encode_basestring_ascii  # a uid or reason as a JSON string


def _header(seed: int, params: PrivacyParams, scenario: ScenarioConfig) -> str:
    return (
        f"# seed={seed}\n"
        f"# params_hash={params_hash(params, scenario)}\n"
        f"# version={__version__}\n"
    )


@dataclass(frozen=True)
class SweepConfig:
    """One-parameter sweep: grid of values, repeated seeded runs per cell."""

    param: str
    grid: tuple[float, ...]
    base: PrivacyParams
    scenario: ScenarioConfig
    n_epochs: int = 100
    repeats: int = 5  # median/min-max methodology uses five runs per cell

    def __post_init__(self):
        if self.param not in SWEEPABLE:
            raise ValueError(f"sweep parameter must be one of {SWEEPABLE}, got {self.param!r}")
        if not self.grid:
            raise ValueError("sweep grid must be nonempty")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")

    def params_for(self, value: float) -> PrivacyParams:
        # sigma re-derives from its minimum only when the swept parameter
        # enters that minimum; otherwise the base's sigma is kept
        sigma = 0.0 if self.param in ("eps_r", "gamma_r") else self.base.sigma
        return replace(self.base, **{self.param: float(value)}, sigma=sigma)


def cmd_simulate(
    scenario: ScenarioConfig,
    n_steps: int,
    seed: int,
    out_dir: Path,
    export_residuals: bool = False,
) -> list[Path]:
    """Emit a plant trace CSV (and optionally the filter's residual CSV).

    Both hold the n_steps steps after the warm-up of ``simulated_stream``, so
    the residual CSV is the stream ``client --source sim`` discloses for the
    same seed.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    trace, records = simulated_stream(scenario, n_steps, seed)
    paths = []
    trace_path = out_dir / "trace.csv"
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        trace_to_csv(trace, fh)
    paths.append(trace_path)
    if export_residuals:
        res_path = out_dir / "residuals.csv"
        with open(res_path, "w", encoding="utf-8", newline="\n") as fh:
            residuals_to_csv(records, fh)
        paths.append(res_path)
    return paths


def _epoch_rows(epochs: list[PipelineEpoch], p: int) -> list[tuple]:
    rows = []
    for ep in epochs:
        pv_dp = ep.verdict.pvalue
        if pv_dp is None:
            pv_dp = 1.0 - noncentral_chi2_cdf(
                ep.result.t_res_scaled, p, ep.result.t_cov_scaled
            )
        rows.append(
            (
                ep.w,
                ep.result.t_stat,
                ep.result.t_res_scaled,
                float(scipy.special.chdtrc(p, ep.result.t_stat)),
                pv_dp,
                ep.rho,
                ep.rho_hat,
            )
        )
    return rows


def cmd_sweep(config: SweepConfig, seed: int, out_dir: Path) -> Path:
    """Run the sweep; one per-epoch CSV per cell plus a summary envelope file.

    Per-run failures are recorded in the summary and the sweep continues.
    The summary's header carries one ``# cell value= params_hash=`` line per
    grid value whose params could be built, the hash of what that cell ran.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / f"sweep_{config.param}_summary.csv"
    failures = []
    per_value: dict[float, list[list[tuple]]] = {}
    cell_hashes: dict[float, str] = {}
    for vi, value in enumerate(config.grid):
        runs = []
        for rep in range(config.repeats):
            try:
                params = config.params_for(value)
                cell_hashes[value] = params_hash(params, config.scenario)
                epochs, _ = run_pipeline(
                    config.scenario,
                    params,
                    config.n_epochs,
                    seed=seed + 1000 * vi + rep,
                    mode="pv",
                )
            except Exception as exc:  # noqa: BLE001 - sweep must continue
                failures.append((value, rep, str(exc)))
                continue
            rows = _epoch_rows(epochs, params.p)
            runs.append(rows)
            cell_path = out_dir / f"sweep_{config.param}_{value:g}_rep{rep}.csv"
            with open(cell_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(_header(seed, params, config.scenario))
                fh.write("w,t_stat,t_stat_dp,pvalue,pvalue_dp,rho,rho_hat\n")
                for row in rows:
                    fh.write(
                        f"{row[0]},{row[1]:.10g},{row[2]:.10g},{row[3]:.10g},"
                        f"{row[4]:.10g},{row[5]},{row[6]}\n"
                    )
        per_value[value] = runs

    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# seed={seed}\n")
        for value, h in cell_hashes.items():
            fh.write(f"# cell value={value:g} params_hash={h}\n")
        fh.write(f"# version={__version__}\n")
        fh.write(f"# param={config.param} repeats={config.repeats}\n")
        for value, rep, msg in failures:
            fh.write(f"# failed value={value} rep={rep}: {msg}\n")
        fh.write("value,w,t_dp_median,t_dp_min,t_dp_max,pv_dp_median,pv_dp_min,pv_dp_max\n")
        for value, runs in per_value.items():
            if not runs:
                continue
            n_w = min(len(r) for r in runs)
            for w in range(n_w):
                t_dp = [r[w][2] for r in runs]
                pv_dp = [r[w][4] for r in runs]
                fh.write(
                    f"{value:g},{w},{statistics.median(t_dp):.10g},{min(t_dp):.10g},"
                    f"{max(t_dp):.10g},{statistics.median(pv_dp):.10g},"
                    f"{min(pv_dp):.10g},{max(pv_dp):.10g}\n"
                )
    return summary_path


@dataclass(frozen=True)
class AlignmentRow:
    """Detection alignment between DP (regulator) and non-DP (utility) alarms."""

    checkpoint_s: float
    dp_and_nondp: int
    only_nondp: int
    alignment_rate: float
    mean_alpha_hat: float
    var_alpha_hat: float


def cmd_align(
    scenario: ScenarioConfig,
    params: PrivacyParams,
    seed: int,
    checkpoints_s: tuple[float, ...] = (200.0, 400.0, 600.0),
    repeats: int = 50,
    mode: str = "cr",
) -> list[AlignmentRow]:
    """Count runs where DP and non-DP detection both fire by each checkpoint.

    Detection means at least one alarm in the epochs from the attack start up
    to the checkpoint (checkpoints are capped by the designated attack
    window). The scenario must contain an attack covering the last checkpoint.
    """
    attack = scenario.attack
    if attack is None:
        raise ValueError("alignment needs an attacked scenario")
    sec_per_epoch = scenario.epoch_seconds
    max_cp = max(checkpoints_s)
    if max_cp > ATTACK_WINDOW_S:
        raise ValueError(f"checkpoint {max_cp}s exceeds the {ATTACK_WINDOW_S}s attack window")
    for i, c in enumerate(checkpoints_s):
        if round(c / sec_per_epoch) < 1:
            raise ValueError(f"checkpoint {c}s covers no {sec_per_epoch:g}s epoch")
        if c in checkpoints_s[:i]:  # its row would count each repeat twice
            raise ValueError(f"checkpoint {c}s is repeated")
    window_steps = (attack.t_end - attack.t_start + 1) * scenario.plant.dt
    if window_steps < max_cp:
        raise ValueError(
            f"attack window {window_steps:.0f}s shorter than the last checkpoint {max_cp:.0f}s"
        )
    # attack.t_start indexes the raw trace; epoching starts after warm-up
    first_rec = attack.t_start - scenario.warmup_steps - 1
    if first_rec < 0:
        raise ValueError("attack must start after the warm-up period")
    w0 = first_rec // scenario.epoch_len
    n_epochs = w0 + int(np.ceil(max_cp / sec_per_epoch)) + 1

    hits = {c: [0, 0] for c in checkpoints_s}  # [both, only_nondp]
    alphas = {c: [] for c in checkpoints_s}
    for rep in range(repeats):
        epochs, _ = run_pipeline(
            scenario, params, n_epochs, seed=seed + rep, mode=mode, utility_index=rep
        )
        for c in checkpoints_s:
            w_hi = w0 + int(round(c / sec_per_epoch))
            window = [ep for ep in epochs if w0 <= ep.w < w_hi]
            nondp = any(ep.rho for ep in window)
            dp = any(ep.rho_hat for ep in window)
            if dp and nondp:
                hits[c][0] += 1
            elif nondp:
                hits[c][1] += 1
            alphas[c].append(float(np.mean([ep.result.alpha_hat for ep in window])))
    rows = []
    for c in checkpoints_s:
        both, only = hits[c]
        a = alphas[c]
        rows.append(
            AlignmentRow(
                checkpoint_s=c,
                dp_and_nondp=both,
                only_nondp=only,
                alignment_rate=both / repeats,
                mean_alpha_hat=float(np.mean(a)),
                var_alpha_hat=float(np.var(a)),
            )
        )
    return rows


def cmd_false_alarms(
    scenario: ScenarioConfig,
    params: PrivacyParams,
    seed: int,
    repeats: int = 5,
    n_epochs: int = 600,
    mode: str = "cr",
) -> float:
    """DP false-alarm rate at the regulator over attack-free epochs."""
    if scenario.attack is not None:
        raise ValueError("false-alarm scenario must not contain an attack")
    fired = 0
    total = 0
    for rep in range(repeats):
        epochs, _ = run_pipeline(
            scenario, params, n_epochs, seed=seed + rep, mode=mode, utility_index=rep
        )
        fired += sum(ep.rho_hat for ep in epochs)
        total += len(epochs)
    return fired / total


def build_bound_report(
    scenario: ScenarioConfig,
    params: PrivacyParams,
    seed: int,
    n_epochs: int = 30,
) -> BoundReport:
    """Evaluate every bound at the final epoch snapshot of a seeded run."""
    epochs, session = run_pipeline(scenario, params, n_epochs, seed=seed, mode="cr")
    last = epochs[-1]
    inputs = session.last_inputs
    inversion = session.last_inversion
    d = scenario.plant.d
    theta_l = params.theta_l(d)
    gap_bound = inputs.res_energy * theta_l
    lo, hi, joint, _sw = residual_gap_interval(
        inputs.tau_cov_hat, params.sigma, params.theta_r, params.gamma_r
    )
    miss, false_alarm = misclassification_bounds(
        last.result.t_stat, scenario.alpha, inversion.alpha_hat, inputs
    )
    s_hat = last.result.tuple_obj.s_hat
    loss, loss_prob = cr_privacy_loss(
        params.delta_r, params.sigma, s_hat, params.theta_r, params.p, params.gamma_r
    )
    delta_vec = params.delta_r / np.sqrt(d) * np.ones(d)
    eps_prime, delta_prime = statistic_privacy_profile(
        params.eps_cov, params.sigma, delta_vec, last.agg.s_w
    )
    return BoundReport(
        cov_gap_bound=gap_bound,
        cov_gap_confidence=1.0 - params.gamma_cov,
        gap_low=lo,
        gap_high=hi,
        gap_joint_prob=joint,
        type1_upper=inversion.achieved,
        alpha_hat=inversion.alpha_hat,
        miss_bound=miss,
        false_alarm_bound=false_alarm,
        cr_loss=loss,
        cr_loss_prob=loss_prob,
        eps_prime=eps_prime,
        delta_prime=delta_prime,
        seed=seed,
    )


def cmd_bounds_report(
    scenario: ScenarioConfig,
    params: PrivacyParams,
    seed: int,
    out_path: Path,
    n_epochs: int = 30,
) -> BoundReport:
    report = build_bound_report(scenario, params, seed, n_epochs=n_epochs)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_header(seed, params, scenario))
        for k, v in report.to_flat().items():
            fh.write(f"{k}={v}\n")
    return report


def cmd_ingest(csv_path: Path) -> tuple[list[ResidualRecord], int]:
    """Validate an externally produced residual stream.

    Schema violations (bad header, field counts, unparsable fields,
    non-increasing t) raise ValueError naming the file row; rows with a
    non-finite residual or covariance entry, or whose covariance
    ``stats.eig_factorize`` refuses (asymmetric or not PSD within its
    tolerance), are rejected and counted, the rest form the validated stream.
    """
    with open(csv_path, "r", encoding="utf-8") as fh:
        records = residuals_from_csv(fh)
    ok: list[ResidualRecord] = []
    rejected = 0
    for rec in records:
        # eig_factorize passes a covariance with some NaN entries
        if not (np.isfinite(rec.r).all() and np.isfinite(rec.s).all()):
            rejected += 1
            continue
        try:
            eig_factorize(rec.s)  # the symmetric/PSD check every consumer applies
        except ValueError:  # numpy's LinAlgError (no convergence) is one too
            rejected += 1
            continue
        ok.append(rec)
    return ok, rejected


@dataclass
class AuditStats:
    """One uid's tuples in an audit log and how their verdicts replay."""

    tuples: int = 0
    exact: int = 0  # replayed verdict equals the logged one byte for byte
    differing: int = 0
    mismatched: int = 0  # verified, rho_hat differs from the disclosed rho
    rejected: dict[str, int] = field(default_factory=dict)  # by reason, up to its first ": "


def cmd_audit_stats(audit_path: Path) -> dict[str, AuditStats]:
    """Per-uid statistics of a regulator audit log, from ``replay_audit``.

    Each tuple is counted under the uid and reason of its replayed verdict,
    which for an exact replay is the logged verdict.

    Raises:
        ProtocolError: a malformed audit line, or a tuple before its handshake.
    """
    stats: dict[str, AuditStats] = {}
    for logged, replayed in replay_audit(audit_path):
        verdict = decode_record(replayed)
        entry = stats.setdefault(verdict.uid, AuditStats())
        entry.tuples += 1
        if logged == replayed:
            entry.exact += 1
        else:
            entry.differing += 1
        if verdict.reason is not None:
            kind = verdict.reason.split(": ", 1)[0]
            entry.rejected[kind] = entry.rejected.get(kind, 0) + 1
        elif not verdict.matched:
            entry.mismatched += 1
    return stats


# --- argparse front end ------------------------------------------------------


def _load_params(path: str | None) -> tuple[PrivacyParams, ScenarioConfig]:
    from .config import reference_params

    if path is None:
        return reference_params(), default_scenario()
    text = Path(path).read_text(encoding="utf-8")
    return parse_params_text(text)


def _addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="dpalarm", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--params", type=str, default=None, help="params file (key=value lines)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="emit a plant trace (and residual) CSV")
    p_sim.add_argument("--steps", type=int, default=2000)
    p_sim.add_argument("--residuals", action="store_true")

    p_sweep = sub.add_parser("sweep", help="parameter sweep with min-max envelopes")
    p_sweep.add_argument("--param", choices=SWEEPABLE, required=True)
    p_sweep.add_argument("--values", type=str, required=True, help="comma-separated grid")
    p_sweep.add_argument("--epochs", type=int, default=100)
    p_sweep.add_argument("--repeats", type=int, default=5)

    p_align = sub.add_parser("align", help="DP vs non-DP detection alignment table")
    p_align.add_argument("--repeats", type=int, default=50)
    p_align.add_argument("--checkpoints", type=str, default="200,400,600")
    p_align.add_argument("--mode", choices=("cr", "pv"), default="cr")

    p_fa = sub.add_parser("false-alarms", help="DP false-alarm rate outside attacks")
    p_fa.add_argument("--repeats", type=int, default=5)
    p_fa.add_argument("--epochs", type=int, default=600)
    p_fa.add_argument("--mode", choices=("cr", "pv"), default="cr")

    p_br = sub.add_parser("bounds-report", help="evaluate every bound at an epoch snapshot")
    p_br.add_argument("--epochs", type=int, default=30)

    p_ing = sub.add_parser("ingest", help="validate an external residual CSV")
    p_ing.add_argument("csv", type=Path)

    p_srv = sub.add_parser("serve", help="run the regulator service")
    p_srv.add_argument("--listen", type=str, required=True, help="host:port")
    p_srv.add_argument("--audit", type=Path, required=True)
    p_srv.add_argument("--mode-allow", choices=("cr", "pv", "both"), default="both")

    p_aud = sub.add_parser("audit-stats", help="replay a regulator audit log, per-uid counts")
    p_aud.add_argument("audit", type=Path)

    p_cli = sub.add_parser("client", help="run a utility client session")
    p_cli.add_argument("--connect", type=str, required=True, help="host:port")
    p_cli.add_argument("--mode", choices=("cr", "pv"), required=True)
    p_cli.add_argument("--source", type=str, default="sim", help="sim or csv:PATH")
    p_cli.add_argument("--epochs", type=int, required=True)
    p_cli.add_argument("--uid", type=str, default="u0")

    args = parser.parse_args(argv)
    params, scenario = _load_params(args.params)
    out_dir: Path = args.out

    if args.command == "simulate":
        paths = cmd_simulate(scenario, args.steps, args.seed, out_dir, args.residuals)
        for p in paths:
            print(p)
        return 0

    if args.command == "sweep":
        grid = tuple(float(v) for v in args.values.split(","))
        cfg = SweepConfig(
            param=args.param,
            grid=grid,
            base=params,
            scenario=scenario,
            n_epochs=args.epochs,
            repeats=args.repeats,
        )
        print(cmd_sweep(cfg, args.seed, out_dir))
        return 0

    if args.command == "align":
        checkpoints = tuple(float(v) for v in args.checkpoints.split(","))
        rows = cmd_align(
            scenario, params, args.seed, checkpoints, repeats=args.repeats, mode=args.mode
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "alignment.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_header(args.seed, params, scenario))
            fh.write("checkpoint_s,dp_and_nondp,only_nondp,alignment_rate,mean_alpha_hat,var_alpha_hat\n")
            for r in rows:
                fh.write(
                    f"{r.checkpoint_s:g},{r.dp_and_nondp},{r.only_nondp},"
                    f"{r.alignment_rate:.6g},{r.mean_alpha_hat:.10g},{r.var_alpha_hat:.10g}\n"
                )
        print(path)
        return 0

    if args.command == "false-alarms":
        rate = cmd_false_alarms(
            scenario, params, args.seed, repeats=args.repeats, n_epochs=args.epochs, mode=args.mode
        )
        print(f"false_alarm_rate={rate:.6g}")
        return 0

    if args.command == "bounds-report":
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "bounds_report.txt"
        cmd_bounds_report(scenario, params, args.seed, path, n_epochs=args.epochs)
        print(path)
        return 0

    if args.command == "ingest":
        try:
            records, rejected = cmd_ingest(args.csv)
        except ValueError as exc:
            print(f"ingest error: {exc}", file=sys.stderr)
            return 1
        print(f"accepted={len(records)} rejected={rejected}")
        return 0

    if args.command == "serve":
        serve_regulator(_addr(args.listen), RegulatorConfig(args.audit, args.mode_allow))
        return 0

    if args.command == "audit-stats":
        try:
            stats = cmd_audit_stats(args.audit)
        except (OSError, ProtocolError) as exc:
            print(f"audit error: {exc}", file=sys.stderr)
            return 1
        for uid, entry in sorted(stats.items()):
            print(
                f"uid={_fmt_str(uid)} tuples={entry.tuples} exact={entry.exact} "
                f"differing={entry.differing} mismatched={entry.mismatched} "
                f"rejected={sum(entry.rejected.values())}"
            )
            for reason, count in entry.rejected.items():
                print(f"uid={_fmt_str(uid)} reason={_fmt_str(reason)} rejected={count}")
        return 1 if any(entry.differing for entry in stats.values()) else 0

    if args.command == "client":
        csv_source = None
        if args.source != "sim":
            if not args.source.startswith("csv:"):
                print(f"bad source {args.source!r}; use sim or csv:PATH", file=sys.stderr)
                return 1
            csv_source = args.source[4:]
        summary = run_utility_client(
            _addr(args.connect),
            params,
            scenario,
            args.mode,
            seed=args.seed,
            n_epochs=args.epochs,
            uid=args.uid,
            csv_source=csv_source,
        )
        for w, rho, rho_hat, matched in summary.epochs:
            print(f"w={w} rho={rho} rho_hat={rho_hat} matched={int(matched)}")
        if not summary.completed:
            print(f"session incomplete: {summary.error}", file=sys.stderr)
            return 1
        return 0

    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
