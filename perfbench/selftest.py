"""Fast self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py        # from the repository root

Runs every workload with tiny inputs and requires zero failed operations and
passing checks; then corrupts each kind of output and requires the matching
check to reject it; then checks that a traced run yields the exact counts.
Exit code 0 iff everything held.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, ok: bool) -> None:
    RESULTS.append((name, ok))
    print(f"{'PASS' if ok else 'FAIL'} {name}")


def shrink() -> None:
    workloads.SETUP_TRIALS = 1
    workloads.PV_STREAM_EPOCHS = 60
    workloads.PV_ROUND_EPOCHS = 60
    workloads.ALIGN_CHECKPOINTS = (20.0, 40.0, 60.0)
    workloads.AUDIT_EPOCHS = 20
    workloads.AUDIT_REPLAYS = 2
    workloads.TCP_POOL_EPOCHS = 20


def clean_run(name: str, result) -> None:
    expect(f"{name}: no failed operations", result.failed == 0 and result.attempted > 0)
    expect(f"{name}: checks pass", not result.failures)
    if result.failures:
        print("\n".join("    " + f for f in result.failures))
    metrics = result.metrics
    expect(
        f"{name}: every end-to-end metric is positive",
        set(metrics) == {"setup_s", "epochs_per_s", "epoch_p50_ms", "epoch_p99_ms",
                         "peak_rss_mb", "audit_bytes_per_epoch", "replay_epochs_per_s"}
        and all(v > 0 for v, _ in metrics.values()),
    )


def pv_corruptions(out) -> None:
    rows = out["rows"]
    args = (out["csv_r"], out["csv_s"], workloads.W, workloads.ALPHA, workloads.P)

    def with_row(i: int, **changes):
        row = list(rows[i])
        verdict_changes = {k: v for k, v in changes.items() if k in ("rho_hat", "threshold", "pvalue")}
        if verdict_changes:
            row[7] = dataclasses.replace(row[7], **verdict_changes)
        for k, idx in (("t_stat", 1), ("rho", 2), ("alpha_hat", 6)):
            if k in changes:
                row[idx] = changes[k]
        return rows[:i] + [tuple(row)] + rows[i + 1 :]

    v = rows[3][7]
    cases = {
        "flipped rho_hat": with_row(3, rho_hat=1 - v.rho_hat),
        "threshold moved 1e-3 relative": with_row(3, threshold=v.threshold * (1 + 1e-3)),
        "p-value moved 1e-6": with_row(3, pvalue=v.pvalue + 1e-6),
        "local statistic moved 1e-6 relative": with_row(3, t_stat=rows[3][1] * (1 + 1e-6)),
        "flipped local alarm": with_row(3, rho=1 - rows[3][2]),
        "alpha_hat above alpha": with_row(3, alpha_hat=workloads.ALPHA * 1.01),
        "rejected verdict": rows[:3] + [rows[3][:7] + (dataclasses.replace(v, reason="x"),)] + rows[4:],
    }
    for label, bad in cases.items():
        expect(f"pv_csv rejects {label}", bool(checks.check_pv_epochs(bad, *args)))
    alarms = [r[:2] + (1,) + r[3:] for r in rows]
    expect("pv_csv rejects a local alarm rate outside the band",
           bool(checks.check_pv_epochs(alarms, *args)))


def replay_corruptions(name: str, out, n_tuples: int, work: Path) -> None:
    audit: Path = out["audit"]
    lines = audit.read_text(encoding="utf-8").splitlines(keepends=True)
    truncated = work / "truncated.log"
    truncated.write_text("".join(lines[:-1]), encoding="utf-8")
    pairs = workloads.netsvc.replay_audit(truncated)
    expect(f"{name} rejects a truncated audit log", bool(checks.check_replay(pairs, n_tuples)))
    edited = work / "edited.log"
    last = lines[-1]
    swapped = last.replace('"rho_hat":0', '"rho_hat":1') if '"rho_hat":0' in last else last.replace('"rho_hat":1', '"rho_hat":0')
    edited.write_text("".join(lines[:-1] + [swapped]), encoding="utf-8")
    pairs = workloads.netsvc.replay_audit(edited)
    expect(f"{name} rejects an edited logged verdict", bool(checks.check_replay(pairs, n_tuples)))


def tcp_corruptions(out) -> None:
    sent, lines, pool = out["sent"], out["lines"], out["pool"]
    first = lines[0]
    flipped = first.replace(b'"rho_hat":0', b'"rho_hat":1') if b'"rho_hat":0' in first else first.replace(b'"rho_hat":1', b'"rho_hat":0')
    expect("regulator_tcp rejects a flipped rho_hat",
           bool(checks.check_cr_verdicts(sent, [flipped] + lines[1:], pool)))
    rejected = first[:-1] + b',"reason":"x"}'
    expect("regulator_tcp rejects a rejection verdict",
           bool(checks.check_cr_verdicts(sent, [rejected] + lines[1:], pool)))
    expect("regulator_tcp rejects a missing verdict",
           bool(checks.check_cr_verdicts(sent, lines[:-1], pool)))
    uid = sent[0][0]
    res = pool[uid][0]
    tup = res.tuple_obj
    stat = float(tup.tau_rg @ np.linalg.solve(tup.s_hat, tup.tau_rg))
    # move the threshold just across the statistic, keeping the disclosed alarm
    across = stat * (1 + 1e-3) if res.rho_hat_local else stat * (1 - 1e-3)
    moved = dict(pool)
    moved[uid] = [
        dataclasses.replace(res, tuple_obj=dataclasses.replace(tup, threshold=across))
    ] + pool[uid][1:]
    expect("regulator_tcp rejects a threshold moved across the numpy statistic",
           bool(checks.check_cr_verdicts(sent, lines, moved)))


def align_corruptions(out) -> None:
    rounds = out["rounds"]
    reps = workloads.ALIGN_REPEATS
    row = rounds[0][0]
    cases = {
        "a lost repeat": [dataclasses.replace(row, only_nondp=row.only_nondp - 1)] + rounds[0][1:],
        "falling counts": rounds[0][:1] + [dataclasses.replace(r, dp_and_nondp=-1, only_nondp=reps + 1) for r in rounds[0][1:]],
        "mean_alpha_hat above alpha": [dataclasses.replace(row, mean_alpha_hat=0.06)] + rounds[0][1:],
    }
    for label, bad in cases.items():
        expect(f"mc_align rejects {label}",
               bool(checks.check_alignment([bad], reps, workloads.ALPHA)))


def traced_counts(work: Path) -> None:
    tracer = tracing.Tracer()
    tracer.install()
    result = workloads.pv_csv(3, 0.2, work, tracer)
    got = tracing.layer_metrics(result.tables[0][1])
    expect("traced pv_csv: 2 jacobian calls per step", got.get("ekf.jacobian.calls_per_step") == 2.0)
    expect("traced pv_csv: 3 eig_factorize calls per epoch", got.get("stats.eig_factorize.calls_per_epoch") == 3.0)
    expect("traced pv_csv: 1 sequential_disclose per epoch",
           got.get("privacy.sequential_disclose.calls_per_epoch") == 1.0)
    expect("tracer removed its wrappers",
           not hasattr(workloads.protocol.aggregate_epoch, "__wrapped__"))
    tbl, overhead = workloads.probe(3, work)
    probe = tracing.layer_metrics(tbl)
    probe["netsvc.session_overhead_us_per_tuple"] = overhead
    expect("probe covers every per-layer metric", set(probe) == set(tracing.LAYER_UNITS))


def main() -> int:
    shrink()
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in ("pv_csv", "mc_align", "regulator_tcp"):
            sub = work / name
            sub.mkdir()
            result = workloads.WORKLOADS[name](5, 0.3, sub, None)
            clean_run(name, result)
            if name == "pv_csv":
                pv_corruptions(result.outputs)
                replay_corruptions(name, result.outputs, result.attempted, sub)
            elif name == "mc_align":
                align_corruptions(result.outputs)
                replay_corruptions(name, result.outputs, workloads.AUDIT_EPOCHS, sub)
            else:
                tcp_corruptions(result.outputs)
                replay_corruptions(name, result.outputs, result.attempted, sub)
        traced = work / "traced"
        traced.mkdir()
        traced_counts(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [n for n, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} self-test checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
