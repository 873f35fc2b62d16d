"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src``. Human
readable lines go to standard output first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. Work
files live under ``.bench_work/`` and are removed at the end, except the span
files of traced runs (``.bench_work/traces/``).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
from pathlib import Path

WORKLOADS = ("pv_csv", "mc_align", "regulator_tcp")


def per_layer(result, workloads, tracing, seed: int, work: Path, trace_dir: Path, name: str):
    """Merge the traced tables; layers the workload skipped come from the probe."""
    metrics: dict[str, float] = {}
    source: dict[str, str] = {}
    tables = list(result.tables)
    if result.session_overhead_us is not None:
        metrics["netsvc.session_overhead_us_per_tuple"] = result.session_overhead_us
        source["netsvc.session_overhead_us_per_tuple"] = "workload"
    for label, tbl in tables:
        for key, value in tracing.layer_metrics(tbl).items():
            if key not in metrics:
                metrics[key], source[key] = value, label
    if any(key not in metrics for key in tracing.LAYER_UNITS):
        tbl, overhead = workloads.probe(seed, work)
        tables.append(("probe", tbl))
        probe_metrics = tracing.layer_metrics(tbl)
        probe_metrics["netsvc.session_overhead_us_per_tuple"] = overhead
        for key, value in probe_metrics.items():
            if key not in metrics:
                metrics[key], source[key] = value, "probe"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for label, tbl in tables:
        tbl.save(trace_dir / f"{name}-seed{seed}-{label}.npz")
    lines = [f"{'per-layer metric':48s} {'value':>14s} unit   source"]
    for key, unit in tracing.LAYER_UNITS.items():
        if key in metrics:
            lines.append(f"{key:48s} {metrics[key]:14.4f} {unit:6s} {source[key]}")
        else:
            lines.append(f"{key:48s} {'absent':>14s} {unit:6s} -")
    lines.append(
        f"traced epochs_per_s {result.metrics['epochs_per_s'][0]:.2f} "
        f"(compare an untraced run for the tracing overhead)"
    )
    out = {k: (v, tracing.LAYER_UNITS[k]) for k, v in metrics.items() if k in tracing.LAYER_UNITS}
    return out, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dpalarm" / "__init__.py").is_file():
        print(f"perfbench: no src/dpalarm under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    logging.getLogger("dpalarm.netsvc").setLevel(logging.ERROR)
    import tracing
    import workloads

    bench_dir = root / ".bench_work"
    work = bench_dir / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
        result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, work, tracer)
        metrics = result.metrics
        if args.trace:
            metrics, lines = per_layer(
                result, workloads, tracing, args.seed, work, bench_dir / "traces", args.workload
            )
            result.report += lines
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in result.report:
        print(line)
    for failure in result.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
