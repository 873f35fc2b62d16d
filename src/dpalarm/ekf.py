"""Extended Kalman filter emitting per-step residuals and residual covariances.

The filter runs the fixed plant of :mod:`dpalarm.plant`: its transition g and
observation h, linearized by central finite differences, with Q and R_meas
read from the ``PlantSpec``. Each update step yields a ResidualRecord carrying
the innovation r_t = y_t - h(x_pred) and its covariance
S_t = H P_pred H^T + R_meas; the whitened norm of r_t is the alarm statistic
downstream.

Filter state is a value threaded through calls; nothing here mutates shared
state, so filters over different traces can run concurrently.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .plant import PlantSpec, TraceStep, observation, transition

__all__ = [
    "EkfBelief",
    "ResidualRecord",
    "FilterError",
    "jacobian",
    "predict",
    "update",
    "run_filter",
    "residuals_to_csv",
    "residuals_from_csv",
]


class FilterError(RuntimeError):
    """Numerical failure inside the filter (singular innovation covariance)."""


@dataclass(frozen=True)
class EkfBelief:
    """Posterior (or predicted) state estimate and covariance."""

    x_hat: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True, slots=True)
class ResidualRecord:
    """One filter step's residual r and residual covariance S."""

    t: int
    r: np.ndarray
    s: np.ndarray

    @property
    def d(self) -> int:
        return len(self.r)


def jacobian(f: Callable[[np.ndarray], np.ndarray], x0: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of f at x0, per-coordinate step 1e-6 * max(1, |x0_j|).

    Raises:
        FilterError: f evaluates non-finite, naming the offending coordinate.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    f0 = np.asarray(f(x0), dtype=float)
    out = np.empty((len(f0), n))
    for j in range(n):
        h = 1e-6 * max(1.0, abs(x0[j]))
        xp = x0.copy()
        xm = x0.copy()
        xp[j] += h
        xm[j] -= h
        fp = np.asarray(f(xp), dtype=float)
        fm = np.asarray(f(xm), dtype=float)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise FilterError(f"non-finite function value while differencing coordinate {j}")
        out[:, j] = (fp - fm) / (2.0 * h)
    return out


def _symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def predict(belief: EkfBelief, spec: PlantSpec) -> EkfBelief:
    """Time update: x_pred = g(x), P_pred = G P G^T + Q (symmetrized)."""
    x_pred = transition(belief.x_hat, spec)
    g_jac = jacobian(lambda x: transition(x, spec), belief.x_hat)
    p_pred = _symmetrize(g_jac @ belief.cov @ g_jac.T + spec.process_cov)
    return EkfBelief(x_hat=x_pred, cov=p_pred)


def update(
    predicted: EkfBelief, y: np.ndarray, spec: PlantSpec, t: int = 0
) -> tuple[EkfBelief, ResidualRecord]:
    """Measurement update returning the new belief and the residual record.

    The stored S is the innovation covariance H P_pred H^T + R_meas (the
    covariance of r under the null, i.e. r ~ N(0, S)); downstream whitening
    inverts it where needed. A tiny ridge (1e-10 * trace/d) is added before
    inversion for numerical safety, well below test tolerances.

    Raises:
        FilterError: innovation covariance singular beyond the ridge, with a
            condition estimate in the message.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("measurement must be finite")

    h_jac = jacobian(lambda x: observation(x, spec), predicted.x_hat)
    r = y - observation(predicted.x_hat, spec)
    s = _symmetrize(h_jac @ predicted.cov @ h_jac.T + spec.measurement_cov)
    ridge = 1e-10 * np.trace(s) / spec.d
    s_reg = s + ridge * np.eye(spec.d)
    try:
        s_inv_ht = np.linalg.solve(s_reg, h_jac @ predicted.cov.T)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(s_reg)
        raise FilterError(
            f"innovation covariance singular beyond regularization (cond~{cond:.3e})"
        ) from exc
    gain = s_inv_ht.T  # P_pred H^T S^-1
    x_new = predicted.x_hat + gain @ r
    p_new = _symmetrize((np.eye(spec.m) - gain @ h_jac) @ predicted.cov)
    belief = EkfBelief(x_hat=x_new, cov=p_new)
    return belief, ResidualRecord(t=t, r=r, s=s)


def run_filter(
    trace: Sequence[TraceStep], spec: PlantSpec, initial: EkfBelief
) -> list[ResidualRecord]:
    """Run predict/update over a trace, one record per step."""
    if len(trace) == 0:
        raise ValueError("trace must be nonempty")
    belief = initial
    records: list[ResidualRecord] = []
    for step in trace:
        try:
            pred = predict(belief, spec)
            belief, rec = update(pred, step.y, spec, t=step.t)
        except (FilterError, ValueError) as exc:
            raise FilterError(f"filter failed at step t={step.t}: {exc}") from exc
        records.append(rec)
    return records


def residuals_to_csv(records: Iterable[ResidualRecord], fh: io.TextIOBase) -> None:
    """Write records as CSV `t,r1..rd,s11,s12,...,sdd` (S row-major)."""
    records = list(records)
    if not records:
        raise ValueError("no records to export")
    d = records[0].d
    cols = (
        ["t"]
        + [f"r{i + 1}" for i in range(d)]
        + [f"s{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    )
    fh.write(",".join(cols) + "\n")
    for rec in records:
        vals = (
            [str(rec.t)]
            + [format(v, ".17g") for v in rec.r]
            + [format(v, ".17g") for v in rec.s.reshape(-1)]
        )
        fh.write(",".join(vals) + "\n")


def residuals_from_csv(fh: io.TextIOBase) -> list[ResidualRecord]:
    """Read records written by residuals_to_csv (no validation beyond schema).

    Each row is parsed into one float array; a record's ``r`` and ``s`` are
    views of it. A bad header, a row with the wrong field count or an
    unparsable field, and a step index not above the previous row's raise
    ValueError naming the file row. Use the ingest command for PSD
    validation of external streams.
    """
    header = fh.readline().strip().split(",")
    if not header or header[0] != "t":
        raise ValueError(f"bad residual header: {header}")
    d = sum(1 for c in header if c.startswith("r"))
    expected = (
        ["t"]
        + [f"r{i + 1}" for i in range(d)]
        + [f"s{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    )
    if header != expected:
        raise ValueError(f"bad residual header: {header}")
    records = []
    last_t = None
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 1 + d + d * d:
            raise ValueError(f"row {lineno}: expected {1 + d + d * d} fields, got {len(parts)}")
        try:
            t = int(parts[0])
            vals = np.array(parts[1:], dtype=float)
        except ValueError as exc:
            raise ValueError(f"row {lineno}: {exc}") from None
        if last_t is not None and t <= last_t:
            raise ValueError(f"row {lineno}: step index {t} not increasing (prev {last_t})")
        last_t = t
        records.append(ResidualRecord(t=t, r=vals[:d], s=vals[d:].reshape(d, d)))
    return records
