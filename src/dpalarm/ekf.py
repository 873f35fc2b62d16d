"""Extended Kalman filter emitting per-step residuals and residual covariances.

The filter runs against an explicit state-space model (transition g, observation
h) with Jacobians taken by central finite differences. Each update step yields a
ResidualRecord carrying the innovation r_t = y_t - h(x_pred) and its covariance
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
    "StateSpaceModel",
    "EkfBelief",
    "ResidualRecord",
    "FilterError",
    "plant_model",
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
class StateSpaceModel:
    """Transition/observation pair the filter linearizes around."""

    g: Callable[[np.ndarray, float], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    m: int
    d: int


def plant_model(spec: PlantSpec) -> StateSpaceModel:
    """Model wrapper for the fixed plant in :mod:`dpalarm.plant`."""
    return StateSpaceModel(
        g=lambda x, u: transition(x, u, spec),
        h=lambda x: observation(x, spec),
        m=spec.m,
        d=spec.d,
    )


@dataclass(frozen=True)
class EkfBelief:
    """Posterior (or predicted) state estimate and covariance."""

    x_hat: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True, slots=True)
class ResidualRecord:
    """One filter step's residual r, residual covariance S, and measurement y."""

    t: int
    r: np.ndarray
    s: np.ndarray
    y: np.ndarray

    @property
    def d(self) -> int:
        return len(self.r)


def jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    h_fd: float | None = None,
) -> np.ndarray:
    """Central-difference Jacobian of f at x0.

    Per-coordinate step h_j = h_fd, or 1e-6 * max(1, |x0_j|) when h_fd is None.

    Raises:
        FilterError: f evaluates non-finite, naming the offending coordinate.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    f0 = np.asarray(f(x0), dtype=float)
    out = np.empty((len(f0), n))
    for j in range(n):
        h = h_fd if h_fd is not None else 1e-6 * max(1.0, abs(x0[j]))
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


def predict(belief: EkfBelief, u: float, model: StateSpaceModel, q: np.ndarray) -> EkfBelief:
    """Time update: x_pred = g(x, u), P_pred = G P G^T + Q (symmetrized)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (model.m, model.m):
        raise ValueError(f"Q must be {model.m}x{model.m}, got {q.shape}")
    x_pred = np.asarray(model.g(belief.x_hat, u), dtype=float)
    g_jac = jacobian(lambda x: model.g(x, u), belief.x_hat)
    p_pred = _symmetrize(g_jac @ belief.cov @ g_jac.T + q)
    return EkfBelief(x_hat=x_pred, cov=p_pred)


def update(
    predicted: EkfBelief,
    y: np.ndarray,
    model: StateSpaceModel,
    r_meas: np.ndarray,
    t: int = 0,
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
    r_meas = np.asarray(r_meas, dtype=float)
    if r_meas.shape != (model.d, model.d):
        raise ValueError(f"R_meas must be {model.d}x{model.d}, got {r_meas.shape}")

    h_jac = jacobian(model.h, predicted.x_hat)
    r = y - np.asarray(model.h(predicted.x_hat), dtype=float)
    s = _symmetrize(h_jac @ predicted.cov @ h_jac.T + r_meas)
    ridge = 1e-10 * np.trace(s) / model.d
    s_reg = s + ridge * np.eye(model.d)
    try:
        s_inv_ht = np.linalg.solve(s_reg, h_jac @ predicted.cov.T)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(s_reg)
        raise FilterError(
            f"innovation covariance singular beyond regularization (cond~{cond:.3e})"
        ) from exc
    gain = s_inv_ht.T  # P_pred H^T S^-1
    x_new = predicted.x_hat + gain @ r
    p_new = _symmetrize((np.eye(model.m) - gain @ h_jac) @ predicted.cov)
    belief = EkfBelief(x_hat=x_new, cov=p_new)
    return belief, ResidualRecord(t=t, r=r, s=s, y=y)


def run_filter(
    trace: Sequence[TraceStep],
    model: StateSpaceModel,
    q: np.ndarray,
    r_meas: np.ndarray,
    initial: EkfBelief,
    u: float | Callable[[int], float] = 0.0,
) -> list[ResidualRecord]:
    """Run predict/update over a trace; deterministic, step errors annotated."""
    if len(trace) == 0:
        raise ValueError("trace must be nonempty")
    belief = initial
    records: list[ResidualRecord] = []
    for step in trace:
        u_t = u(step.t - 1) if callable(u) else float(u)
        try:
            pred = predict(belief, u_t, model, q)
            belief, rec = update(pred, step.y, model, r_meas, t=step.t)
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
    """Read records written by residuals_to_csv (no validation beyond shape).

    Each row is parsed into one float array; a record's ``r`` and ``s`` are
    views of it, and every record shares one read-only all-NaN ``y`` (the CSV
    carries no measurements). Use the ingest command for schema/PSD
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
    y = np.full(d, np.nan)
    y.flags.writeable = False
    records = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 1 + d + d * d:
            raise ValueError(f"row {lineno}: expected {1 + d + d * d} fields, got {len(parts)}")
        vals = np.array(parts[1:], dtype=float)
        records.append(ResidualRecord(t=int(parts[0]), r=vals[:d], s=vals[d:].reshape(d, d), y=y))
    return records
