"""Nonlinear plant simulator with injectable sensor attacks.

The fixed plant is a damped pendulum-like system with m = 2 states and d = 3
sensors (class constants of ``PlantSpec``):

    x1' = x1 + dt * x2
    x2' = x2 + dt * (-a*sin(x1) - b*x2 + u)
    y   = [x1, x2, sin(x1) + 0.5*x2]

Process noise N(0, Q) enters the transition, measurement noise N(0, R_meas)
the observation. Traces run with u = 0, as does the filter in
:mod:`dpalarm.ekf`. Attacks modify measurements only (sensor-level false
data injection); plant state is never touched.

Everything here is a pure function of explicit state plus a seeded rng, so
independent traces can run in parallel freely.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import ClassVar, Iterable

import numpy as np

__all__ = [
    "PlantSpec",
    "AttackSpec",
    "PlantState",
    "TraceStep",
    "SimulationFault",
    "default_spec",
    "transition",
    "observation",
    "simulate_step",
    "inject_attack",
    "generate_trace",
    "trace_to_csv",
    "trace_from_csv",
]

ATTACK_KINDS = ("bias", "variance_scale", "replay")


class SimulationFault(RuntimeError):
    """Raised when the state propagation produces non-finite values."""


def _check_psd(mat: np.ndarray, name: str, dim: int) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim}x{dim}, got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-10, rtol=0.0):
        raise ValueError(f"{name} must be symmetric")
    eig = np.linalg.eigvalsh(mat)
    if eig[0] < -1e-10 * max(1.0, eig[-1]):
        raise ValueError(f"{name} must be PSD, smallest eigenvalue {eig[0]:.3e}")
    return 0.5 * (mat + mat.T)


@dataclass(frozen=True)
class PlantSpec:
    """Plant step, noise covariances, and nonlinearity parameters."""

    m: ClassVar[int] = 2
    d: ClassVar[int] = 3
    dt: float = 0.1
    process_cov: np.ndarray = field(default_factory=lambda: 1e-4 * np.eye(2))
    measurement_cov: np.ndarray = field(default_factory=lambda: 1e-2 * np.eye(3))
    a: float = 1.0
    b: float = 0.5

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        object.__setattr__(self, "process_cov", _check_psd(self.process_cov, "process_cov", self.m))
        object.__setattr__(
            self, "measurement_cov", _check_psd(self.measurement_cov, "measurement_cov", self.d)
        )


def default_spec(**overrides) -> PlantSpec:
    """The reference plant: dt=0.1, a=1.0, b=0.5, Q=1e-4 I, R=1e-2 I."""
    return PlantSpec(**overrides)


@dataclass(frozen=True)
class AttackSpec:
    """A sensor-level attack over an inclusive step window.

    kind:
        bias           add ``magnitude`` to target components
        variance_scale scale the deviation from the last clean measurement
                       by ``magnitude`` on target components
        replay         substitute the last pre-window clean measurement
    """

    kind: str
    targets: frozenset[int]
    magnitude: float
    t_start: int
    t_end: int

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}, expected one of {ATTACK_KINDS}")
        if not self.targets:
            raise ValueError("attack target set must be nonempty")
        object.__setattr__(self, "targets", frozenset(int(i) for i in self.targets))
        if self.t_start > self.t_end:
            raise ValueError(f"t_start {self.t_start} > t_end {self.t_end}")
        if not np.isfinite(self.magnitude):
            raise ValueError("attack magnitude must be finite")

    def active(self, t: int) -> bool:
        return self.t_start <= t <= self.t_end


@dataclass(frozen=True)
class PlantState:
    t: int
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("plant state must be finite")
        object.__setattr__(self, "x", x)


@dataclass(frozen=True)
class TraceStep:
    t: int
    x: np.ndarray
    y: np.ndarray


def transition(x: np.ndarray, u: float, spec: PlantSpec) -> np.ndarray:
    """Noiseless state transition g(x, u)."""
    x1, x2 = x
    return np.array(
        [
            x1 + spec.dt * x2,
            x2 + spec.dt * (-spec.a * np.sin(x1) - spec.b * x2 + u),
        ]
    )


def observation(x: np.ndarray, spec: PlantSpec) -> np.ndarray:
    """Noiseless observation h(x)."""
    x1, x2 = x
    return np.array([x1, x2, np.sin(x1) + 0.5 * x2])


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(mat)
    return (vec * np.sqrt(np.maximum(lam, 0.0))) @ vec.T


def simulate_step(
    state: PlantState,
    u: float,
    spec: PlantSpec,
    rng: np.random.Generator,
    q_sqrt: np.ndarray | None = None,
    r_sqrt: np.ndarray | None = None,
) -> tuple[PlantState, np.ndarray]:
    """One plant step: x' = g(x,u) + v, y = h(x') + w.

    ``q_sqrt`` / ``r_sqrt`` are optional precomputed PSD square roots of the
    noise covariances (an optimization for long traces).

    Raises:
        SimulationFault: the propagated state is non-finite.
    """
    if q_sqrt is None:
        q_sqrt = _psd_sqrt(spec.process_cov)
    if r_sqrt is None:
        r_sqrt = _psd_sqrt(spec.measurement_cov)
    v = q_sqrt @ rng.standard_normal(spec.m)
    x_next = transition(state.x, u, spec) + v
    if not np.all(np.isfinite(x_next)):
        raise SimulationFault(f"state diverged at step {state.t + 1}: {x_next}")
    w = r_sqrt @ rng.standard_normal(spec.d)
    y = observation(x_next, spec) + w
    return PlantState(t=state.t + 1, x=x_next), y


def inject_attack(
    y: np.ndarray, attack: AttackSpec, t: int, last_clean_y: np.ndarray
) -> np.ndarray:
    """Apply the attack to a measurement; identity outside the window.

    ``last_clean_y`` is the most recent clean measurement (frozen at window
    entry by generate_trace); it is the replay source and the deviation
    center for variance scaling.
    """
    y = np.asarray(y, dtype=float)
    if not attack.active(t):
        return y.copy()
    out = y.copy()
    idx = sorted(attack.targets)
    if max(idx) >= len(y):
        raise ValueError(f"attack targets {idx} out of range for d={len(y)}")
    if attack.kind == "bias":
        out[idx] += attack.magnitude
    elif attack.kind == "variance_scale":
        center = np.asarray(last_clean_y, dtype=float)
        out[idx] = center[idx] + attack.magnitude * (y[idx] - center[idx])
    else:  # replay
        out[idx] = np.asarray(last_clean_y, dtype=float)[idx]
    return out


def generate_trace(
    spec: PlantSpec,
    attack: AttackSpec | None,
    n_steps: int,
    seed: int,
    x0: np.ndarray | None = None,
) -> list[TraceStep]:
    """Simulate n_steps of the plant at u = 0; deterministic given the seed.

    The attack is applied post-measurement. Steps are numbered 1..n_steps
    (step 0 is the initial state, not emitted).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rng = np.random.default_rng(seed)
    state = PlantState(t=0, x=np.zeros(spec.m) if x0 is None else np.asarray(x0, dtype=float))
    q_sqrt = _psd_sqrt(spec.process_cov)
    r_sqrt = _psd_sqrt(spec.measurement_cov)
    last_clean = observation(state.x, spec)
    steps: list[TraceStep] = []
    for _ in range(n_steps):
        state, y_clean = simulate_step(state, 0.0, spec, rng, q_sqrt, r_sqrt)
        if attack is not None:
            y = inject_attack(y_clean, attack, state.t, last_clean)
            if not attack.active(state.t):
                last_clean = y_clean
        else:
            y = y_clean
            last_clean = y_clean
        steps.append(TraceStep(t=state.t, x=state.x, y=y))
    return steps


def trace_to_csv(steps: Iterable[TraceStep], fh: io.TextIOBase) -> None:
    """Write a trace as CSV with header t,x1..xm,y1..yd (LF line endings)."""
    steps = list(steps)
    if not steps:
        raise ValueError("empty trace")
    m, d = len(steps[0].x), len(steps[0].y)
    cols = ["t"] + [f"x{i + 1}" for i in range(m)] + [f"y{i + 1}" for i in range(d)]
    fh.write(",".join(cols) + "\n")
    for s in steps:
        vals = [str(s.t)] + [format(v, ".17g") for v in s.x] + [format(v, ".17g") for v in s.y]
        fh.write(",".join(vals) + "\n")


def trace_from_csv(fh: io.TextIOBase) -> list[TraceStep]:
    """Read a trace written by trace_to_csv."""
    header = fh.readline().strip().split(",")
    if not header or header[0] != "t":
        raise ValueError(f"bad trace header: {header}")
    m = sum(1 for c in header if c.startswith("x"))
    d = sum(1 for c in header if c.startswith("y"))
    steps = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 1 + m + d:
            raise ValueError(f"row {lineno}: expected {1 + m + d} fields, got {len(parts)}")
        t = int(parts[0])
        x = np.array([float(v) for v in parts[1 : 1 + m]])
        y = np.array([float(v) for v in parts[1 + m :]])
        steps.append(TraceStep(t=t, x=x, y=y))
    return steps
