"""Nonlinear plant simulator with injectable sensor attacks.

The fixed plant is a damped pendulum-like system with m = 2 states and d = 3
sensors (class constants of ``PlantSpec``):

    x1' = x1 + dt * x2
    x2' = x2 + dt * (-a*sin(x1) - b*x2)
    y   = [x1, x2, sin(x1) + 0.5*x2]

The plant has no control input. Process noise N(0, q_scale I) enters the
transition, measurement noise N(0, r_scale I) the observation; the two scales
are the plant's only noise settings, as they are the params file's
(``q_scale``, ``r_scale``). Attacks modify measurements only (sensor-level
false data injection); plant state is never touched.

Everything here is a pure function of explicit state plus a seeded rng, so
independent traces can run in parallel freely.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable

import numpy as np

__all__ = [
    "PlantSpec",
    "AttackSpec",
    "TraceStep",
    "SimulationFault",
    "default_spec",
    "transition",
    "observation",
    "inject_attack",
    "generate_trace",
    "trace_to_csv",
]

ATTACK_KINDS = ("bias", "variance_scale", "replay")


class SimulationFault(RuntimeError):
    """Raised when the state propagation produces non-finite values."""


@dataclass(frozen=True)
class PlantSpec:
    """Plant step, noise scales, and nonlinearity parameters.

    ``process_cov`` (Q) and ``measurement_cov`` (R) are ``q_scale`` and
    ``r_scale`` times the identity, built once.
    """

    m: ClassVar[int] = 2
    d: ClassVar[int] = 3
    dt: float = 0.1
    q_scale: float = 1e-4
    r_scale: float = 1e-2
    a: float = 1.0
    b: float = 0.5
    process_cov: np.ndarray = field(init=False, repr=False, compare=False)
    measurement_cov: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        for name in ("q_scale", "r_scale"):
            if not 0.0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "process_cov", self.q_scale * np.eye(self.m))
        object.__setattr__(self, "measurement_cov", self.r_scale * np.eye(self.d))


def default_spec(**overrides) -> PlantSpec:
    """The reference plant: dt=0.1, a=1.0, b=0.5, q_scale=1e-4, r_scale=1e-2."""
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
class TraceStep:
    t: int
    x: np.ndarray
    y: np.ndarray


def transition(x: np.ndarray, spec: PlantSpec) -> np.ndarray:
    """Noiseless state transition g(x)."""
    x1, x2 = x
    return np.array(
        [
            x1 + spec.dt * x2,
            x2 + spec.dt * (-spec.a * np.sin(x1) - spec.b * x2),
        ]
    )


def observation(x: np.ndarray, spec: PlantSpec) -> np.ndarray:
    """Noiseless observation h(x)."""
    x1, x2 = x
    return np.array([x1, x2, np.sin(x1) + 0.5 * x2])


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
    """Simulate n_steps of the plant; deterministic given the seed.

    Each step is x' = g(x) + v, y = h(x') + w; the attack is applied to y.
    Steps are numbered 1..n_steps (step 0 is the initial state, not emitted).

    Raises:
        SimulationFault: the propagated state is non-finite.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    rng = np.random.default_rng(seed)
    x = np.zeros(spec.m) if x0 is None else np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("initial state must be finite")
    q_sqrt = math.sqrt(spec.q_scale)
    r_sqrt = math.sqrt(spec.r_scale)
    last_clean = observation(x, spec)
    steps: list[TraceStep] = []
    for t in range(1, n_steps + 1):
        x = transition(x, spec) + q_sqrt * rng.standard_normal(spec.m)
        if not np.all(np.isfinite(x)):
            raise SimulationFault(f"state diverged at step {t}: {x}")
        y_clean = observation(x, spec) + r_sqrt * rng.standard_normal(spec.d)
        if attack is not None:
            y = inject_attack(y_clean, attack, t, last_clean)
            if not attack.active(t):
                last_clean = y_clean
        else:
            y = y_clean
            last_clean = y_clean
        steps.append(TraceStep(t=t, x=x, y=y))
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
