"""In-process pipeline: plant -> filter -> epochs -> disclosure -> verdict.

The network services stream the same stages over a socket; this module wires
them directly for experiments, bound reports, and tests. Seeding is
hierarchical (master seed, utility index) so multi-utility experiments are
reproducible and mutually independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .ekf import EkfBelief, ResidualRecord, run_filter
from .plant import TraceStep, generate_trace
from .privacy import PrivacyParams
from .protocol import (
    EpochAggregate,
    EpochResult,
    RegulatorSession,
    UtilitySession,
    Verdict,
    aggregate_epoch,
)

__all__ = [
    "derive_seed",
    "simulated_stream",
    "residual_stream",
    "epoch_stream",
    "utility_session",
    "PipelineEpoch",
    "run_pipeline",
]


def derive_seed(master_seed: int, *keys: int) -> np.random.SeedSequence:
    """Independent child seed for (utility, purpose) indices."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(int(k) for k in keys))


def simulated_stream(
    scenario: ScenarioConfig, n_steps: int, seed: int, utility_index: int = 0
) -> tuple[list[TraceStep], list[ResidualRecord]]:
    """Simulate the plant and run the filter; warm-up steps are discarded.

    Returns the plant steps and the filter's residual records of the n_steps
    steps after the warm-up, one of each per step. The filter is initialized
    at the true initial state with a small prior covariance; the warm-up
    period absorbs the remaining transient before records are handed to
    epoching.
    """
    spec = scenario.plant
    total = n_steps + scenario.warmup_steps
    trace_seed = derive_seed(seed, utility_index, 0)
    trace = generate_trace(
        spec, scenario.attack, total, np.random.default_rng(trace_seed).integers(2**63)
    )
    initial = EkfBelief(x_hat=np.zeros(spec.m), cov=1e-3 * np.eye(spec.m))
    records = run_filter(trace, spec, initial)
    return trace[scenario.warmup_steps :], records[scenario.warmup_steps :]


def residual_stream(
    scenario: ScenarioConfig, n_steps: int, seed: int, utility_index: int = 0
) -> list[ResidualRecord]:
    """The residual records of ``simulated_stream``: what a utility discloses."""
    return simulated_stream(scenario, n_steps, seed, utility_index)[1]


def epoch_stream(
    records: list[ResidualRecord], scenario: ScenarioConfig
) -> list[EpochAggregate]:
    """Group records into epochs of epoch_len steps (trailing partial dropped)."""
    out = []
    w_len = scenario.epoch_len
    n_full = len(records) // w_len
    for w in range(n_full):
        chunk = records[w * w_len : (w + 1) * w_len]
        out.append(aggregate_epoch(chunk, w=w, alpha=scenario.alpha, p=scenario.p))
    return out


def utility_session(
    scenario: ScenarioConfig, params: PrivacyParams, mode: str, seed: int, utility_index: int, uid: str
) -> UtilitySession:
    """Utility ``utility_index``'s disclosure session, seeded from ``seed``:
    the same seed gives the same tuples in process and over a socket.

    Raises:
        ValueError: the scenario's p (the local alarm's dof) differs from
            params.p (the disclosed alarm's), or the mode is unknown.
    """
    if scenario.p != params.p:
        raise ValueError(f"scenario p={scenario.p} differs from params p={params.p}")
    rng = np.random.default_rng(derive_seed(seed, utility_index, 1))
    return UtilitySession(uid, mode, params, scenario.plant.d, scenario.alpha, rng, scenario.epoch_len)


@dataclass
class PipelineEpoch:
    """One epoch's utility-side result joined with the regulator verdict."""

    result: EpochResult
    verdict: Verdict
    agg: EpochAggregate

    @property
    def w(self) -> int:
        return self.result.w

    @property
    def rho(self) -> int:
        return self.result.rho

    @property
    def rho_hat(self) -> int:
        return self.verdict.rho_hat


def run_pipeline(
    scenario: ScenarioConfig,
    params: PrivacyParams,
    n_epochs: int,
    seed: int,
    mode: str = "pv",
    utility_index: int = 0,
    uid: str = "u0",
) -> tuple[list[PipelineEpoch], UtilitySession]:
    """Full loopback run of one utility against an in-process regulator.

    Raises:
        ValueError: as ``utility_session``.
    """
    session = utility_session(scenario, params, mode, seed, utility_index, uid)
    records = residual_stream(scenario, n_epochs * scenario.epoch_len, seed, utility_index)
    aggs = epoch_stream(records, scenario)[:n_epochs]
    hs = session.handshake()
    regulator = RegulatorSession(hs)
    epochs = []
    for agg in aggs:
        res = session.process_epoch(agg)
        verdict = regulator.verify(res.tuple_obj)
        epochs.append(PipelineEpoch(result=res, verdict=verdict, agg=agg))
    return epochs, session
