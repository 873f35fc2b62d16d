"""Scenario configuration and the flat key=value params file format.

A params file carries the privacy parameters plus the plant/attack settings a
utility client needs, one ``key=value`` per line; '#' starts a comment. The
same format is the normative CLI interface for ``--params``.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field, replace

from .plant import AttackSpec, PlantSpec, default_spec
from .privacy import PARAM_KEYS, PrivacyParams

__all__ = [
    "ScenarioConfig",
    "default_scenario",
    "reference_params",
    "parse_params_text",
    "format_params_text",
    "params_hash",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Plant + attack + epoching settings for one experiment run."""

    plant: PlantSpec = field(default_factory=default_spec)
    attack: AttackSpec | None = None
    epoch_len: int = 10
    alpha: float = 0.05
    p: int = 3
    warmup_steps: int = 100

    @property
    def epoch_seconds(self) -> float:
        return self.epoch_len * self.plant.dt

    def with_attack(self, attack: AttackSpec | None) -> "ScenarioConfig":
        return replace(self, attack=attack)


def default_scenario(**overrides) -> ScenarioConfig:
    return ScenarioConfig(**overrides)


def reference_params(
    eps_cov: float = 100.0,
    eps_r: float = 1e-3,
    gamma_cov: float = 1e-2,
    gamma_r: float = 1e-2,
    delta_l: float = 0.1,
    delta_r: float = 50.0,
    p: int = 3,
    **kw,
) -> PrivacyParams:
    """Reference parameter set used by the evaluation runs."""
    return PrivacyParams(
        eps_cov=eps_cov,
        eps_r=eps_r,
        gamma_cov=gamma_cov,
        gamma_r=gamma_r,
        delta_l=delta_l,
        delta_r=delta_r,
        p=p,
        **kw,
    )


def format_params_text(params: PrivacyParams, scenario: ScenarioConfig) -> str:
    """Render params + scenario as flat key=value lines."""
    flat = params.to_flat()
    flat["eps_r_waiver"] = int(params.eps_r_waiver)
    lines = [f"{k}={v}" for k, v in flat.items()]
    sp = scenario.plant
    lines += [
        f"dt={sp.dt}",
        f"plant_a={sp.a}",
        f"plant_b={sp.b}",
        f"q_scale={float(sp.q_scale)}",
        f"r_scale={float(sp.r_scale)}",
        f"epoch_len={scenario.epoch_len}",
        f"alpha={scenario.alpha}",
        f"warmup_steps={scenario.warmup_steps}",
    ]
    if scenario.attack is not None:
        at = scenario.attack
        lines += [
            f"attack_kind={at.kind}",
            "attack_targets=" + ",".join(str(i) for i in sorted(at.targets)),
            f"attack_magnitude={at.magnitude}",
            f"attack_t_start={at.t_start}",
            f"attack_t_end={at.t_end}",
        ]
    return "\n".join(lines) + "\n"


def parse_params_text(text: str) -> tuple[PrivacyParams, ScenarioConfig]:
    """Parse the flat key=value format back into (params, scenario)."""
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"params line {lineno}: expected key=value, got {raw!r}")
        k, v = line.split("=", 1)
        kv[k.strip()] = v.strip()

    def need(key: str, default: float | None = None) -> str | float:
        if default is None and key not in kv:
            raise ValueError(f"params file missing required key {key!r}")
        return kv.get(key, default)

    def fget(key: str, default: float | None = None) -> float:
        return float(need(key, default))

    def iget(key: str, default: int | None = None) -> int:
        value = fget(key, default)
        if not float(value).is_integer():
            raise ValueError(f"params key {key!r} must be a whole number, got {kv[key]!r}")
        return int(value)

    flat = {key: fget(key) if kind is float else iget(key)
            for key, kind in PARAM_KEYS if key in kv or key != "sigma"}
    params = PrivacyParams(**flat, eps_r_waiver=bool(iget("eps_r_waiver", 0)))
    plant = default_spec(
        dt=fget("dt", 0.1),
        a=fget("plant_a", 1.0),
        b=fget("plant_b", 0.5),
        q_scale=fget("q_scale", 1e-4),
        r_scale=fget("r_scale", 1e-2),
    )
    attack = None
    if "attack_kind" in kv:
        targets = need("attack_targets")
        try:
            target_set = frozenset(int(i) for i in targets.split(","))
        except ValueError:
            raise ValueError(f"params key 'attack_targets' must list integers, got {targets!r}") from None
        attack = AttackSpec(
            kind=kv["attack_kind"],
            targets=target_set,
            magnitude=fget("attack_magnitude"),
            t_start=iget("attack_t_start"),
            t_end=iget("attack_t_end"),
        )
    scenario = ScenarioConfig(
        plant=plant,
        attack=attack,
        epoch_len=iget("epoch_len", 10),
        alpha=fget("alpha", 0.05),
        p=params.p,
        warmup_steps=iget("warmup_steps", 100),
    )
    return params, scenario


def params_hash(params: PrivacyParams, scenario: ScenarioConfig) -> str:
    """Short content hash for experiment output headers."""
    text = format_params_text(params, scenario)
    return hashlib.sha256(text.encode()).hexdigest()[:12]
