"""Rewrite the golden ``run_pipeline`` files in this directory.

Each setting is a params file, ``golden_<name>.params``, and the lines it
gives, ``golden_<name>.txt``: first ``params_hash=<hash>``, then, for CR and
then PV, the handshake and each epoch's tuple and verdict line as
``encode_record`` writes them, for ``N_EPOCHS`` epochs at ``SEED``.
``tests/test_golden.py`` regenerates the lines from the params file and
compares them line for line.

Run from the repository root, into this directory or another one:

    PYTHONPATH=src python tests/data/regenerate.py [OUT_DIR]

The settings are key overrides of the reference params file, so this script
builds them through ``parse_params_text`` alone. A change that rewrites a
golden file says which one, and why, in CHANGES.md.
"""

from __future__ import annotations

import sys
from pathlib import Path

from dpalarm.config import default_scenario, format_params_text, params_hash, parse_params_text, reference_params
from dpalarm.pipeline import run_pipeline
from dpalarm.protocol import encode_record

SEED = 7
N_EPOCHS = 300
MODES = ("cr", "pv")
# params-file keys over the reference file; None drops the key. "alarm" has a
# small sigma, so DP alarms fire, and plant noise other than the default.
SETTINGS = {
    "reference": {},
    "alarm": {
        "eps_r": "1", "delta_r": "1.51", "eps_r_waiver": "1", "sigma": None,
        "q_scale": "3e-4", "r_scale": "2e-2",
    },
}


def setting_text(overrides: dict[str, str | None]) -> str:
    """The reference params file with ``overrides`` applied, in canonical form."""
    kv = dict(
        line.split("=", 1)
        for line in format_params_text(reference_params(), default_scenario()).splitlines()
    )
    kv.update(overrides)
    text = "".join(f"{k}={v}\n" for k, v in kv.items() if v is not None)
    return format_params_text(*parse_params_text(text))


def golden_lines(params_text: str) -> list[str]:
    """``params_hash=...``, then each mode's handshake, tuple and verdict lines."""
    params, scenario = parse_params_text(params_text)
    lines = [f"params_hash={params_hash(params, scenario)}"]
    for mode in MODES:
        epochs, session = run_pipeline(scenario, params, N_EPOCHS, seed=SEED, mode=mode)
        lines.append(encode_record(session.handshake()))
        for ep in epochs:
            lines += [encode_record(ep.result.tuple_obj), encode_record(ep.verdict)]
    return lines


def main(out_dir: Path) -> None:
    for name, overrides in SETTINGS.items():
        text = setting_text(overrides)
        (out_dir / f"golden_{name}.params").write_text(text, encoding="utf-8")
        lines = golden_lines(text)
        (out_dir / f"golden_{name}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent)
