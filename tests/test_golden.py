"""Golden bytes: the committed ``run_pipeline`` lines of ``tests/data``.

Each ``golden_<name>.params`` file is regenerated into its lines by
``tests/data/regenerate.py`` and compared with ``golden_<name>.txt`` line for
line; the socket harness must log the same records. LAPACK builds can differ
in the last bits, so the files pin the platform that wrote them.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from dpalarm.config import parse_params_text
from dpalarm.netsvc import HarnessConfig, run_harness

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location("regenerate", DATA / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _floats(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from _floats(value)


def _largest_deviation(golden: list[str], now: list[str]) -> tuple[float, int]:
    """The largest relative deviation between paired floats, and its line (1-based)."""
    worst, where = 0.0, 0
    for i, (a, b) in enumerate(zip(golden, now), start=1):
        try:
            pairs = list(zip(_floats(json.loads(a)), _floats(json.loads(b))))
        except ValueError:  # not a JSON line (the params_hash one)
            continue
        for x, y in pairs:
            dev = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
            if dev > worst or math.isnan(dev):
                worst, where = dev, i
    return worst, where


def _golden(name: str) -> list[str]:
    return (DATA / f"golden_{name}.txt").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("name", sorted(regenerate.SETTINGS))
def test_run_pipeline_lines_match_golden(name):
    golden = _golden(name)
    now = regenerate.golden_lines((DATA / f"golden_{name}.params").read_text(encoding="utf-8"))
    if now != golden:
        i = next((k for k, (a, b) in enumerate(zip(golden, now)) if a != b), min(len(golden), len(now)))
        dev, where = _largest_deviation(golden, now)
        pytest.fail(
            f"golden_{name}.txt: first differing line {i + 1} of {len(golden)} (now {len(now)} lines)\n"
            f"  golden: {golden[i] if i < len(golden) else '<none>'}\n"
            f"  now:    {now[i] if i < len(now) else '<none>'}\n"
            f"largest float deviation {dev:.3e} (relative), at line {where}"
        )


@pytest.mark.parametrize("mode", regenerate.MODES)
def test_harness_logs_the_pipeline_records(tmp_path, mode):
    # the socket path (J=1) receives and answers exactly the in-process lines:
    # the golden file holds each mode's handshake, then tuple/verdict pairs
    block = 1 + 2 * regenerate.N_EPOCHS
    start = 1 + block * regenerate.MODES.index(mode)
    expected = [
        ("RX" if k == 0 or k % 2 else "TX", line)
        for k, line in enumerate(_golden("reference")[start : start + block])
    ]
    params, scenario = parse_params_text((DATA / "golden_reference.params").read_text(encoding="utf-8"))
    config = HarnessConfig(
        n_utilities=1, n_epochs=regenerate.N_EPOCHS, params=params, scenario=scenario,
        mode=mode, master_seed=regenerate.SEED,
    )
    audit = tmp_path / "audit.log"
    assert not run_harness(config, audit).partial
    logged = [tuple(line.split(" ", 2)[1:]) for line in audit.read_text(encoding="utf-8").splitlines()]
    assert logged == expected
