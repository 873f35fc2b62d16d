"""Property tests of the wire decoder and the regulator's verification.

Whatever line arrives, ``decode_record`` returns a typed record that encodes
again, or raises ``ProtocolError``; ``RegulatorSession.verify`` returns a
verdict for every decoded tuple. Runs are derandomized and bounded, so the
suite stays deterministic and fast.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpalarm.config import reference_params
from dpalarm.protocol import (
    CrTuple,
    Handshake,
    ProtocolError,
    PvTuple,
    RegulatorSession,
    Verdict,
    decode_record,
    encode_record,
)

FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# valid records, as the dicts that mutations start from
HANDSHAKES = {
    mode: Handshake(uid="u", mode=mode, d=3, p=3, epoch_len=10, params=reference_params())
    for mode in ("cr", "pv")
}
BASES = [
    json.loads(encode_record(rec))
    for rec in (
        HANDSHAKES["cr"],
        HANDSHAKES["pv"],
        CrTuple(uid="u", w=0, s_hat=np.diag([2.0, 1.0, 0.5]), tau_rg=np.array([0.3, -1.0, 2.0]),
                threshold=7.8, rho=0),
        PvTuple(uid="u", w=1, t_res=3.5, t_cov=0.25, alpha_hat=0.05, rho=1),
        Verdict(uid="u", w=2, rho_hat=1, matched=True, pvalue=0.01, reason="x"),
    )
]
FIELDS = sorted({key for base in BASES for key in base})
PARAM_FIELDS = sorted(BASES[0]["params"])

numbers = st.one_of(
    st.integers(),
    st.integers(min_value=10**300, max_value=10**400),  # beyond float range
    st.floats(),  # NaN and infinities serialize as NaN / Infinity
    st.sampled_from([0.0, -0.0, 1e-320, 1e12, 1e300, -1e300]),
)
scalars = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=8))
values = st.one_of(
    st.lists(numbers, min_size=1, max_size=16),
    st.recursive(
        scalars,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
        max_leaves=12,
    ),
)


@st.composite
def mutated_records(draw, bases=BASES):
    """A valid record with a few fields (params fields too) dropped or replaced."""
    rec = json.loads(json.dumps(draw(st.sampled_from(bases))))
    for _ in range(draw(st.integers(0, 4))):
        target = rec
        key = draw(st.sampled_from(FIELDS + ["params." + k for k in PARAM_FIELDS]))
        if key.startswith("params."):
            if not isinstance(rec.get("params"), dict):
                continue
            target, key = rec["params"], key[len("params."):]
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(values)
    return rec


def decode_or_none(line):
    """The decoded record, or None for a ProtocolError; any other exception fails."""
    try:
        rec = decode_record(line)
    except ProtocolError:
        return None
    assert isinstance(rec, (Handshake, CrTuple, PvTuple, Verdict))
    encode_record(rec)  # a decoded record always encodes again
    return rec


def as_line(rec, as_bytes):
    line = json.dumps(rec)
    return line.encode() if as_bytes else line


@FUZZ
@given(st.one_of(st.text(max_size=300), st.binary(max_size=300)))
def test_any_line_decodes_or_raises_protocol_error(line):
    decode_or_none(line)


@FUZZ
@given(mutated_records(), st.booleans())
def test_mutated_record_decodes_or_raises_protocol_error(rec, as_bytes):
    decode_or_none(as_line(rec, as_bytes))


tuples = st.one_of(
    st.fixed_dictionaries({
        "v": st.just(1), "mode": st.just("cr"), "uid": st.just("u"), "w": st.integers(),
        "s_hat": st.lists(numbers, min_size=9, max_size=9) | st.lists(numbers, max_size=16),
        "tau_rg": st.lists(numbers, min_size=3, max_size=3) | st.lists(numbers, max_size=4),
        "thr": numbers, "rho": st.integers(0, 1),
    }),
    st.fixed_dictionaries({
        "v": st.just(1), "mode": st.just("pv"), "uid": st.just("u"), "w": st.integers(),
        "t_res": numbers, "t_cov": numbers, "alpha_hat": numbers, "rho": st.integers(0, 1),
    }),
    mutated_records(BASES[2:4]),
)


@st.composite
def handshakes(draw):
    """A decodable handshake of either mode with any dimensions, huge ones too."""
    rec = json.loads(json.dumps(draw(st.sampled_from(BASES[:2]))))
    rec["p"] = draw(st.integers(1, 4) | st.integers(1, 10**400))
    rec["d"] = rec["p"] + draw(st.integers(0, 2))
    return decode_record(json.dumps(rec))


@FUZZ
@given(tuples, handshakes())
def test_verify_never_raises_on_a_decoded_tuple(tup_rec, hs):
    tup = decode_or_none(as_line(tup_rec, False))
    if not isinstance(tup, (CrTuple, PvTuple)):
        return
    for handshake in (HANDSHAKES["cr"], HANDSHAKES["pv"], hs):
        session = RegulatorSession(handshake)
        for _ in range(2):  # the second is a duplicate, or a retry of a rejection
            verdict = session.verify(tup)
            assert isinstance(verdict, Verdict)
            assert isinstance(decode_record(encode_record(verdict)), Verdict)
