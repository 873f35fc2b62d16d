"""Property tests of the wire decoder and the regulator's verification.

Whatever line arrives, ``decode_record`` returns a typed record that encodes
again, or raises ``ProtocolError``, the same record or message as the
field-by-field reference decoder; ``RegulatorSession.verify`` returns a
verdict for every decoded tuple. Runs are derandomized and bounded, so the
suite stays deterministic and fast.
"""

import dataclasses
import json
import re

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpalarm.config import default_scenario, reference_params
from dpalarm.pipeline import epoch_stream, residual_stream
from dpalarm.protocol import (
    CrTuple,
    Handshake,
    ProtocolError,
    PvTuple,
    RegulatorSession,
    UtilitySession,
    Verdict,
    decode_record,
    encode_record,
    verify_cr,
    verify_pv,
)
from conftest import reference_decode_record

FUZZ = settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# valid records, as the dicts that mutations start from
HANDSHAKES = {
    mode: Handshake(uid="u", mode=mode, d=3, epoch_len=10, params=reference_params())
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
    rec["p"] = rec["params"]["p"] = draw(st.integers(1, 4) | st.integers(1, 10**400))
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


def _genuine_tuples(n_epochs=4):
    """Reference-params disclosures of a simulated utility, in both modes."""
    scenario = default_scenario()
    aggs = epoch_stream(residual_stream(scenario, n_epochs * scenario.epoch_len, 7), scenario)
    out = []
    for mode in ("cr", "pv"):
        session = UtilitySession("u", mode, reference_params(), scenario.plant.d, scenario.alpha,
                                 np.random.default_rng(7), scenario.epoch_len)
        out += [session.process_epoch(agg).tuple_obj for agg in aggs]
    return out


GENUINE = _genuine_tuples()
# "0" and "-0" (for -0.0) and "3" go on the wire as integer literals
SPECIAL = st.sampled_from([0.0, -0.0, 3.0, 1e308, -1e308, 5e-324])


@st.composite
def canonical_lines(draw):
    """The wire line of a genuine tuple, or of its verdict, with a few numbers
    replaced by special values."""
    tup = draw(st.sampled_from(GENUINE))
    if isinstance(tup, CrTuple):
        s_hat, tau_rg = tup.s_hat.ravel().copy(), tup.tau_rg.copy()
        for _ in range(draw(st.integers(0, 2))):
            arr = draw(st.sampled_from([s_hat, tau_rg]))
            arr[draw(st.integers(0, len(arr) - 1))] = draw(SPECIAL)
        thr = draw(st.just(tup.threshold) | SPECIAL)
        tup = dataclasses.replace(tup, s_hat=s_hat.reshape(tup.s_hat.shape), tau_rg=tau_rg, threshold=thr)
    else:
        tup = dataclasses.replace(tup, **{
            key: draw(st.just(getattr(tup, key)) | SPECIAL) for key in ("t_res", "t_cov", "alpha_hat")
        })
    if draw(st.booleans()):
        with np.errstate(all="ignore"):
            rec = verify_cr(tup, 3) if isinstance(tup, CrTuple) else verify_pv(tup, 3)
        if rec.pvalue is not None:
            rec = dataclasses.replace(rec, pvalue=draw(st.just(rec.pvalue) | SPECIAL))
    else:
        rec = tup
    line = encode_record(rec)
    # a float literal beyond float range: json reads it as inf
    numbers = [m for m in re.finditer(r"-?\d[\d.]*(e[-+]?\d+)?", line) if "." in m[0] or "e" in m[0]]
    if numbers and draw(st.booleans()):
        m = draw(st.sampled_from(numbers))
        line = line[: m.start()] + draw(st.sampled_from(["1e400", "-1e999"])) + line[m.end():]
    # JSON whitespace around the value, or data after it
    line = draw(st.sampled_from(["", " ", "\t\r"])) + line + draw(st.sampled_from(["", " ", "\r", " 1", "{}"]))
    return line.encode() if draw(st.booleans()) else line


def decode_outcome(decode, line):
    """The decoded record, or the ProtocolError's message."""
    try:
        return decode(line)
    except ProtocolError as exc:
        return f"ProtocolError: {exc}"


def same_record(a, b):
    """Equal records: same type, arrays bitwise equal in dtype and shape, and
    every other field of the same type and repr."""
    if type(a) is not type(b):
        return False
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            if not (isinstance(y, np.ndarray) and (x.dtype, x.shape) == (y.dtype, y.shape)
                    and x.tobytes() == y.tobytes()):
                return False
        elif type(x) is not type(y) or repr(x) != repr(y):
            return False
    return True


def assert_decodes_as_reference(line):
    got, ref = decode_outcome(decode_record, line), decode_outcome(reference_decode_record, line)
    if isinstance(ref, str):
        assert got == ref
    else:
        assert same_record(got, ref), (got, ref)


@FUZZ
@given(st.one_of(
    st.text(max_size=300),
    st.binary(max_size=300),
    st.builds(as_line, mutated_records() | tuples, st.booleans()),
))
def test_decoder_matches_reference_on_any_line(line):
    assert_decodes_as_reference(line)


def genuine_line(i, **changes):
    return encode_record(dataclasses.replace(GENUINE[i], **changes))


@FUZZ
@given(canonical_lines())
# one line for each way a field misses the decoder's exact-type early return
@example(genuine_line(0, threshold=1.0))  # "thr":1, an integer literal in a float field
@example(re.sub(r'"rho":\d', '"rho":true', genuine_line(-1)))  # a bool in an int field
@example(genuine_line(0, s_hat=GENUINE[0].s_hat + np.diag([1e308, 1e308, 0.0])))  # finite terms, sum overflows
@example(re.sub(r'"tau_rg":\[[^]]*\]', '"tau_rg":[]', genuine_line(0)))  # an empty array
def test_decoder_matches_reference_on_canonical_lines(line):
    assert_decodes_as_reference(line)
