"""Model-based test of the regulator core, driven without sockets.

A hypothesis state machine opens and closes connections under two uids, in
either mode and at p = 2 or 3, and sends their lines through one
``protocol.Regulator``: genuine CR and PV tuples with duplicate and
out-of-order epoch indices, tuples of the wrong mode or of d = 2, another
uid's tuple, a second handshake, a verdict and garbage. What the regulator
logs goes through the server's audit sink. After every step:

* replaying the audit gives exactly the live verdicts of the logged tuples,
  each the logged string itself;
* each uid has at most one open session, the one the model admitted;
* no session accepts an epoch index twice;
* no session holds more out-of-order indices than its cap (patched to 2, so
  the cap is reached).

The model predicts every answer that opens, refuses or ends a session, with
its exact reason. Runs are derandomized, as in ``test_wire_fuzz.py``.
"""

import collections
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from dpalarm import protocol
from dpalarm.config import default_scenario, reference_params
from dpalarm.netsvc import _AuditLog, replay_audit
from dpalarm.pipeline import epoch_stream, residual_stream
from dpalarm.protocol import Handshake, Regulator, UtilitySession, Verdict, decode_record, encode_record

CAP = 2  # MAX_OUT_OF_ORDER while the machine runs
UIDS = st.sampled_from(["a", "b"])
MODES = st.sampled_from(["cr", "pv"])


def _genuine_tuples(n_epochs=4):
    """Reference-params disclosures of a simulated utility, per mode."""
    scenario = default_scenario()
    aggs = epoch_stream(residual_stream(scenario, n_epochs * scenario.epoch_len, 11), scenario)
    out = {}
    for mode in ("cr", "pv"):
        session = UtilitySession("u", mode, reference_params(), scenario.plant.d, scenario.alpha,
                                 np.random.default_rng(11), scenario.epoch_len)
        out[mode] = [session.process_epoch(agg).tuple_obj for agg in aggs]
    return out


GENUINE = _genuine_tuples()
GARBAGE = [b"not json", b"[]", b"\xff\xfe", b'{"v":1,"mode":"cr"}', b""]
# reasons the machine must reach, each as a fragment of the verdict's reason
REASONS = (
    "first record must be a handshake",
    "not allowed by this regulator",
    "already has an open session",
    "unexpected verdict from client",
    "duplicate handshake",
    "uid mismatch",
    "duplicate epoch index",
    "out-of-order backlog full",
    "mode mismatch",
    "dimension mismatch",
    "malformed record",
)
reached = collections.Counter()
# one line of an open session: its kind, epoch index, genuine tuple, the p of a
# second handshake, and the garbage sent
LINES = st.tuples(
    st.sampled_from(["own"] * 8 + ["other mode", "d=2", "foreign", "handshake", "verdict", "garbage"]),
    st.integers(0, 6),
    st.integers(0, 3),
    st.sampled_from([2, 3]),
    st.sampled_from(GARBAGE),
)


def handshake_line(uid, mode, p):
    hs = Handshake(uid=uid, mode=mode, d=3, epoch_len=10, params=reference_params(p=p))
    return encode_record(hs).encode()


def tuple_line(uid, mode, w, k, d=3):
    tup = dataclasses.replace(GENUINE[mode][k % len(GENUINE[mode])], uid=uid, w=w)
    if d != 3:
        tup = dataclasses.replace(tup, s_hat=tup.s_hat[:d, :d], tau_rg=tup.tau_rg[:d])
    return encode_record(tup).encode()


def count(reason):
    for fragment in REASONS:
        if reason is not None and fragment in reason:
            reached[fragment] += 1


class RegulatorModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.TemporaryDirectory()
        self.path = Path(self.dir.name) / "audit.log"
        self.audit = _AuditLog(self.path)
        self.mode_allow = "both"
        self.regulator = Regulator()
        self.open_sessions = []  # sessions of open connections
        self.ended = []  # sessions the regulator ended, their connections not yet closed
        self.accepted = collections.defaultdict(set)  # session -> epoch indices verified
        self.logged = []  # live verdicts of the logged tuples, in log order

    def teardown(self):
        self.audit.close()
        self.dir.cleanup()

    @initialize(mode_allow=st.sampled_from(["both", "both", "cr", "pv"]))
    def start(self, mode_allow):
        self.mode_allow = mode_allow
        self.regulator = Regulator(mode_allow)

    def _refused(self, answer, uid, reason):
        session, reply, log = answer
        assert session is None and log == ("TX " + reply,)
        assert decode_record(reply) == Verdict(uid, -1, 0, False, None, reason)
        count(reason)

    @rule(
        uid=UIDS,
        mode=MODES,
        p=st.sampled_from([2, 3]),
        first=st.sampled_from(["handshake"] * 3 + ["tuple", "garbage"]),
        garbage=st.sampled_from(GARBAGE),
    )
    def connect(self, uid, mode, p, first, garbage):
        line = {
            "handshake": lambda: handshake_line(uid, mode, p),
            "tuple": lambda: tuple_line(uid, mode, p, p),
            "garbage": lambda: garbage,
        }[first]()
        answer = self.regulator.open(line)
        self.audit.append(*answer[2])
        if first == "tuple":
            self._refused(answer, "?", "first record must be a handshake")
        elif first == "garbage":  # refused with the decoder's message
            self._refused(answer, "?", decode_record(answer[1]).reason)
        elif self.mode_allow not in ("both", mode):
            self._refused(answer, "?", f"mode {mode!r} not allowed by this regulator")
        elif any(s.handshake.uid == uid for s in self.open_sessions):
            self._refused(answer, "?", f"uid {uid!r} already has an open session")
        else:
            session, reply, log = answer
            assert reply is None and log == ("RX " + line.decode(),)
            assert (session.handshake.uid, session.handshake.mode, session.handshake.params.p) == (uid, mode, p)
            self.open_sessions.append(session)

    @precondition(lambda self: self.open_sessions)
    @rule(pick=st.integers(0, 3), lines=st.lists(LINES, min_size=1, max_size=4))
    def send(self, pick, lines):
        session = self.open_sessions[pick % len(self.open_sessions)]
        for kind, w, k, p, garbage in lines:
            if not self._send(session, kind, w, k, p, garbage):
                break

    def _send(self, session, kind, w, k, p, garbage):
        """Answer one line of ``session``'s connection; False once it ended the session."""
        uid, mode = session.handshake.uid, session.handshake.mode
        other_uid = "b" if uid == "a" else "a"
        other_mode = "pv" if mode == "cr" else "cr"
        line = {
            "own": lambda: tuple_line(uid, mode, w, k),
            "other mode": lambda: tuple_line(uid, other_mode, w, k),
            "d=2": lambda: tuple_line(uid, "cr", w, k, d=2),
            "foreign": lambda: tuple_line(other_uid, mode, w, k),
            # a second handshake under either uid, in either mode
            "handshake": lambda: handshake_line((uid, other_uid)[k % 2], (mode, other_mode)[w % 2], p),
            "verdict": lambda: encode_record(Verdict(uid, w, 1, True)).encode(),
            "garbage": lambda: garbage,
        }[kind]()
        answer = self.regulator.answer(session, line)
        self.audit.append(*answer[2])
        if kind in ("foreign", "handshake"):
            self._refused(answer, uid, "uid mismatch" if kind == "foreign" else "duplicate handshake")
            self.open_sessions.remove(session)
            self.ended.append(session)
            return False
        after, reply, log = answer
        text = line.decode("utf-8", errors="replace")
        assert after is session and log == ("RX " + text, "TX " + reply)
        verdict = decode_record(reply)
        count(verdict.reason)
        if kind == "verdict":
            assert verdict == Verdict(uid, -1, 0, False, None, "unexpected verdict from client")
        elif kind == "garbage":
            assert verdict.w == -1 and verdict.rejected
        else:
            self.logged.append(reply)
            assert verdict.w == w
            if verdict.reason is None:
                assert w not in self.accepted[session], "an epoch verified twice in one session"
                self.accepted[session].add(w)
        return True

    @precondition(lambda self: self.open_sessions or self.ended)
    @rule(pick=st.integers(0, 5))
    def close(self, pick):
        pool = self.open_sessions + self.ended
        session = pool[pick % len(pool)]
        self.regulator.close(session)
        (self.open_sessions if session in self.open_sessions else self.ended).remove(session)

    @invariant()
    def one_open_session_per_uid(self):
        uids = [s.handshake.uid for s in self.open_sessions]
        assert len(set(uids)) == len(uids)
        assert self.regulator.sessions.keys() == set(uids)
        assert all(self.regulator.sessions[s.handshake.uid] is s for s in self.open_sessions)

    @invariant()
    def out_of_order_state_capped(self):
        assert all(len(s._out_of_order) <= CAP for s in self.open_sessions + self.ended)

    @invariant()
    def replay_gives_the_live_verdicts(self):
        pairs = replay_audit(self.path)
        assert [logged for logged, _ in pairs] == self.logged
        assert all(logged is replayed for logged, replayed in pairs)


def test_regulator_model(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_OUT_OF_ORDER", CAP)
    reached.clear()
    run_state_machine_as_test(RegulatorModel, settings=settings(
        derandomize=True,
        max_examples=300,
        stateful_step_count=40,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    ))
    assert {reason: reached[reason] for reason in REASONS if reached[reason] < 10} == {}
