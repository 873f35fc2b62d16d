"""Epoch aggregation, utility/regulator verification, and the wire format.

A utility session aggregates W filter steps into an epoch, raises its local
(non-DP) alarm, runs the two-phase disclosure, and emits one tuple per epoch
in one of two mutually exclusive modes fixed at handshake:

  * CR (critical region): the tuple carries the perturbed covariance, the
    regulator-frame residual, and a pre-multiplied threshold; the regulator
    independently recomputes the DP statistic and compares.
  * PV (p-value): the tuple carries both scaled statistics and the equivalent
    significance level; the regulator rebuilds the statistic's law and checks
    the alarm via its quantile / p-value.

Scaled-statistic convention, normative on the wire: PV statistics are
||tau/sigma||^2; the CR threshold field is sigma^2 * (upper-alpha_hat quantile
of the scaled law), so the regulator compares the unscaled ||tau_res_hat||^2
directly against it.

Records are newline-delimited UTF-8 JSON objects, floats serialized with 17
significant digits (round-trip exact for 64-bit floats). Unknown fields are
ignored for forward compatibility; malformed records raise ProtocolError with
the offending field path.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import AlphaInversion, BoundInputs, NormTracker, equivalent_alpha
from .ekf import ResidualRecord
from .privacy import PARAM_KEYS, PrivacyParams, sequential_disclose
from .stats import (
    chi2_test,
    eig_factorize,
    noncentral_chi2_cdf,
    noncentral_chi2_quantile,
    whiten,
    whitened_energies,
)

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "EpochAggregate",
    "CrTuple",
    "PvTuple",
    "Verdict",
    "Handshake",
    "aggregate_epoch",
    "UtilitySession",
    "verify_cr_stack",
    "verify_cr",
    "verify_pv",
    "RegulatorSession",
    "Regulator",
    "encode_record",
    "decode_record",
]

PROTOCOL_VERSION = 1
ALPHA_RECOMPUTE_DRIFT = 0.10  # refresh alpha_hat when tau_max norm moves >10%
TRACKER_WINDOW = 50  # epochs the window maxima and the energy median look back
# Most accepted epoch indices a regulator session holds outside its contiguous
# run; a tuple that would hold one more is rejected.
MAX_OUT_OF_ORDER = 1024


class ProtocolError(ValueError):
    """Malformed record, schema violation, or non-finite wire value."""


@dataclass(frozen=True, slots=True)
class EpochAggregate:
    """Sums of one epoch's residuals/covariances plus the local alarm."""

    w: int
    r_w: np.ndarray
    s_w: np.ndarray
    rho: int
    n_steps: int
    t_stat: float


def aggregate_epoch(
    records: Sequence[ResidualRecord],
    w: int,
    alpha: float,
    p: int,
) -> EpochAggregate:
    """Sum W contiguous records and raise the local chi-square alarm.

    Raises:
        ValueError: empty epoch or a gap in the step index sequence.
    """
    if not records:
        raise ValueError("epoch must contain at least one record")
    ts = [rec.t for rec in records]
    for prev, cur in zip(ts, ts[1:]):
        if cur != prev + 1:
            raise ValueError(f"gap in step sequence: {prev} -> {cur}")
    r_w = np.sum([rec.r for rec in records], axis=0)
    s_w = np.sum([rec.s for rec in records], axis=0)
    fac = eig_factorize(s_w, count=p)
    outcome = chi2_test(whiten(r_w, fac), alpha)
    return EpochAggregate(
        w=w,
        r_w=r_w,
        s_w=0.5 * (s_w + s_w.T),
        rho=outcome.rho,
        n_steps=len(records),
        t_stat=outcome.t_stat,
    )


@dataclass(frozen=True, slots=True)
class CrTuple:
    uid: str
    w: int
    s_hat: np.ndarray  # (d, d)
    tau_rg: np.ndarray  # (d,)
    threshold: float  # sigma^2-premultiplied scaled quantile
    rho: int


@dataclass(frozen=True, slots=True)
class PvTuple:
    uid: str
    w: int
    t_res: float  # ||tau_res_hat / sigma||^2
    t_cov: float  # ||tau_cov_hat / sigma||^2
    alpha_hat: float
    rho: int


@dataclass(frozen=True, slots=True)
class Verdict:
    uid: str
    w: int
    rho_hat: int
    matched: bool
    pvalue: float | None = None
    reason: str | None = None
    t_res_hat: float | None = None
    threshold: float | None = None

    @property
    def rejected(self) -> bool:
        return self.reason is not None

    @classmethod
    def rejection(cls, tup: CrTuple | PvTuple, reason: str) -> Verdict:
        """The verdict that rejects ``tup`` for ``reason``."""
        return cls(uid=tup.uid, w=tup.w, rho_hat=0, matched=False, reason=reason)


@dataclass(frozen=True)
class Handshake:
    uid: str
    mode: str  # "cr" | "pv"
    d: int
    epoch_len: int
    params: PrivacyParams  # the wire's top-level "p" is params.p


@dataclass(slots=True)
class EpochResult:
    """Utility-side record of one disclosed epoch (for summaries/experiments)."""

    w: int
    rho: int
    rho_hat_local: int  # the utility's own evaluation of the DP alarm
    t_stat: float
    t_res_scaled: float
    t_cov_scaled: float
    alpha_hat: float
    threshold: float  # premultiplied CR threshold
    tuple_obj: object = None


class UtilitySession:
    """Per-utility disclosure state machine (one of the two modes, fixed).

    Owns the trackers, the alpha_hat cache, and the session rng. Disclosure
    never writes back into filter or plant state; it only consumes epoch
    aggregates.
    """

    def __init__(
        self,
        uid: str,
        mode: str,
        params: PrivacyParams,
        d: int,
        alpha: float,
        rng: np.random.Generator,
        epoch_len: int = 1,
    ):
        if mode not in ("cr", "pv"):
            raise ValueError(f"mode must be 'cr' or 'pv', got {mode!r}")
        self.uid = uid
        self.epoch_len = int(epoch_len)
        self.mode = mode
        self.params = params
        self.d = d
        self.alpha = float(alpha)
        self.rng = rng
        self.tau_tracker = NormTracker(TRACKER_WINDOW)
        self.r_tracker = NormTracker(TRACKER_WINDOW)
        self._energy_window: deque[float] = deque(maxlen=TRACKER_WINDOW)
        self._alpha_cache_norm: float = 0.0
        self.last_inputs: BoundInputs | None = None
        self.last_inversion: AlphaInversion | None = None

    def handshake(self) -> Handshake:
        return Handshake(
            uid=self.uid,
            mode=self.mode,
            d=self.d,
            epoch_len=self.epoch_len,
            params=self.params,
        )

    def _representative_inputs(self, tau_max: np.ndarray, r_max: float) -> BoundInputs:
        """Inversion snapshot drawn from the trackers, not the current epoch.

        ``tau_max`` and ``r_max`` are this epoch's window maxima, read once
        per epoch by the caller.
        """
        energies = sorted(self._energy_window)
        return BoundInputs(
            tau_cov_hat=self.tau_tracker.median_vector,
            tau_cov_max=tau_max,
            res_energy=energies[(len(energies) - 1) // 2],
            r_max=r_max,
            d=self.d,
            params=self.params,
        )

    def _alpha_hat(self, tau_max: np.ndarray, r_max: float) -> AlphaInversion:
        cur_norm = self.tau_tracker.max_norm
        stale = (
            self.last_inversion is None
            or self._alpha_cache_norm <= 0.0
            or abs(cur_norm - self._alpha_cache_norm) > ALPHA_RECOMPUTE_DRIFT * self._alpha_cache_norm
        )
        if stale:
            self.last_inversion = equivalent_alpha(
                self.alpha, self._representative_inputs(tau_max, r_max)
            )
            self._alpha_cache_norm = cur_norm
        return self.last_inversion

    def process_epoch(self, agg: EpochAggregate) -> EpochResult:
        """Run the disclosure pipeline on one aggregate and build the tuple."""
        params = self.params
        disc = sequential_disclose(agg.r_w, agg.s_w, params, self.rng)
        self.tau_tracker.push(disc.tau_cov_hat)
        self.r_tracker.push(agg.r_w)
        fac_orig = eig_factorize(agg.s_w, count=params.p)
        vec_p, _ = fac_orig.retained()
        proj = vec_p.T @ agg.r_w
        res_energy = float(proj @ proj)
        self._energy_window.append(res_energy)
        tau_max = self.tau_tracker.max_vector
        r_max = self.r_tracker.max_norm

        inputs = BoundInputs(
            tau_cov_hat=disc.tau_cov_hat,
            tau_cov_max=tau_max,
            res_energy=res_energy,
            r_max=r_max,
            d=self.d,
            params=params,
        )
        inversion = self._alpha_hat(tau_max, r_max)
        alpha_hat = inversion.alpha_hat

        sigma = params.sigma
        t_cov = disc.t_cov_hat / sigma**2  # the noncentrality of t_res's law
        threshold = sigma**2 * noncentral_chi2_quantile(alpha_hat, params.p, t_cov)
        t_res = disc.t_res_hat / sigma**2
        rho_hat_local = int(disc.t_res_hat > threshold)

        if self.mode == "cr":
            tup = CrTuple(
                uid=self.uid,
                w=agg.w,
                s_hat=disc.s_hat,
                tau_rg=disc.tau_rg,
                threshold=threshold,
                rho=agg.rho,
            )
        else:
            tup = PvTuple(
                uid=self.uid,
                w=agg.w,
                t_res=t_res,
                t_cov=t_cov,
                alpha_hat=alpha_hat,
                rho=agg.rho,
            )

        self.last_inputs = inputs
        return EpochResult(
            w=agg.w,
            rho=agg.rho,
            rho_hat_local=rho_hat_local,
            t_stat=agg.t_stat,
            t_res_scaled=t_res,
            t_cov_scaled=t_cov,
            alpha_hat=alpha_hat,
            threshold=threshold,
            tuple_obj=tup,
        )


def verify_cr_stack(tuples: Sequence[CrTuple], p: int) -> list[Verdict]:
    """Critical-region verification of n tuples: refactorize, rewhiten, compare.

    One ``whitened_energies`` call computes every tuple's t_res_hat, so the
    stack shares one LAPACK call, and each verdict is the one the tuple gets
    alone. Any malformed disclosure (non-PD covariance, non-finite values)
    yields a typed rejection verdict rather than an exception; tuples whose
    arrays do not stack into one array of numbers all get its error.
    """
    try:
        if len(tuples) == 1:  # the live path: a view, not a copy through a list
            s = np.asarray(tuples[0].s_hat, dtype=float)[None]
            r = np.asarray(tuples[0].tau_rg, dtype=float)[None]
        else:
            s = np.array([tup.s_hat for tup in tuples], dtype=float)
            r = np.array([tup.tau_rg for tup in tuples], dtype=float)
        energies = whitened_energies(s, r, p)
    except ValueError as exc:  # not a stack of numbers
        energies = [exc] * len(tuples)
    verdicts = []
    for tup, t_res_hat in zip(tuples, energies):
        if isinstance(t_res_hat, ValueError):
            verdict = Verdict.rejection(tup, f"malformed disclosure: {t_res_hat}")
        else:
            rho_hat = int(t_res_hat > tup.threshold)
            # all fields by position: keywords cost a third more per verdict
            verdict = Verdict(
                tup.uid, tup.w, rho_hat, rho_hat == tup.rho, None, None, t_res_hat, tup.threshold
            )
        verdicts.append(verdict)
    return verdicts


def verify_cr(tup: CrTuple, p: int) -> Verdict:
    """Critical-region verification of one tuple: ``verify_cr_stack`` at n = 1."""
    return verify_cr_stack((tup,), p)[0]


def verify_pv(tup: PvTuple, p: int) -> Verdict:
    """P-value verification against the scaled statistic's disclosed law.

    As in verify_cr, a disclosure whose law cannot be evaluated (e.g. a
    noncentrality beyond the range of the noncentral chi-square ufuncs)
    yields a typed rejection verdict rather than an exception.
    """
    if not 0.0 < tup.alpha_hat < 1.0:
        return Verdict.rejection(tup, f"alpha_hat out of range: {tup.alpha_hat}")
    if tup.t_res < 0.0 or tup.t_cov < 0.0:
        return Verdict.rejection(tup, "negative statistic")
    try:
        threshold = noncentral_chi2_quantile(tup.alpha_hat, p, tup.t_cov)
        pvalue = 1.0 - noncentral_chi2_cdf(tup.t_res, p, tup.t_cov)
    except (ValueError, OverflowError) as exc:  # law outside the ufuncs' range
        return Verdict.rejection(tup, f"malformed disclosure: {exc}")
    rho_hat = int(tup.t_res > threshold)
    return Verdict(
        uid=tup.uid,
        w=tup.w,
        rho_hat=rho_hat,
        matched=(rho_hat == tup.rho),
        pvalue=float(pvalue),
        t_res_hat=tup.t_res,
        threshold=threshold,
    )


class RegulatorSession:
    """Per-utility verification state at the regulator.

    Stateless per tuple apart from duplicate-epoch tracking: a repeated epoch
    index yields a rejection verdict (at-most-once per (uid, w)). Accepted
    indices are held as the contiguous run [first, next) that starts at the
    first accepted index, plus the set of accepted indices outside it, so an
    in-order stream keeps O(1) state. That set holds at most
    ``MAX_OUT_OF_ORDER`` indices: a tuple that would grow it further is
    rejected. A CR tuple whose dimensions differ from the handshake's d is
    rejected too.
    """

    def __init__(self, handshake: Handshake):
        self.handshake = handshake
        self._first = 0
        self._next = 0
        self._out_of_order: set[int] = set()
        self.tuples = 0  # each gets one verdict
        self.rejections = 0  # verdicts with a reason
        self.mismatches = 0  # verified tuples whose rho_hat differs from their rho

    def _seen(self, w: int) -> bool:
        return self._first <= w < self._next or w in self._out_of_order

    def _backlog_full(self, w: int) -> bool:
        """Accepting ``w`` would grow the out-of-order set past its cap."""
        return (
            self._first != self._next
            and w != self._next
            and len(self._out_of_order) >= MAX_OUT_OF_ORDER
        )

    def _mark_seen(self, w: int) -> None:
        if self._first == self._next:  # nothing accepted yet
            self._first = self._next = w
        if w == self._next:
            self._next += 1
            while self._next in self._out_of_order:
                self._out_of_order.remove(self._next)
                self._next += 1
        else:
            self._out_of_order.add(w)

    def prepare(self, tup: CrTuple | PvTuple) -> Verdict | None:
        """The verdict ``tup`` gets once admitted that no session state can
        change: a rejection when it does not fit the handshake's mode,
        dimensions or tuple types, else ``verify_pv`` at the handshake's p;
        None for a fitting CR tuple, which ``verify_cr`` verifies."""
        hs = self.handshake
        if isinstance(tup, CrTuple):
            if hs.mode != "cr":
                reason = "mode mismatch"
            elif np.shape(tup.s_hat) != (hs.d, hs.d) or np.shape(tup.tau_rg) != (hs.d,):
                reason = (f"dimension mismatch: s_hat {np.shape(tup.s_hat)}, "
                          f"tau_rg {np.shape(tup.tau_rg)}, handshake d={hs.d}")
            else:
                return None
        elif isinstance(tup, PvTuple):
            if hs.mode == "pv":
                return verify_pv(tup, hs.params.p)
            reason = "mode mismatch"
        else:
            reason = "unknown tuple type"
        return Verdict.rejection(tup, reason)

    def verify(self, tup: CrTuple | PvTuple, verdict: Verdict | None = None) -> Verdict:
        """Admit a tuple and verify it, or reject it.

        The tuple's uid must be the handshake's: the caller files each tuple
        under its own uid's session (``Regulator`` ends a session on a foreign
        uid before this point). ``verdict`` is the one the tuple gets once past
        the duplicate and backlog checks, when the caller has it already: a
        replay prepares each tuple as it reads it and verifies a batch of CR
        tuples in one stack.
        """
        self.tuples += 1
        if self._seen(tup.w):
            verdict = Verdict.rejection(tup, "duplicate epoch index")
        elif self._backlog_full(tup.w):
            verdict = Verdict.rejection(tup, f"out-of-order backlog full: {MAX_OUT_OF_ORDER} epochs")
        elif verdict is None:
            verdict = self.prepare(tup) or verify_cr(tup, self.handshake.params.p)
        if verdict.reason is not None:
            self.rejections += 1
        else:
            self._mark_seen(tup.w)
            if not verdict.matched:
                self.mismatches += 1
        return verdict


# What ``Regulator`` makes of a line: the connection's session after it (None
# once refused or ended), the line to send back (None for an admitted
# handshake) and the audit lines, ``"RX <record>"`` and ``"TX <record>"``.
Answer = tuple[RegulatorSession | None, str | None, tuple[str, ...]]


class Regulator:
    """Which session each line belongs to, and the verdict line it gets.

    A connection's first line must be a handshake, in a mode this regulator
    allows, under a uid with no open session; it opens that uid's session.
    Each later line gets one verdict from that session, logged after the
    line. A handshake or another uid's tuple ends the session instead, and
    only the refusal is logged: replay files a logged handshake as a new
    session and a logged tuple under its own uid's open session, so either
    line would replay under another session than the live one. A closed
    session frees its uid, and a later handshake under it opens a new
    session with a new index run.

    ``open``, ``answer`` and ``refuse`` return the audit lines their answer
    logs, and ``file`` files each logged record in replay under the same
    rule. Sockets, line length, session count and timeouts are the
    transport's.
    """

    def __init__(self, mode_allow: str = "both"):
        self.mode_allow = mode_allow  # "cr" | "pv" | "both"
        self.sessions: dict[str, RegulatorSession] = {}  # uid -> its open session

    def open(self, line: str | bytes) -> Answer:
        """Admit a connection's first line, or refuse the connection."""
        try:
            hs = decode_record(line)
            if not isinstance(hs, Handshake):
                raise ProtocolError("first record must be a handshake")
            if self.mode_allow not in ("both", hs.mode):
                raise ProtocolError(f"mode {hs.mode!r} not allowed by this regulator")
            if hs.uid in self.sessions:
                raise ProtocolError(f"uid {hs.uid!r} already has an open session")
        except ProtocolError as exc:
            return self.refuse(None, str(exc))
        session = self.sessions[hs.uid] = RegulatorSession(hs)
        return session, None, ("RX " + encode_record(hs),)

    def answer(self, session: RegulatorSession, line: bytes) -> Answer:
        """Answer a line of ``session``'s connection, or end the session. The
        line is logged as read, invalid UTF-8 replaced."""
        uid = session.handshake.uid
        line = line.decode("utf-8", errors="replace")
        try:
            tup = decode_record(line)
            if isinstance(tup, Verdict):
                raise ProtocolError("unexpected verdict from client")
        except ProtocolError as exc:
            verdict = Verdict(uid, -1, 0, False, None, str(exc))
        else:
            if isinstance(tup, Handshake) or tup.uid != uid:
                reason = "duplicate handshake" if isinstance(tup, Handshake) else "uid mismatch"
                return self.refuse(session, reason)
            verdict = session.verify(tup)
        reply = encode_record(verdict)
        return session, reply, ("RX " + line, "TX " + reply)

    def refuse(self, session: RegulatorSession | None, reason: str) -> Answer:
        """End ``session`` (None: a connection before its handshake) with a
        logged verdict that answers no tuple."""
        if session is not None:
            self.close(session)
        uid = "?" if session is None else session.handshake.uid
        reply = encode_record(Verdict(uid, -1, 0, False, None, reason))
        return None, reply, ("TX " + reply,)

    def close(self, session: RegulatorSession) -> None:
        """End ``session`` and free its uid, unless a newer session holds it."""
        uid = session.handshake.uid
        if self.sessions.get(uid) is session:
            del self.sessions[uid]

    def file(self, record) -> RegulatorSession | None:
        """File a logged RX record in replay. A tuple returns its uid's open
        session, the one that answered it; a handshake opens its uid's
        session, and any other record files nowhere: both return None."""
        if isinstance(record, Handshake):
            self.sessions[record.uid] = RegulatorSession(record)
        elif isinstance(record, (CrTuple, PvTuple)):
            session = self.sessions.get(record.uid)
            if session is None:
                raise ProtocolError(f"tuple for unknown session {record.uid!r}")
            return session


# --- wire format -----------------------------------------------------------


# What ``json.dumps`` writes for a str, without its argument handling.
_fmt_str = json.encoder.encode_basestring_ascii


def _fmt_float(v: float) -> str:
    v = float(v)
    if not math.isfinite(v):
        raise ProtocolError(f"non-finite number on the wire: {v}")
    return format(v, ".17g")


def _fmt_floats(a) -> str:
    """Any array as a flat JSON array of floats, in C order."""
    return "[" + ",".join([_fmt_float(x) for x in np.asarray(a, dtype=float).ravel().tolist()]) + "]"


# One fixed-layout formatter per record type. Keys come in wire order, ints
# (bools included) as integer literals, floats with 17 significant digits;
# the bytes are the wire's, so logged records replay byte for byte.


def _handshake_line(h: Handshake) -> str:
    params = ",".join(
        f'"{key}":{_fmt_float(value) if kind is float else int(value)}'
        for (key, kind), value in zip(PARAM_KEYS, h.params.to_flat().values())
    )
    return (
        f'{{"v":{PROTOCOL_VERSION},"mode":{_fmt_str(h.mode)},"uid":{_fmt_str(h.uid)},'
        f'"d":{int(h.d)},"p":{int(h.params.p)},"W":{int(h.epoch_len)},"params":{{{params}}}}}'
    )


def _cr_line(t: CrTuple) -> str:
    return (
        f'{{"v":{PROTOCOL_VERSION},"mode":"cr","uid":{_fmt_str(t.uid)},"w":{int(t.w)},'
        f'"s_hat":{_fmt_floats(t.s_hat)},"tau_rg":{_fmt_floats(t.tau_rg)},'
        f'"thr":{_fmt_float(t.threshold)},"rho":{int(t.rho)}}}'
    )


def _pv_line(t: PvTuple) -> str:
    return (
        f'{{"v":{PROTOCOL_VERSION},"mode":"pv","uid":{_fmt_str(t.uid)},"w":{int(t.w)},'
        f'"t_res":{_fmt_float(t.t_res)},"t_cov":{_fmt_float(t.t_cov)},'
        f'"alpha_hat":{_fmt_float(t.alpha_hat)},"rho":{int(t.rho)}}}'
    )


def _verdict_line(v: Verdict) -> str:
    line = (
        f'{{"v":{PROTOCOL_VERSION},"uid":{_fmt_str(v.uid)},"w":{int(v.w)},'
        f'"rho_hat":{int(v.rho_hat)},"matched":{int(v.matched)}'
    )
    if v.pvalue is not None:
        line += f',"pvalue":{_fmt_float(v.pvalue)}'
    if v.reason is not None:
        line += f',"reason":{_fmt_str(v.reason)}'
    return line + "}"


def encode_record(obj) -> str:
    """Serialize a handshake, tuple, or verdict to one wire line (no newline)."""
    if isinstance(obj, Verdict):
        return _verdict_line(obj)
    if isinstance(obj, CrTuple):
        return _cr_line(obj)
    if isinstance(obj, PvTuple):
        return _pv_line(obj)
    if isinstance(obj, Handshake):
        return _handshake_line(obj)
    raise ProtocolError(f"cannot encode {type(obj).__name__}")


def _reject_constant(name: str):
    raise ProtocolError(f"non-finite constant on the wire: {name}")


# One decoder for every line: ``json.loads`` with a keyword builds a new one per call.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_JUST_FLOAT = {float}


def _parse_json(line: str):
    """``_DECODER.decode(line)``. A line that is one JSON value from its first
    character to its last, as every encoded record is, skips decode's two
    whitespace scans; any other line, error or not, goes through decode."""
    try:
        obj, end = _DECODER.scan_once(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, ValueError, RecursionError):
        pass
    return _DECODER.decode(line)


def _need(obj: dict, key: str, kind, path: str):
    """``obj[key]`` as ``kind``, or the ProtocolError naming ``path.key``.

    A value of exactly ``kind`` that needs no conversion (a finite float, an
    int, a str, a list of floats with a finite sum) returns at once; any other
    takes the checks below, which accept it with the same value or word the error.
    """
    try:
        val = obj[key]
    except KeyError:
        raise ProtocolError(f"{path}.{key}: missing field") from None
    if type(val) is kind:
        if kind is float:
            if math.isfinite(val):
                return val
        elif kind is list:
            # a sum of floats is finite only if every term is (one that
            # overflows takes the element checks, which accept it)
            if {*map(type, val)} == _JUST_FLOAT and math.isfinite(sum(val)):
                return val
        else:  # int or str
            return val
    if kind is float:
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ProtocolError(f"{path}.{key}: expected number, got {type(val).__name__}")
        try:
            val = float(val)
        except OverflowError:  # an integer literal beyond float range
            raise ProtocolError(f"{path}.{key}: number out of float range") from None
        if not math.isfinite(val):
            raise ProtocolError(f"{path}.{key}: non-finite number")
        return val
    if kind is int:
        if isinstance(val, bool) or not isinstance(val, int):
            raise ProtocolError(f"{path}.{key}: expected integer, got {type(val).__name__}")
        return int(val)
    if kind is str:
        if not isinstance(val, str):
            raise ProtocolError(f"{path}.{key}: expected string, got {type(val).__name__}")
        return val
    if kind is list:
        if not isinstance(val, list):
            raise ProtocolError(f"{path}.{key}: expected array, got {type(val).__name__}")
        out = []
        for i, x in enumerate(val):
            try:
                ok = not isinstance(x, bool) and isinstance(x, (int, float)) and math.isfinite(x)
            except OverflowError:  # an integer literal beyond float range
                ok = False
            if not ok:
                raise ProtocolError(f"{path}.{key}[{i}]: expected finite number")
            out.append(float(x))
        return out
    raise AssertionError(kind)


def decode_record(line: str | bytes) -> Handshake | CrTuple | PvTuple | Verdict:
    """Parse one wire line into a typed record.

    Only ProtocolError leaves this function, whatever the line holds, and a
    decoded record always re-encodes. Each field goes through ``_need`` in
    wire order, so the first bad field names the error; a field that already
    has its exact type, as the encoder writes all but integral floats, costs
    ``_need`` one type test.

    Raises:
        ProtocolError: truncated/malformed JSON (including nesting too deep
            to parse and integer literals too long to convert), bad version,
            schema violation, or numbers that are non-finite or beyond float
            range — with the offending field path.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"invalid utf-8: {exc}") from exc
    try:
        if line.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        obj = _parse_json(line)
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed record: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(f"record must be an object, got {type(obj).__name__}")
    v = _need(obj, "v", int, "record")
    if v != PROTOCOL_VERSION:
        raise ProtocolError(f"record.v: unsupported version {v}")

    # records are built positionally: keywords cost a frozen dataclass more
    if "rho_hat" in obj:  # verdict
        return Verdict(
            _need(obj, "uid", str, "verdict"),
            _need(obj, "w", int, "verdict"),
            _need(obj, "rho_hat", int, "verdict"),
            bool(_need(obj, "matched", int, "verdict")),
            _need(obj, "pvalue", float, "verdict") if "pvalue" in obj else None,
            _need(obj, "reason", str, "verdict") if "reason" in obj else None,
        )
    mode = _need(obj, "mode", str, "record")
    if mode not in ("cr", "pv"):
        raise ProtocolError(f"record.mode: unknown mode {mode!r}")
    if "params" in obj:  # handshake
        d = _need(obj, "d", int, "handshake")
        p = _need(obj, "p", int, "handshake")
        epoch_len = _need(obj, "W", int, "handshake")
        raw = obj["params"]
        if not isinstance(raw, dict):
            raise ProtocolError("handshake.params: expected object")
        flat = {key: _need(raw, key, kind, "handshake.params")
                for key, kind in PARAM_KEYS if key in raw or key != "sigma"}
        try:
            params = PrivacyParams(**flat, eps_r_waiver=True)
        except ValueError as exc:  # a value out of its range, or sigma below its minimum
            raise ProtocolError(f"handshake.params: {exc}") from exc
        if not math.isfinite(params.sigma):  # a derived sigma_min that overflows
            raise ProtocolError("handshake.params.sigma: non-finite number")
        if d < 1 or p < 1 or p > d or epoch_len < 1:
            raise ProtocolError(f"handshake: invalid dims d={d} p={p} W={epoch_len}")
        if p != params.p:
            raise ProtocolError(f"handshake.p: {p} differs from params.p={params.p}")
        return Handshake(
            uid=_need(obj, "uid", str, "handshake"),
            mode=mode,
            d=d,
            epoch_len=epoch_len,
            params=params,
        )
    if mode == "cr":
        s_flat = _need(obj, "s_hat", list, "cr")
        d = math.isqrt(len(s_flat))
        if d * d != len(s_flat) or d < 1:
            raise ProtocolError(f"cr.s_hat: length {len(s_flat)} is not a square")
        tau_rg = _need(obj, "tau_rg", list, "cr")
        if len(tau_rg) != d:
            raise ProtocolError(f"cr.tau_rg: length {len(tau_rg)} != d={d}")
        return CrTuple(
            _need(obj, "uid", str, "cr"),
            _need(obj, "w", int, "cr"),
            np.array(s_flat).reshape(d, d),
            np.array(tau_rg),
            _need(obj, "thr", float, "cr"),
            _need(obj, "rho", int, "cr"),
        )
    return PvTuple(
        _need(obj, "uid", str, "pv"),
        _need(obj, "w", int, "pv"),
        _need(obj, "t_res", float, "pv"),
        _need(obj, "t_cov", float, "pv"),
        _need(obj, "alpha_hat", float, "pv"),
        _need(obj, "rho", int, "pv"),
    )
