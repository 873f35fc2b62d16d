"""Long-running regulator and utility services over a stream transport.

Transport is a TCP stream of newline-delimited wire records (see
``protocol``): per session, one handshake line, then one tuple line per epoch
answered by one verdict line. The regulator serves up to ``MAX_SESSIONS``
independent sessions from one event loop on non-blocking sockets: each
complete line is verified and answered before the next is taken, so a
session never waits for another one's thread, and a session silent for
``IDLE_LIMIT_S`` is closed. Every received tuple and sent verdict is appended
to an audit log that can be replayed offline to reproduce the verdicts
byte-exactly.

Audit line format: ``<ISO-8601 timestamp> <RX|TX> <wire record>``.
"""

from __future__ import annotations

import logging
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .ekf import residuals_from_csv
from .pipeline import derive_seed, epoch_stream, residual_stream
from .privacy import PrivacyParams
from .protocol import (
    CrTuple,
    Handshake,
    ProtocolError,
    PvTuple,
    RegulatorSession,
    UtilitySession,
    Verdict,
    decode_record,
    encode_record,
    verify_cr_stack,
)

logger = logging.getLogger(__name__)

__all__ = [
    "RegulatorConfig",
    "RegulatorServer",
    "serve_regulator",
    "ClientSummary",
    "run_utility_client",
    "HarnessConfig",
    "ExperimentRecord",
    "run_harness",
    "replay_audit",
]

RETRY_DELAYS = (1.0, 2.0, 4.0)
# Longest record line the regulator reads, newline excluded. A CR tuple at
# d = 3 takes about 400 bytes; a longer line is rejected and its session closed.
MAX_RECORD_BYTES = 64 * 1024
# Most sessions a regulator serves at once; a connection over the cap is
# answered with a logged rejection verdict and closed.
MAX_SESSIONS = 64
# Seconds a session may pass without sending or taking a byte before it is closed.
IDLE_LIMIT_S = 120.0
# Seconds a rejected connection is kept to drain its peer's line in flight.
_LINGER_S = 2.0
# SO_SNDBUF of every accepted connection: caps the verdict bytes the kernel
# holds for a peer that does not read them (Linux doubles the value for its
# bookkeeping). Left to autotune it grows to megabytes of verdicts, verified
# for a peer that never reads them.
SEND_BUFFER_BYTES = 64 * 1024
# Tuples ``replay_audit`` reads before it verifies them: a chunk's CR tuples
# of one session share one LAPACK call, and the chunk bounds replay memory.
REPLAY_CHUNK = 1024


@dataclass
class RegulatorConfig:
    audit_path: str | Path
    mode_allow: str = "both"  # "cr" | "pv" | "both"

    def allows(self, mode: str) -> bool:
        return self.mode_allow in ("both", mode)


class _AuditLog:
    """Append-only audit sink; the event loop is its only writer."""

    def __init__(self, path: str | Path):
        # "\n" only ends a line: a tuple may hold a raw "\r" (JSON whitespace)
        self._fh = open(path, "a", encoding="utf-8", newline="\n")

    def append(self, direction: str, record: str) -> None:
        stamp = datetime.now(timezone.utc).isoformat()
        self._fh.write(f"{stamp} {direction} {record}\n")
        self._fh.flush()

    def append_pair(self, rx_record: str, tx_record: str) -> None:
        """Log a tuple and its verdict with one flush, so replay order is exact."""
        stamp = datetime.now(timezone.utc).isoformat()
        self._fh.write(f"{stamp} RX {rx_record}\n{stamp} TX {tx_record}\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


_OVERLONG = f"record longer than {MAX_RECORD_BYTES} bytes"


class _Conn:
    """One connection's socket, byte buffers and session state."""

    __slots__ = ("sock", "peer", "inbuf", "outbuf", "session", "slot", "closing",
                 "drained", "writing", "last_active")

    def __init__(self, sock: socket.socket, peer, now: float):
        self.sock = sock
        self.peer = peer
        self.inbuf = b""  # an incomplete line
        self.outbuf = b""  # verdicts the peer has not taken yet
        self.session: RegulatorSession | None = None  # set by the handshake
        self.slot = False  # holds one of the MAX_SESSIONS slots
        self.closing = False  # rejected: flush, half-close, drain, close
        self.drained = 0  # bytes discarded since the half-close
        self.writing = False  # selector waits for EVENT_WRITE, not EVENT_READ
        self.last_active = now


class RegulatorServer:
    """Regulator serving every session from one ``selectors`` event loop.

    Sockets are non-blocking. Each complete line is decoded, verified, logged
    and answered before the loop takes the next, and no call waits on a
    single client: a session with unsent verdicts is not read until its peer
    takes them. A uid has at most one open session: a handshake under a uid
    in use is refused, so each (uid, w) is verified at most once. The loop is
    the only writer of the audit log.
    """

    def __init__(self, listen_addr: tuple[str, int], config: RegulatorConfig):
        self.config = config
        self._listener = socket.create_server(listen_addr)
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ)
        self._sel.register(self._wake_r, selectors.EVENT_READ)
        self.audit = _AuditLog(config.audit_path)
        self.active_sessions = 0
        # uid -> the connection whose open session holds it: a second session
        # under a live uid would have its (uid, w) pairs verified twice
        self._uids: dict[str, _Conn] = {}
        self._stopping = False
        self._idle = threading.Event()  # set while no loop runs
        self._idle.set()
        self._now = time.monotonic()

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()

    def start_background(self) -> threading.Thread:
        self._idle.clear()  # a stop() from now on waits for the loop
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        """Stop the loop, close every connection, then close the audit."""
        self._stopping = True
        self._wake_w.send(b"\0")
        self._idle.wait()
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()
        self._sel.close()
        self.audit.close()

    def serve_forever(self) -> None:
        """Run the event loop until ``stop``."""
        self._idle.clear()
        select = self._sel.select
        next_scan = self._now + 1.0
        try:
            while not self._stopping:
                events = select(max(0.0, next_scan - self._now))
                self._now = now = time.monotonic()
                for key, _ in events:
                    conn = key.data
                    if conn is None:
                        if key.fileobj is self._listener:
                            self._accept()
                        continue  # else woken by stop()
                    try:
                        if conn.writing:
                            self._flush(conn)
                        else:
                            self._on_readable(conn)
                    except OSError as exc:
                        logger.info("connection from %s lost: %s", conn.peer, exc)
                        self._close(conn)
                    except Exception:
                        logger.exception("connection from %s failed", conn.peer)
                        self._close(conn)
                if now >= next_scan:
                    self._close_idle()
                    next_scan = now + 1.0
        finally:
            for conn in self._conns():
                if conn.outbuf:
                    try:
                        conn.sock.send(conn.outbuf)
                    except OSError:
                        pass
                self._close(conn)
            self._idle.set()

    def _conns(self) -> list[_Conn]:
        return [k.data for k in self._sel.get_map().values() if k.data is not None]

    def _accept(self) -> None:
        try:
            sock, peer = self._listener.accept()
        except BlockingIOError:
            return
        except OSError as exc:  # e.g. out of file descriptors
            logger.warning("accept failed: %s", exc)
            return
        sock.setblocking(False)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SEND_BUFFER_BYTES)
        conn = _Conn(sock, peer, self._now)
        self._sel.register(sock, selectors.EVENT_READ, conn)
        if self.active_sessions >= MAX_SESSIONS:
            reason = f"session limit of {MAX_SESSIONS} reached"
            logger.warning("connection from %s refused: %s", peer, reason)
            try:
                self._reject(conn, "?", reason)
            except OSError:
                self._close(conn)
            return
        conn.slot = True
        self.active_sessions += 1

    def _release_uid(self, conn: _Conn) -> None:
        if conn.session is not None and self._uids.get(conn.session.handshake.uid) is conn:
            del self._uids[conn.session.handshake.uid]

    def _close(self, conn: _Conn) -> None:
        self._sel.unregister(conn.sock)
        conn.sock.close()
        if conn.slot:
            conn.slot = False
            self.active_sessions -= 1
        self._release_uid(conn)
        session = conn.session
        if session is not None:
            logger.info(
                "session %s done: %d tuples, %d verdicts, %d mismatches",
                session.handshake.uid,
                session.tuples_received,
                session.verdicts_sent,
                session.mismatches,
            )

    def _close_idle(self) -> None:
        """Close sessions silent for ``IDLE_LIMIT_S``, rejected ones after ``_LINGER_S``."""
        for conn in self._conns():
            limit = _LINGER_S if conn.closing else IDLE_LIMIT_S
            if self._now - conn.last_active > limit:
                if not conn.closing:
                    logger.warning("session from %s timed out", conn.peer)
                self._close(conn)

    def _want_write(self, conn: _Conn, writing: bool) -> None:
        if conn.writing != writing:
            conn.writing = writing
            events = selectors.EVENT_WRITE if writing else selectors.EVENT_READ
            self._sel.modify(conn.sock, events, conn)

    def _send(self, conn: _Conn, record: str) -> None:
        data = record.encode() + b"\n"
        if not conn.outbuf:
            try:
                data = data[conn.sock.send(data) :]
            except BlockingIOError:
                pass
        conn.outbuf += data

    def _flush(self, conn: _Conn) -> None:
        """Send pending verdicts; once they are out, serve the connection again."""
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            return
        conn.outbuf = conn.outbuf[sent:]
        conn.last_active = self._now
        if conn.outbuf:
            return
        self._want_write(conn, False)
        if conn.closing:
            self._half_close(conn)
        elif conn.inbuf:
            self._take_lines(conn, b"")

    def _reject(self, conn: _Conn, uid: str, reason: str) -> None:
        """Log and send a rejection verdict that answers no tuple; end the session."""
        msg = encode_record(Verdict(uid=uid, w=-1, rho_hat=0, matched=False, reason=reason))
        self.audit.append("TX", msg)
        self._send(conn, msg)
        self._release_uid(conn)  # the session takes no more tuples
        conn.closing = True
        conn.inbuf = b""
        if conn.outbuf:
            self._want_write(conn, True)
        else:
            self._half_close(conn)

    def _half_close(self, conn: _Conn) -> None:
        """End the output, so the peer reads the verdict and then EOF.

        The input is then read and discarded up to EOF, a newline or
        ``MAX_RECORD_BYTES``: closing with the peer's line unread would
        answer it with a reset that can destroy the verdict in flight.
        """
        conn.sock.shutdown(socket.SHUT_WR)
        conn.last_active = self._now

    def _on_readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(MAX_RECORD_BYTES)
        except BlockingIOError:
            return
        if conn.closing:
            conn.drained += len(data)
            if not data or b"\n" in data or conn.drained >= MAX_RECORD_BYTES:
                self._close(conn)
            return
        if not data:
            if conn.session is None:
                logger.warning("connection from %s closed before handshake", conn.peer)
            elif conn.inbuf:
                logger.warning("session %s: partial record at EOF discarded",
                               conn.session.handshake.uid)
            self._close(conn)
            return
        conn.last_active = self._now
        self._take_lines(conn, data)

    def _take_lines(self, conn: _Conn, data: bytes) -> None:
        """Answer every complete line in the buffer, in order."""
        buf = conn.inbuf + data if conn.inbuf else data
        start = 0
        while not (conn.closing or conn.outbuf):
            end = buf.find(b"\n", start, start + MAX_RECORD_BYTES + 1)
            if end < 0:
                if len(buf) - start > MAX_RECORD_BYTES:
                    self._on_line(conn, None)
                break
            self._on_line(conn, buf[start:end])
            start = end + 1
        if conn.closing:
            return
        conn.inbuf = buf[start:]
        if conn.outbuf:
            self._want_write(conn, True)

    def _on_line(self, conn: _Conn, line: bytes | None) -> None:
        """Answer one line; ``None`` stands for a line over the length limit."""
        session = conn.session
        if session is None:
            try:
                if line is None:
                    raise ProtocolError(_OVERLONG)
                hs = decode_record(line)
                if not isinstance(hs, Handshake):
                    raise ProtocolError("first record must be a handshake")
                if not self.config.allows(hs.mode):
                    raise ProtocolError(f"mode {hs.mode!r} not allowed by this regulator")
                if hs.uid in self._uids:
                    raise ProtocolError(f"uid {hs.uid!r} already has an open session")
            except ProtocolError as exc:
                logger.warning("handshake from %s refused: %s", conn.peer, exc)
                self._reject(conn, "?", str(exc))
                return
            self.audit.append("RX", encode_record(hs))
            conn.session = RegulatorSession(hs)
            self._uids[hs.uid] = conn
            logger.info("session %s mode=%s d=%d p=%d", hs.uid, hs.mode, hs.d, hs.p)
            return
        uid = session.handshake.uid
        if line is None:
            logger.warning("session %s: %s, closing", uid, _OVERLONG)
            self._reject(conn, uid, _OVERLONG)
            return
        raw = line.decode("utf-8", errors="replace")
        try:
            tup = decode_record(raw)
            if isinstance(tup, Verdict):
                raise ProtocolError("unexpected verdict from client")
        except ProtocolError as exc:
            verdict = Verdict(uid=uid, w=-1, rho_hat=0, matched=False, reason=str(exc))
        else:
            # Replay reads a logged handshake as a new session and files a
            # logged tuple under its own uid's session: a line it would misread
            # ends the session unlogged, as an overlong line does.
            if isinstance(tup, Handshake) or tup.uid != uid:
                reason = "duplicate handshake" if isinstance(tup, Handshake) else "uid mismatch"
                logger.warning("session %s: %s, closing", uid, reason)
                self._reject(conn, uid, reason)
                return
            verdict = session.verify(tup)
        out = encode_record(verdict)
        self.audit.append_pair(raw, out)
        self._send(conn, out)


def serve_regulator(listen_addr: tuple[str, int], config: RegulatorConfig) -> None:
    """Blocking regulator service; returns on KeyboardInterrupt."""
    server = RegulatorServer(listen_addr, config)
    logger.info("regulator listening on %s:%d", *server.address)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()


@dataclass
class ClientSummary:
    uid: str
    completed: bool
    epochs: list[tuple[int, int, int, bool]] = field(default_factory=list)  # (w, rho, rho_hat, matched)
    error: str | None = None


def _connect_with_retry(
    addr: tuple[str, int], delays: tuple[float, ...] = RETRY_DELAYS
) -> socket.socket:
    last: Exception | None = None
    for attempt, delay in enumerate((0.0,) + delays):
        if delay:
            time.sleep(delay)
        try:
            return socket.create_connection(addr, timeout=30.0)
        except OSError as exc:
            last = exc
            logger.warning("connect attempt %d to %s failed: %s", attempt + 1, addr, exc)
    raise ConnectionError(f"could not connect to {addr}: {last}")


def run_utility_client(
    regulator_addr: tuple[str, int],
    params: PrivacyParams,
    scenario: ScenarioConfig,
    mode: str,
    seed: int,
    n_epochs: int,
    uid: str = "u0",
    utility_index: int = 0,
    csv_source: str | Path | None = None,
    retry_delays: tuple[float, ...] = RETRY_DELAYS,
) -> ClientSummary:
    """Stream one tuple per completed epoch to the regulator, collect verdicts.

    The record source is the built-in plant+filter simulation, or a residual
    CSV when ``csv_source`` is given. Dimension mismatches against the
    handshake abort before the first tuple. Connection loss triggers bounded
    reconnect attempts (exponential backoff); a final failure returns the
    partial summary with ``completed=False``.
    """
    summary = ClientSummary(uid=uid, completed=False)
    if scenario.p != params.p:
        summary.error = f"scenario p={scenario.p} differs from params p={params.p}"
        return summary
    if csv_source is not None:
        with open(csv_source, "r", encoding="utf-8") as fh:
            records = residuals_from_csv(fh)
    else:
        records = residual_stream(scenario, n_epochs * scenario.epoch_len, seed, utility_index)
    if records and records[0].d != scenario.plant.d:
        summary.error = (
            f"source dimension d={records[0].d} does not match scenario d={scenario.plant.d}"
        )
        return summary
    aggs = epoch_stream(records, scenario)[:n_epochs]
    if len(aggs) < n_epochs:
        summary.error = f"source yields only {len(aggs)} full epochs, need {n_epochs}"
        return summary

    session = UtilitySession(
        uid=uid,
        mode=mode,
        params=params,
        d=scenario.plant.d,
        alpha=scenario.alpha,
        rng=np.random.default_rng(derive_seed(seed, utility_index, 1)),
        epoch_len=scenario.epoch_len,
    )
    try:
        sock = _connect_with_retry(regulator_addr, retry_delays)
    except ConnectionError as exc:
        summary.error = str(exc)
        return summary
    try:
        with sock, sock.makefile("rwb") as fh:
            fh.write(encode_record(session.handshake()).encode() + b"\n")
            fh.flush()
            for agg in aggs:
                res = session.process_epoch(agg)
                fh.write(encode_record(res.tuple_obj).encode() + b"\n")
                fh.flush()
                line = fh.readline()
                if not line:
                    summary.error = f"connection lost at epoch {agg.w}"
                    return summary
                verdict = decode_record(line.rstrip(b"\n"))
                if not isinstance(verdict, Verdict):
                    summary.error = f"expected verdict at epoch {agg.w}"
                    return summary
                if verdict.reason is not None:
                    summary.error = f"epoch {agg.w} rejected: {verdict.reason}"
                    return summary
                summary.epochs.append((agg.w, res.rho, verdict.rho_hat, verdict.matched))
    except (OSError, ProtocolError) as exc:
        summary.error = str(exc)
        return summary
    summary.completed = len(summary.epochs) == n_epochs
    return summary


@dataclass
class HarnessConfig:
    n_utilities: int
    n_epochs: int
    params: PrivacyParams
    scenario: ScenarioConfig
    mode: str = "cr"
    master_seed: int = 0
    attacked_utility: int | None = None
    attacked_scenario: ScenarioConfig | None = None


@dataclass
class ExperimentRecord:
    summaries: dict[str, ClientSummary]
    partial: bool


def run_harness(config: HarnessConfig, audit_path: str | Path) -> ExperimentRecord:
    """In-process regulator plus J concurrent utility clients on loopback."""
    if config.n_utilities < 1:
        raise ValueError("need at least one utility")
    server = RegulatorServer(("127.0.0.1", 0), RegulatorConfig(audit_path=audit_path))
    server.start_background()
    addr = server.address
    summaries: dict[str, ClientSummary] = {}
    threads = []

    def client(j: int):
        uid = f"u{j}"
        scen = config.scenario
        if config.attacked_utility == j and config.attacked_scenario is not None:
            scen = config.attacked_scenario
        summaries[uid] = run_utility_client(
            addr,
            config.params,
            scen,
            config.mode,
            seed=config.master_seed,
            n_epochs=config.n_epochs,
            uid=uid,
            utility_index=j,
            retry_delays=(0.1, 0.2),
        )

    try:
        for j in range(config.n_utilities):
            th = threading.Thread(target=client, args=(j,))
            th.start()
            threads.append(th)
        for th in threads:
            th.join()
    finally:
        server.stop()
    partial = any(not s.completed for s in summaries.values())
    return ExperimentRecord(summaries=summaries, partial=partial)


def replay_audit(audit_path: str | Path) -> list[tuple[str, str]]:
    """Re-run verification over the logged tuples.

    Returns (logged_verdict, replayed_verdict) pairs in log order, one per
    decodable tuple record; RX tuples and their TX verdicts are logged
    atomically, so pairing is positional. A faithful log replays byte-exactly;
    such a pair holds the one string twice.

    The log is read in chunks of ``REPLAY_CHUNK`` tuples. A CR tuple's
    numbers do not depend on session state, so each chunk verifies its CR
    tuples in one ``verify_cr_stack`` call per session; admission and
    duplicate tracking then run in log order, in ``RegulatorSession.verify``.
    """
    sessions: dict[str, RegulatorSession] = {}
    pairs: list[tuple[str, str]] = []
    pending: str | None = None  # replayed verdict awaiting its logged TX line
    chunk: list = []  # TX records and [session, tuple, verify_cr verdict] items, in log order
    stacks: dict[RegulatorSession, list] = {}  # the chunk's items that reach verify_cr
    n_tuples = 0
    with open(audit_path, "r", encoding="utf-8", newline="\n") as fh:
        for raw in fh:
            raw = raw.rstrip("\n")
            if not raw:
                continue
            try:
                _stamp, direction, record = raw.split(" ", 2)
            except ValueError as exc:
                raise ProtocolError(f"malformed audit line: {raw!r}") from exc
            if direction == "TX":
                chunk.append(record)
                continue
            if direction != "RX":
                raise ProtocolError(f"unknown audit direction {direction!r}")
            try:
                obj = decode_record(record)
            except ProtocolError:
                continue  # undecodable tuple; its rejection TX stays unpaired
            if isinstance(obj, Handshake):
                sessions[obj.uid] = RegulatorSession(obj)
            elif isinstance(obj, (CrTuple, PvTuple)):
                session = sessions.get(obj.uid)
                if session is None:
                    raise ProtocolError(f"tuple for unknown session {obj.uid!r}")
                item = [session, obj, None]
                chunk.append(item)
                if isinstance(obj, CrTuple) and session.mismatch_reason(obj) is None:
                    stacks.setdefault(session, []).append(item)
                n_tuples += 1
                if n_tuples % REPLAY_CHUNK == 0:
                    pending = _replay_chunk(chunk, stacks, pairs, pending)
                    chunk, stacks = [], {}
    _replay_chunk(chunk, stacks, pairs, pending)
    return pairs


def _replay_chunk(chunk: list, stacks: dict, pairs: list[tuple[str, str]], pending: str | None) -> str | None:
    """Replay one chunk in log order; returns the verdict still awaiting its TX line."""
    for session, items in stacks.items():
        verdicts = verify_cr_stack([item[1] for item in items], session.handshake.p)
        for item, verdict in zip(items, verdicts):
            item[2] = verdict
    for item in chunk:
        if type(item) is str:  # a TX line; unpaired ones (handshake errors) carry no tuple
            if pending is not None:
                # a verdict that replays byte-exactly is kept once, not twice
                pairs.append((item, item) if pending == item else (item, pending))
                pending = None
        else:
            session, tup, cr_verdict = item
            pending = encode_record(session.verify(tup, cr_verdict))
    return pending
