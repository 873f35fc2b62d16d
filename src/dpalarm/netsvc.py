"""Long-running regulator and utility services over a stream transport.

Transport is a TCP stream of newline-delimited wire records (see
``protocol``): per session, one handshake line, then one tuple line per epoch
answered by one verdict line. The regulator handles up to ``MAX_SESSIONS``
sessions concurrently and independently; per-session processing is
sequential in epoch order. Every received tuple and sent verdict is appended
to an audit log that can be replayed offline to reproduce the verdicts
byte-exactly.

Audit line format: ``<ISO-8601 timestamp> <RX|TX> <wire record>``.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .ekf import ResidualRecord, residuals_from_csv
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


@dataclass
class RegulatorConfig:
    audit_path: str | Path
    mode_allow: str = "both"  # "cr" | "pv" | "both"

    def allows(self, mode: str) -> bool:
        return self.mode_allow in ("both", mode)


class _AuditLog:
    """Append-only audit sink behind a lock (the single serialization point)."""

    def __init__(self, path: str | Path):
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8")

    def append(self, direction: str, record: str) -> None:
        stamp = datetime.now(timezone.utc).isoformat()
        with self._lock:
            self._fh.write(f"{stamp} {direction} {record}\n")
            self._fh.flush()

    def append_pair(self, rx_record: str, tx_record: str) -> None:
        """Atomically log a tuple and its verdict so replay order is exact."""
        stamp = datetime.now(timezone.utc).isoformat()
        with self._lock:
            self._fh.write(f"{stamp} RX {rx_record}\n")
            self._fh.write(f"{stamp} TX {tx_record}\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.close()


_OVERLONG = f"record longer than {MAX_RECORD_BYTES} bytes"


def _overlong(line: bytes) -> bool:
    """A line read to the full limit without reaching its newline.

    Lines are read with ``readline(MAX_RECORD_BYTES + 1)``; one that ends
    without a newline and is shorter was cut by EOF instead.
    """
    return len(line) > MAX_RECORD_BYTES and not line.endswith(b"\n")


class _SessionHandler(socketserver.StreamRequestHandler):
    timeout = 120.0  # server-side read timeout per record

    def handle(self):
        server: RegulatorServer = self.server  # type: ignore[assignment]
        peer = self.client_address
        self.connection.settimeout(self.timeout)
        if not server.open_session():
            reason = f"session limit of {MAX_SESSIONS} reached"
            logger.warning("connection from %s refused: %s", peer, reason)
            try:
                self._reject(server, "?", reason)
            except OSError:
                pass
            return
        try:
            self._session_loop(server, peer)
        except (socket.timeout, TimeoutError):
            logger.warning("session from %s timed out", peer)
        finally:
            server.close_session()

    def _reject(self, server: "RegulatorServer", uid: str, reason: str) -> None:
        """Log and send a rejection verdict that answers no tuple."""
        msg = encode_record(Verdict(uid=uid, w=-1, rho_hat=0, matched=False, reason=reason))
        server.audit.append("TX", msg)
        self.wfile.write(msg.encode() + b"\n")

    def _session_loop(self, server: "RegulatorServer", peer):
        line = self.rfile.readline(MAX_RECORD_BYTES + 1)
        if not line.endswith(b"\n") and not _overlong(line):
            logger.warning("connection from %s closed before handshake", peer)
            return
        try:
            if _overlong(line):
                raise ProtocolError(_OVERLONG)
            hs = decode_record(line.rstrip(b"\n"))
            if not isinstance(hs, Handshake):
                raise ProtocolError("first record must be a handshake")
            if not server.config.allows(hs.mode):
                raise ProtocolError(f"mode {hs.mode!r} not allowed by this regulator")
        except ProtocolError as exc:
            self._reject(server, "?", str(exc))
            logger.warning("malformed handshake from %s: %s", peer, exc)
            return

        server.audit.append("RX", encode_record(hs))
        session = RegulatorSession(hs)
        logger.info("session %s mode=%s d=%d p=%d", hs.uid, hs.mode, hs.d, hs.p)
        while not server.stopping.is_set():
            line = self.rfile.readline(MAX_RECORD_BYTES + 1)
            if not line:
                break  # client closed; partial epochs are simply never received
            if _overlong(line):
                # the rest of the line is never read, so the session ends here
                logger.warning("session %s: %s, closing", hs.uid, _OVERLONG)
                try:
                    self._reject(server, hs.uid, _OVERLONG)
                except (BrokenPipeError, ConnectionResetError):
                    pass
                break
            if not line.endswith(b"\n"):
                logger.warning("session %s: partial record at EOF discarded", hs.uid)
                break
            raw = line.rstrip(b"\n").decode("utf-8", errors="replace")
            try:
                tup = decode_record(raw)
                if isinstance(tup, Handshake):
                    raise ProtocolError("duplicate handshake")
                if isinstance(tup, Verdict):
                    raise ProtocolError("unexpected verdict from client")
                verdict = session.verify(tup)
            except ProtocolError as exc:
                verdict = Verdict(
                    uid=hs.uid, w=-1, rho_hat=0, matched=False, reason=str(exc)
                )
            out = encode_record(verdict)
            server.audit.append_pair(raw, out)
            try:
                self.wfile.write(out.encode() + b"\n")
            except (BrokenPipeError, ConnectionResetError):
                break
        logger.info(
            "session %s done: %d tuples, %d verdicts, %d mismatches",
            hs.uid,
            session.tuples_received,
            session.verdicts_sent,
            session.mismatches,
        )


class RegulatorServer(socketserver.ThreadingTCPServer):
    """Threaded regulator accepting concurrent, isolated sessions."""

    allow_reuse_address = True
    daemon_threads = False
    block_on_close = True

    def __init__(self, listen_addr: tuple[str, int], config: RegulatorConfig):
        super().__init__(listen_addr, _SessionHandler)
        self.config = config
        self.audit = _AuditLog(config.audit_path)
        self.stopping = threading.Event()
        self._sessions_lock = threading.Lock()
        self.active_sessions = 0

    def open_session(self) -> bool:
        """Take a session slot; False when ``MAX_SESSIONS`` are already open."""
        with self._sessions_lock:
            if self.active_sessions >= MAX_SESSIONS:
                return False
            self.active_sessions += 1
            return True

    def close_session(self) -> None:
        with self._sessions_lock:
            self.active_sessions -= 1

    @property
    def address(self) -> tuple[str, int]:
        return self.socket.getsockname()

    def start_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def stop(self) -> None:
        """Graceful shutdown: drain in-flight verdicts, then close the audit."""
        self.stopping.set()
        self.shutdown()
        self.server_close()
        self.audit.close()


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

    @property
    def n_matched(self) -> int:
        return sum(1 for e in self.epochs if e[3])


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


def _csv_records(path: str | Path) -> list[ResidualRecord]:
    with open(path, "r", encoding="utf-8") as fh:
        return residuals_from_csv(fh)


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
    if csv_source is not None:
        records = _csv_records(csv_source)
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
    audit_path: str
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
    return ExperimentRecord(summaries=summaries, audit_path=str(audit_path), partial=partial)


def replay_audit(audit_path: str | Path) -> list[tuple[str, str]]:
    """Re-run verification over the logged tuples.

    Returns (logged_verdict, replayed_verdict) pairs in log order, one per
    decodable tuple record; RX tuples and their TX verdicts are logged
    atomically, so pairing is positional. A faithful log replays byte-exactly.
    """
    sessions: dict[str, RegulatorSession] = {}
    pairs: list[tuple[str, str]] = []
    pending: str | None = None  # replayed verdict awaiting its logged TX line
    with open(audit_path, "r", encoding="utf-8") as fh:
        for raw in fh:
            raw = raw.rstrip("\n")
            if not raw:
                continue
            try:
                _stamp, direction, record = raw.split(" ", 2)
            except ValueError as exc:
                raise ProtocolError(f"malformed audit line: {raw!r}") from exc
            if direction == "TX":
                if pending is not None:
                    pairs.append((record, pending))
                    pending = None
                continue  # unpaired TX lines (handshake errors) carry no tuple
            if direction != "RX":
                raise ProtocolError(f"unknown audit direction {direction!r}")
            try:
                obj = decode_record(record)
            except ProtocolError:
                continue  # undecodable tuple; its rejection TX stays unpaired
            if isinstance(obj, Handshake):
                sessions[obj.uid] = RegulatorSession(obj)
            elif isinstance(obj, (CrTuple, PvTuple)):
                if obj.uid not in sessions:
                    raise ProtocolError(f"tuple for unknown session {obj.uid!r}")
                verdict = sessions[obj.uid].verify(obj)
                pending = encode_record(verdict)
    return pairs
