"""The three benchmark workloads.

Every workload runs on ``reference_params()`` and the default plant (W=10,
alpha=0.05), makes its inputs from the seed, times a phase of at least
``seconds`` made of whole rounds, and checks its outputs after the timed
phase. Each returns a ``Result``; ``run.py`` turns it into the JSON line.
Why each workload exists, and which layer it stresses, is in the README.

The speed of a shared virtual CPU can swing by tens of percent for half a
second to a few seconds at a time, so rates and percentiles are taken over a
whole timed phase of many seconds, which averages the swings; a median over
short rounds flips between them.
"""

from __future__ import annotations

import dataclasses
import os
import selectors
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from dpalarm import cli, config, ekf, netsvc, pipeline, protocol
from dpalarm.plant import AttackSpec

import checks
from regserver import peak_rss_mb
from tracing import SpanTable, Tracer, server_us_per_tuple

SCENARIO = config.default_scenario()
PARAMS = config.reference_params()
W = SCENARIO.epoch_len
ALPHA = SCENARIO.alpha
P = SCENARIO.p
D = SCENARIO.plant.d

SETUP_TRIALS = 3  # setup_s is the median of this many set-ups in one run

PV_STREAM_EPOCHS = 3000  # distinct epochs in the CSV
PV_ROUND_EPOCHS = 1000  # a round is the next 1000 epochs of the stream, cyclically

ALIGN_REPEATS = 2  # cmd_align repeats per round; a round is one cmd_align call
ALIGN_CHECKPOINTS = (200.0, 400.0, 600.0)
ALIGN_ATTACK = AttackSpec(kind="bias", targets=frozenset({0}), magnitude=0.5, t_start=101, t_end=8100)
AUDIT_EPOCHS = 200  # disclosures of one attacked run, logged and replayed after mc_align
AUDIT_REPLAYS = 100  # about 3.5 s of replay, long enough to average speed swings

TCP_SESSIONS = 2  # concurrent sessions against one regulator process
TCP_POOL_EPOCHS = 100  # genuine disclosures per session, resent under fresh epoch indices
TCP_BLOCK_ROUNDS = 1000  # the p99 is the median of the p99s of blocks of this many rounds
_SENTINEL_W = 987654321


@dataclass
class Result:
    attempted: int
    failed: int
    failures: list[str]
    metrics: dict[str, tuple[float, str]]
    report: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # what the checks read, for the self-test
    tables: list[tuple[str, SpanTable]] = field(default_factory=list)  # traced runs only
    session_overhead_us: float | None = None


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_audit(path: Path, handshake, pairs) -> None:
    """Write tuple/verdict pairs in the regulator's audit-log format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_now()} RX {protocol.encode_record(handshake)}\n")
        for tup, verdict in pairs:
            stamp = _now()
            fh.write(f"{stamp} RX {protocol.encode_record(tup)}\n")
            fh.write(f"{stamp} TX {protocol.encode_record(verdict)}\n")


def _percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


# --- pv_csv -----------------------------------------------------------------


def pv_csv(seed: int, seconds: float, work: Path, tracer: Tracer | None) -> Result:
    """One PV utility streams an attack-free residual CSV to an in-process regulator."""
    csv_path = work / "residuals.csv"
    records = pipeline.residual_stream(SCENARIO, PV_STREAM_EPOCHS * W, seed)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        ekf.residuals_to_csv(records, fh)
    del records

    setup = []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        with open(csv_path, "r", encoding="utf-8") as fh:
            recs = ekf.residuals_from_csv(fh)
        session = protocol.UtilitySession(
            uid="u0",
            mode="pv",
            params=PARAMS,
            d=D,
            alpha=ALPHA,
            rng=np.random.default_rng(pipeline.derive_seed(seed, 0, 1)),
            epoch_len=W,
        )
        regulator = protocol.RegulatorSession(session.handshake())
        setup.append(time.perf_counter() - t0)

    n_ep = len(recs) // W
    lat: list[float] = []
    rows = []
    pairs = []
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    w = 0
    while True:
        for k in (i % n_ep for i in range(w, w + PV_ROUND_EPOCHS)):
            t0 = clock()
            agg = protocol.aggregate_epoch(recs[k * W : (k + 1) * W], w=w, alpha=ALPHA, p=P)
            res = session.process_epoch(agg)
            verdict = regulator.verify(res.tuple_obj)
            lat.append(clock() - t0)
            rows.append(
                (k, agg.t_stat, agg.rho, res.rho_hat_local, res.t_res_scaled,
                 res.t_cov_scaled, res.alpha_hat, verdict)
            )
            pairs.append((res.tuple_obj, verdict))
            w += 1
        if clock() >= deadline:
            break
    elapsed = clock() - start
    if tracer is not None:
        main_table = tracer.table()
        tracer.uninstall()
        tracer = Tracer()
        tracer.install()

    audit = work / "audit.log"
    write_audit(audit, session.handshake(), pairs)
    audit_bytes = audit.stat().st_size / len(pairs)
    t0 = clock()
    replayed = netsvc.replay_audit(audit)
    replay_s = clock() - t0
    if tracer is not None:
        tables = [("workload", main_table), ("post", tracer.table())]
        tracer.uninstall()

    _t, csv_r, csv_s = checks.read_csv_rows(csv_path, D)
    failures = checks.check_pv_epochs(rows, csv_r, csv_s, W, ALPHA, P)
    failures += checks.check_replay(replayed, len(pairs))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "epochs_per_s": (len(rows) / elapsed, "1/s"),
        "epoch_p50_ms": (_percentile_ms(lat, 50), "ms"),
        "epoch_p99_ms": (_percentile_ms(lat, 99), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "audit_bytes_per_epoch": (audit_bytes, "B"),
        "replay_epochs_per_s": (len(replayed) / replay_s, "1/s"),
    }
    failed = sum(1 for r in rows if r[7].reason is not None)
    res = Result(len(rows), failed, failures, metrics)
    res.report.append(
        f"pv_csv: {len(rows)} epochs of a {n_ep}-epoch stream in {elapsed:.2f}s, "
        f"{len(rows) // PV_ROUND_EPOCHS} rounds of {PV_ROUND_EPOCHS}; p50 and p99 over {len(lat)} epochs "
        f"({int(len(lat) * 0.01)} beyond the p99); replay of {len(replayed)} epochs "
        f"in {replay_s:.2f}s"
    )
    if tracer is not None:
        res.tables = tables
    res.outputs = {"rows": rows, "csv_r": csv_r, "csv_s": csv_s, "replayed": replayed,
                   "audit": audit}
    return res


# --- mc_align ---------------------------------------------------------------


def _align_epochs(scenario) -> int:
    """Epochs per repeat, as cmd_align derives them from the checkpoints."""
    w0 = (scenario.attack.t_start - scenario.warmup_steps - 1) // scenario.epoch_len
    return w0 + int(np.ceil(max(ALIGN_CHECKPOINTS) / scenario.epoch_seconds)) + 1


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _import_seconds(root: Path) -> float:
    """Start an interpreter and import the CLI, as `dpalarm align` does."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import dpalarm.cli"], env=_child_env(root), cwd=root, check=True
    )
    return time.perf_counter() - t0


def mc_align(seed: int, seconds: float, work: Path, tracer: Tracer | None) -> Result:
    """cli.cmd_align in CR mode, whole rounds of ALIGN_REPEATS repeats."""
    root = Path.cwd()
    scenario = SCENARIO.with_attack(ALIGN_ATTACK)
    setup = [_import_seconds(root) for _ in range(SETUP_TRIALS)]
    per_round = ALIGN_REPEATS * _align_epochs(scenario)

    rounds = []
    round_s = []
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    while True:
        t0 = clock()
        rows = cli.cmd_align(
            scenario,
            PARAMS,
            seed=seed * 100_000 + len(rounds) * ALIGN_REPEATS,
            checkpoints_s=ALIGN_CHECKPOINTS,
            repeats=ALIGN_REPEATS,
            mode="cr",
        )
        round_s.append(clock() - t0)
        rounds.append(rows)
        if clock() >= deadline:
            break
    elapsed = clock() - start
    if tracer is not None:
        main_table = tracer.table()
        tracer.uninstall()
        tracer = Tracer()
        tracer.install()

    # The regulator's record of one attacked run: logged, then replayed.
    epochs, session = pipeline.run_pipeline(
        scenario, PARAMS, AUDIT_EPOCHS, seed=seed, mode="cr", uid="u0"
    )
    audit = work / "audit.log"
    write_audit(audit, session.handshake(), [(e.result.tuple_obj, e.verdict) for e in epochs])
    audit_bytes = audit.stat().st_size / len(epochs)
    t0 = clock()
    for _ in range(AUDIT_REPLAYS):
        replayed = netsvc.replay_audit(audit)
    replay_s = clock() - t0
    if tracer is not None:
        tables = [("workload", main_table), ("post", tracer.table())]
        tracer.uninstall()

    failures = checks.check_alignment(rounds, ALIGN_REPEATS, ALPHA)
    failures += checks.check_replay(replayed, len(epochs))
    failures += [
        f"audit run epoch {e.w}: {e.verdict.reason}" for e in epochs if e.verdict.rejected
    ][:5]
    epoch_ms = [s * 1e3 / per_round for s in round_s]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "epochs_per_s": (len(rounds) * per_round / elapsed, "1/s"),
        "epoch_p50_ms": (statistics.median(epoch_ms), "ms"),
        "epoch_p99_ms": (max(epoch_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "audit_bytes_per_epoch": (audit_bytes, "B"),
        "replay_epochs_per_s": (AUDIT_REPLAYS * len(replayed) / replay_s, "1/s"),
    }
    res = Result(len(rounds) * ALIGN_REPEATS, 0, failures, metrics)
    res.report.append(
        f"mc_align: {len(rounds)} rounds x {per_round} epochs in {elapsed:.2f}s; "
        f"p50 and p99 are the median and largest of {len(round_s)} per-round mean epoch "
        f"times; alignment_rate at {ALIGN_CHECKPOINTS} s in round 0: "
        + " ".join(f"{r.alignment_rate:g}" for r in rounds[0])
    )
    if tracer is not None:
        res.tables = tables
    res.outputs = {"rounds": rounds, "replayed": replayed, "audit": audit}
    return res


# --- regulator_tcp ----------------------------------------------------------


def _template(tup) -> tuple[str, str]:
    """Split an encoded tuple around its epoch index so it can be resent."""
    line = protocol.encode_record(dataclasses.replace(tup, w=_SENTINEL_W))
    head, sep, tail = line.partition(str(_SENTINEL_W))
    if not sep or str(_SENTINEL_W) in tail:
        raise RuntimeError(f"cannot locate the epoch index in {line[:80]!r}")
    return head, tail + "\n"


class LoadSession:
    """One session's pre-encoded tuples, what was sent and what came back."""

    def __init__(self, sock: socket.socket, uid: str, templates: list[tuple[str, str]]):
        self.sock = sock
        self.uid = uid
        self.templates = templates
        self.w = 0
        self.t_send = 0.0
        self.buf = b""
        self.sent: list[tuple[str, int, int]] = []
        self.verdicts: list[bytes] = []
        self.rtts: list[float] = []

    def send(self) -> None:
        j = self.w % len(self.templates)
        head, tail = self.templates[j]
        data = (head + str(self.w) + tail).encode()
        self.sent.append((self.uid, self.w, j))
        self.w += 1
        self.t_send = time.perf_counter()
        self.sock.sendall(data)


def drive(sessions: list[LoadSession], seconds: float, max_rounds: int | None = None) -> list[float]:
    """Run lock-step rounds until the deadline; return each round's duration.

    A round sends one tuple on every session at once, then waits for every
    verdict, so the regulator always has one tuple per session in flight.
    """
    sel = selectors.DefaultSelector()
    for s in sessions:
        sel.register(s.sock, selectors.EVENT_READ, s)
    clock = time.perf_counter
    deadline = clock() + seconds
    durations: list[float] = []
    try:
        while True:
            t_round = clock()
            for s in sessions:
                s.send()
            pending = len(sessions)
            while pending:
                events = sel.select(timeout=60.0)
                if not events:
                    raise TimeoutError("regulator sent no verdict for 60 s")
                for key, _ in events:
                    s = key.data
                    data = s.sock.recv(65536)
                    if not data:
                        raise ConnectionError(f"regulator closed session {s.uid}")
                    s.buf += data
                    i = s.buf.find(b"\n")
                    if i >= 0:  # one tuple in flight per session: one verdict
                        s.rtts.append(clock() - s.t_send)
                        s.verdicts.append(s.buf[:i])
                        s.buf = s.buf[i + 1 :]
                        pending -= 1
            now = clock()
            durations.append(now - t_round)
            if now >= deadline or (max_rounds is not None and len(durations) >= max_rounds):
                return durations
    finally:
        sel.close()


def _cr_pool(seed: int, utility_index: int, n_epochs: int, scenario=SCENARIO):
    """Genuine CR disclosures of one attack-free stream."""
    records = pipeline.residual_stream(scenario, n_epochs * W, seed, utility_index)
    aggs = pipeline.epoch_stream(records, scenario)
    session = protocol.UtilitySession(
        uid=f"u{utility_index}",
        mode="cr",
        params=PARAMS,
        d=D,
        alpha=ALPHA,
        rng=np.random.default_rng(pipeline.derive_seed(seed, utility_index, 1)),
        epoch_len=W,
    )
    return session, [session.process_epoch(a) for a in aggs]


class Regulator:
    """The regulator process plus the connected, handshaken sessions."""

    def __init__(
        self,
        root: Path,
        audit: Path,
        handshakes,
        trace_path: Path | None = None,
        cpus: set[int] | None = None,
    ):
        script = Path(__file__).with_name("regserver.py")
        cmd = [sys.executable, str(script), str(audit)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        if cpus is not None:
            cmd += ["--cpus", ",".join(str(c) for c in sorted(cpus))]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_child_env(root), cwd=root
        )
        self.socks: list[socket.socket] = []
        try:
            line = self.proc.stdout.readline()
            if not line.strip():
                raise RuntimeError("regulator process exited before listening")
            port = int(line)
            for hs in handshakes:
                sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self.socks.append(sock)
                sock.sendall((protocol.encode_record(hs) + "\n").encode())
        except BaseException:
            self.stop()
            raise

    def stop(self) -> float:
        """Close the sessions, stop the process, return its peak RSS in MB."""
        for sock in self.socks:
            sock.close()
        self.proc.stdin.close()
        line = self.proc.stdout.readline()  # the regulator's own peak, printed on exit
        self.proc.stdout.close()
        self.proc.wait()
        if self.proc.returncode != 0 or not line.strip():
            raise RuntimeError(f"regulator process exited with {self.proc.returncode}")
        return float(line)


def regulator_tcp(seed: int, seconds: float, work: Path, tracer: Tracer | None) -> Result:
    """TCP_SESSIONS concurrent CR sessions in lock-step rounds against a regulator process."""
    root = Path.cwd()
    sessions, pool = [], {}
    for j in range(TCP_SESSIONS):
        session, results = _cr_pool(seed, j, TCP_POOL_EPOCHS)
        sessions.append(session)
        pool[session.uid] = results
    templates = {uid: [_template(r.tuple_obj) for r in res] for uid, res in pool.items()}
    handshakes = [s.handshake() for s in sessions]
    if tracer is not None:
        client_setup = tracer.table()
        tracer.uninstall()

    # The load generator and the regulator process share one CPU, so a round
    # trip is the regulator's work and thread switching, not the host's
    # cross-CPU wake-up latency (which moved the p99 fivefold between runs).
    allowed = os.sched_getaffinity(0)
    cpu = {max(allowed)}
    setup = []
    for trial in range(SETUP_TRIALS):
        last = trial == SETUP_TRIALS - 1
        trace_path = work / "server_spans.npz" if (tracer is not None and last) else None
        t0 = time.perf_counter()
        reg = Regulator(root, work / f"audit{trial}.log", handshakes, trace_path, cpu)
        setup.append(time.perf_counter() - t0)
        if not last:
            reg.stop()
    load = [LoadSession(sock, hs.uid, templates[hs.uid]) for sock, hs in zip(reg.socks, handshakes)]
    try:
        os.sched_setaffinity(0, cpu)
        rounds = drive(load, seconds)
    finally:
        os.sched_setaffinity(0, allowed)
        server_rss = reg.stop()

    audit = work / f"audit{SETUP_TRIALS - 1}.log"
    sent = [x for s in load for x in s.sent]
    lines = [x for s in load for x in s.verdicts]
    audit_bytes = audit.stat().st_size / len(sent)
    if tracer is not None:
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    replayed = netsvc.replay_audit(audit)
    replay_s = time.perf_counter() - t0
    if tracer is not None:
        server_table = SpanTable.load(trace_path)
        tables = [
            ("workload", SpanTable.concat([client_setup, server_table])),
            ("post", tracer.table()),
        ]
        tracer.uninstall()

    failures = checks.check_cr_verdicts(sent, lines, pool)
    failures += checks.check_replay(replayed, len(sent))
    # A round's first-served and second-served round trips form two modes, and
    # a median over both sits on the edge between them; the latency sample is
    # the mean round trip of a round's epochs.
    round_rtt = np.mean([s.rtts for s in load], axis=0)
    # Stalls of the host come in bursts; a median over blocks keeps a burst in
    # a few blocks from setting the p99 of the whole run. A short run is one block.
    n_blocks = max(1, len(rounds) // TCP_BLOCK_ROUNDS)
    size = len(rounds) // n_blocks
    block_p99 = [_percentile_ms(round_rtt[b * size : (b + 1) * size], 99) for b in range(n_blocks)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "epochs_per_s": (len(lines) / sum(rounds), "1/s"),
        "epoch_p50_ms": (_percentile_ms(round_rtt, 50), "ms"),
        "epoch_p99_ms": (statistics.median(block_p99), "ms"),
        "peak_rss_mb": (server_rss, "MB"),
        "audit_bytes_per_epoch": (audit_bytes, "B"),
        "replay_epochs_per_s": (len(replayed) / replay_s, "1/s"),
    }
    failed = len(sent) - len(lines) + sum(1 for ln in lines if b'"reason"' in ln)
    res = Result(len(sent), failed, failures, metrics)
    res.report.append(
        f"regulator_tcp: {len(lines)} epochs in {len(rounds)} rounds of {TCP_SESSIONS} "
        f"({sum(rounds):.2f}s); p50 over the {len(rounds)} rounds' mean round trips, p99 "
        f"the median over {n_blocks} blocks of {size}; replay of {len(replayed)} epochs "
        f"in {replay_s:.2f}s"
    )
    if tracer is not None:
        res.tables = tables
        res.session_overhead_us = float(np.mean(round_rtt)) * 1e6 - (
            server_us_per_tuple(server_table) or 0.0
        )
    res.outputs = {"sent": sent, "lines": lines, "pool": pool, "replayed": replayed,
                   "audit": audit}
    return res


WORKLOADS = {"pv_csv": pv_csv, "mc_align": mc_align, "regulator_tcp": regulator_tcp}


# --- coverage probe (traced runs only) ----------------------------------------

PROBE_EPOCHS = 40
PROBE_ROUNDS = 300


def probe(seed: int, work: Path) -> tuple[SpanTable, float]:
    """A small fixed pass over every traced layer, for layers a workload skips.

    Returns its spans and the CR session overhead per tuple: the mean round
    trip minus the regulator threads' decode + verify + encode time.
    """
    tracer = Tracer()
    tracer.install()
    try:
        records = pipeline.residual_stream(SCENARIO, PROBE_EPOCHS * W, seed, 7)
        csv_path = work / "probe.csv"
        with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
            ekf.residuals_to_csv(records, fh)
        with open(csv_path, "r", encoding="utf-8") as fh:
            recs = ekf.residuals_from_csv(fh)
        session = protocol.UtilitySession(
            "p0", "pv", PARAMS, D, ALPHA, np.random.default_rng(seed), epoch_len=W
        )
        regulator = protocol.RegulatorSession(session.handshake())
        for agg in pipeline.epoch_stream(recs, SCENARIO):
            tup = protocol.decode_record(protocol.encode_record(session.process_epoch(agg).tuple_obj))
            protocol.encode_record(regulator.verify(tup))

        cr_session, results = _cr_pool(seed, 8, PROBE_EPOCHS)
        templates = [_template(r.tuple_obj) for r in results]
        audit = work / "probe_audit.log"
        server = netsvc.RegulatorServer(("127.0.0.1", 0), netsvc.RegulatorConfig(audit))
        server.start_background()
        try:
            sock = socket.create_connection(server.address, timeout=60.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with sock:
                sock.sendall((protocol.encode_record(cr_session.handshake()) + "\n").encode())
                load = LoadSession(sock, cr_session.uid, templates)
                drive([load], 60.0, max_rounds=PROBE_ROUNDS)
        finally:
            server.stop()
        netsvc.replay_audit(audit)
    finally:
        tracer.uninstall()
    tbl = tracer.table()
    server_threads = {i for i, name in enumerate(tbl.threads) if name != "MainThread"}
    overhead = float(np.mean(load.rtts)) * 1e6 - (server_us_per_tuple(tbl, server_threads) or 0.0)
    return tbl, overhead
