import dataclasses
import json
import logging
import socket
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from dpalarm import netsvc
from dpalarm.config import default_scenario, reference_params
from dpalarm.ekf import residuals_to_csv
from dpalarm.netsvc import (
    MAX_RECORD_BYTES,
    HarnessConfig,
    RegulatorConfig,
    RegulatorServer,
    replay_audit,
    run_harness,
    run_utility_client,
)
from dpalarm.pipeline import residual_stream
from dpalarm.plant import AttackSpec
from dpalarm.privacy import PrivacyParams
from dpalarm.protocol import (
    CrTuple,
    Handshake,
    ProtocolError,
    PvTuple,
    RegulatorSession,
    Verdict,
    decode_record,
    encode_record,
    verify_pv,
)
from conftest import src_env

logging.getLogger("dpalarm.netsvc").setLevel(logging.ERROR)


@pytest.fixture
def server(tmp_path):
    srv = RegulatorServer(("127.0.0.1", 0), RegulatorConfig(tmp_path / "audit.log"))
    srv.start_background()
    yield srv
    srv.stop()


def quiet_params(**kw):
    return reference_params(**kw)


class TestLoopback:
    def test_single_utility_session(self, server, tmp_path):
        sc = default_scenario()
        summary = run_utility_client(
            server.address, quiet_params(), sc, "cr", seed=4, n_epochs=50,
            retry_delays=(0.05,),
        )
        assert summary.completed
        assert len(summary.epochs) == 50
        assert [e[0] for e in summary.epochs] == list(range(50))

    def test_zero_noise_all_matched(self, server):
        # degenerate DP at a tiny significance level: neither side ever
        # alarms, so every verdict matches the disclosed alarm bit
        sc = default_scenario(alpha=1e-4)
        params = PrivacyParams(
            eps_cov=1e12, eps_r=0.5, gamma_cov=0.01, gamma_r=0.01,
            delta_l=1e-6, delta_r=1e-3, p=3, sigma=2e-2,
        )
        summary = run_utility_client(
            server.address, params, sc, "cr", seed=11, n_epochs=40, retry_delays=(0.05,)
        )
        assert summary.completed
        assert all(matched for _, _, _, matched in summary.epochs)

    def test_seeded_rerun_identical_tuples(self):
        # determinism is a property of the session pipeline; capture the
        # exact wire bytes twice
        from dpalarm.pipeline import run_pipeline

        sc = default_scenario()
        lines = []
        for _ in range(2):
            epochs, _ = run_pipeline(sc, quiet_params(), 20, seed=9, mode="pv")
            lines.append([encode_record(e.result.tuple_obj) for e in epochs])
        assert lines[0] == lines[1]

    def test_pv_mode_session(self, server):
        sc = default_scenario()
        summary = run_utility_client(
            server.address, quiet_params(), sc, "pv", seed=4, n_epochs=20,
            retry_delays=(0.05,),
        )
        assert summary.completed

    def test_csv_dim_mismatch_aborts(self, server, tmp_path):
        # residual stream with d=2 against the 3-sensor scenario
        from dpalarm.ekf import ResidualRecord

        path = tmp_path / "residuals.csv"
        records = [
            ResidualRecord(t=i, r=np.zeros(2), s=np.eye(2))
            for i in range(1, 40)
        ]
        with open(path, "w") as fh:
            residuals_to_csv(records, fh)
        summary = run_utility_client(
            server.address, quiet_params(), default_scenario(), "cr", seed=1,
            n_epochs=3, csv_source=path, retry_delays=(0.05,),
        )
        assert not summary.completed
        assert "dimension" in summary.error
        assert summary.epochs == []

    def test_csv_gap_returns_its_error(self, tmp_path):
        # a step missing from the CSV: the client's summary carries the error
        records = residual_stream(default_scenario(), 60, seed=3)
        path = tmp_path / "gap.csv"
        with open(path, "w") as fh:
            residuals_to_csv(records[:13] + records[14:], fh)
        summary = run_utility_client(
            ("127.0.0.1", 1), quiet_params(), default_scenario(), "cr", seed=1,
            n_epochs=3, csv_source=path, retry_delays=(),
        )
        assert not summary.completed and summary.epochs == []
        assert summary.error == f"gap in step sequence: {records[12].t} -> {records[14].t}"

    def test_csv_gap_after_the_sent_epochs_is_not_read(self, server, tmp_path):
        # the client aggregates only the epochs it sends: a step missing from
        # epoch 3 leaves a 3-epoch session complete
        records = residual_stream(default_scenario(), 60, seed=3)
        path = tmp_path / "gap.csv"
        with open(path, "w") as fh:
            residuals_to_csv(records[:35] + records[36:], fh)
        summary = run_utility_client(
            server.address, quiet_params(), default_scenario(), "cr", seed=1,
            n_epochs=3, csv_source=path, retry_delays=(0.05,),
        )
        assert summary.completed and summary.error is None
        assert [e[0] for e in summary.epochs] == [0, 1, 2]

    @pytest.mark.parametrize(
        "text, error",
        [
            (None, "No such file or directory"),  # no file at all
            ("1,0,0,0,1,0,0,0,1,0,0,0,1\n2,0,0,0,1,0,0,0,1,0,0,0,x\n",
             "row 3: could not convert string to float: 'x'"),
        ],
    )
    def test_csv_unreadable_returns_its_error(self, tmp_path, text, error):
        path = tmp_path / "in.csv"
        if text is not None:
            header = ["t", "r1", "r2", "r3"] + [f"s{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
            path.write_text(",".join(header) + "\n" + text)
        summary = run_utility_client(
            ("127.0.0.1", 1), quiet_params(), default_scenario(), "cr", seed=1,
            n_epochs=3, csv_source=path, retry_delays=(),
        )
        assert not summary.completed and summary.epochs == []
        assert error in summary.error

    def test_session_log_counts_rejections_apart(self, server, caplog):
        caplog.set_level(logging.INFO, logger="dpalarm.netsvc")
        # verified with rho_hat = 0 against the disclosed rho = 1: one mismatch
        line = encode_record(CrTuple("logged", 0, np.eye(3), np.ones(3), 100.0, 1))
        client = _Client(server, "logged")
        try:
            assert client.send(line).matched is False
            assert client.send(line).reason == "duplicate epoch index"
        finally:
            client.close()

        def done():
            return [r.getMessage() for r in caplog.records if " done: " in r.getMessage()]

        TestSessionLimit._wait_for(done)
        assert done() == ["session logged done: 2 tuples, 1 mismatches, 1 rejected"]

    def test_p_mismatch_aborts(self, server):
        summary = run_utility_client(
            server.address, quiet_params(p=2), default_scenario(), "cr", seed=1,
            n_epochs=3, retry_delays=(0.05,),
        )
        assert not summary.completed
        assert summary.error == "scenario p=3 differs from params p=2"
        assert summary.epochs == []

    def test_csv_source_matches_sim(self, server, tmp_path):
        # exporting the sim records and replaying them through the CSV path
        # yields the identical epoch/alarm stream
        sc = default_scenario()
        records = residual_stream(sc, 200, seed=21)
        path = tmp_path / "residuals.csv"
        with open(path, "w") as fh:
            residuals_to_csv(records, fh)
        a = run_utility_client(
            server.address, quiet_params(), sc, "cr", seed=21, n_epochs=20,
            uid="sim", retry_delays=(0.05,),
        )
        b = run_utility_client(
            server.address, quiet_params(), sc, "cr", seed=21, n_epochs=20,
            uid="csv", csv_source=path, retry_delays=(0.05,),
        )
        assert a.completed and b.completed
        assert [e[1] for e in a.epochs] == [e[1] for e in b.epochs]

    def test_mode_not_allowed(self, tmp_path):
        srv = RegulatorServer(
            ("127.0.0.1", 0), RegulatorConfig(tmp_path / "a.log", mode_allow="pv")
        )
        srv.start_background()
        try:
            summary = run_utility_client(
                srv.address, quiet_params(), default_scenario(), "cr", seed=1,
                n_epochs=2, retry_delays=(0.05,),
            )
            assert not summary.completed
            assert "not allowed" in summary.error
        finally:
            srv.stop()

    def test_connection_refused_bounded_retry(self):
        t0 = time.time()
        summary = run_utility_client(
            ("127.0.0.1", 1), quiet_params(), default_scenario(), "cr", seed=1,
            n_epochs=2, retry_delays=(0.02, 0.04, 0.08),
        )
        assert not summary.completed
        assert "could not connect" in summary.error
        assert time.time() - t0 < 10.0


class TestServerEdgeCases:
    def test_partial_record_discarded(self, server, tmp_path):
        params = quiet_params()
        hs = Handshake(uid="px", mode="cr", d=3, epoch_len=10, params=params)
        with socket.create_connection(server.address) as sock:
            sock.sendall(encode_record(hs).encode() + b"\n")
            sock.sendall(b'{"v":1,"mode":"cr","uid":"px","w":0,"s_hat":[1')  # no newline
        time.sleep(0.3)
        audit = Path(server.config.audit_path).read_text()
        assert 'px' in audit  # handshake logged
        assert audit.count(" TX ") == 0  # no verdict for the partial epoch

    def test_malformed_tuple_gets_rejection(self, server):
        params = quiet_params()
        hs = Handshake(uid="mx", mode="cr", d=3, epoch_len=10, params=params)
        with socket.create_connection(server.address) as sock:
            fh = sock.makefile("rwb")
            fh.write(encode_record(hs).encode() + b"\n")
            fh.write(b'{"v":1,"mode":"cr","uid":"mx","w":0,"s_hat":[1,2],"tau_rg":[1],"thr":1,"rho":0}\n')
            fh.flush()
            verdict = decode_record(fh.readline().rstrip(b"\n"))
            assert isinstance(verdict, Verdict)
            assert verdict.rejected

    def test_garbage_handshake_closes_session(self, server):
        with socket.create_connection(server.address) as sock:
            fh = sock.makefile("rwb")
            fh.write(b"not json at all\n")
            fh.flush()
            verdict = decode_record(fh.readline().rstrip(b"\n"))
            assert verdict.rejected
            assert fh.readline() == b""  # closed


class TestHarness:
    def _config(self, n=2, epochs=15, attacked=None, mode="cr"):
        sc = default_scenario()
        att = AttackSpec("bias", frozenset({0}), 0.5, 150, 10**9)
        return HarnessConfig(
            n_utilities=n, n_epochs=epochs, params=quiet_params(), scenario=sc,
            mode=mode, master_seed=3, attacked_utility=attacked,
            attacked_scenario=sc.with_attack(att),
        )

    def test_single_utility_equals_client(self, tmp_path):
        rec = run_harness(self._config(n=1), tmp_path / "a.log")
        assert not rec.partial
        assert rec.summaries["u0"].completed

    def test_crashed_client_leaves_experiment_partial(self, tmp_path):
        rec = run_harness(self._config(mode="bogus"), tmp_path / "a.log")
        assert rec.partial
        assert sorted(rec.summaries) == ["u0", "u1"]
        for summary in rec.summaries.values():
            assert not summary.completed
            assert summary.error == "mode must be 'cr' or 'pv', got 'bogus'"

    def test_raising_client_recorded_with_its_error(self, tmp_path, monkeypatch):
        def crash(*args, **kwargs):
            raise RuntimeError("client crashed")

        monkeypatch.setattr(netsvc, "run_utility_client", crash)
        rec = run_harness(self._config(n=1), tmp_path / "a.log")
        assert rec.partial
        assert rec.summaries["u0"] == netsvc.ClientSummary("u0", completed=False, error="client crashed")

    def test_attacked_utility_isolated_alarms(self, tmp_path):
        rec = run_harness(self._config(n=3, epochs=20, attacked=1), tmp_path / "a.log")
        assert not rec.partial
        # attack begins at trace step 150 -> epoch 5; only u1 shows clusters
        alarms = {uid: sum(e[1] for e in s.epochs) for uid, s in rec.summaries.items()}
        assert alarms["u1"] >= 10
        assert alarms["u0"] <= 3 and alarms["u2"] <= 3

    def test_audit_replay_byte_exact(self, tmp_path):
        audit = tmp_path / "a.log"
        rec = run_harness(self._config(n=2, epochs=10), audit)
        assert not rec.partial
        pairs = replay_audit(audit)
        assert len(pairs) == 20
        assert all(logged == replayed for logged, replayed in pairs)

    def test_replay_keeps_one_string_per_exact_verdict(self, tmp_path):
        audit = tmp_path / "a.log"
        assert not run_harness(self._config(n=1, epochs=5), audit).partial
        pairs = replay_audit(audit)
        assert len(pairs) == 5
        assert all(logged is replayed for logged, replayed in pairs)
        # a tampered TX line still yields its own string beside the replayed one
        lines = audit.read_text().splitlines(keepends=True)
        i = max(k for k, ln in enumerate(lines) if " TX " in ln)
        tampered = lines[i].replace('"matched":1', '"matched":0')
        assert tampered != lines[i]
        lines[i] = tampered
        audit.write_text("".join(lines))
        *exact, (logged, replayed) = replay_audit(audit)
        assert all(a is b for a, b in exact)
        assert logged == tampered.split(" ", 2)[2].rstrip("\n")
        assert logged != replayed and '"matched":1' in replayed

    def test_audit_records_reproducible(self, tmp_path):
        # the same seed gives each uid the same sequence of audit records;
        # only the timestamps and the interleaving of sessions may differ
        runs = []
        for name in ("a.log", "b.log"):
            assert not run_harness(self._config(n=2, epochs=15), tmp_path / name).partial
            per_uid = {}
            for line in (tmp_path / name).read_text().splitlines():
                _stamp, direction, record = line.split(" ", 2)
                per_uid.setdefault(decode_record(record).uid, []).append((direction, record))
            runs.append(per_uid)
        assert sorted(runs[0]) == ["u0", "u1"]
        assert all(len(recs) == 1 + 2 * 15 for recs in runs[0].values())
        assert runs[0] == runs[1]

    def test_audit_with_retired_params_key_replays(self, tmp_path):
        # handshakes that carried the retired dynamic-noise flag still decode
        # to the same params, and their audits replay byte-exactly
        audit = tmp_path / "a.log"
        assert not run_harness(self._config(n=1, epochs=200), audit).partial
        lines = audit.read_text().splitlines(keepends=True)
        i = next(k for k, ln in enumerate(lines) if '"params":' in ln)
        record = lines[i].split(" ", 2)[2].rstrip("\n")
        old = record[:-2] + ',"use_calibration":1}}'
        assert decode_record(old) == decode_record(record)
        lines[i] = lines[i].replace(record, old)
        audit.write_text("".join(lines))
        pairs = replay_audit(audit)
        assert len(pairs) == 200
        assert all(logged == replayed for logged, replayed in pairs)

    def test_concurrent_sessions_different_dims(self, tmp_path, server):
        # one session keeps all three components, the other retains two;
        # both negotiate their own dims at handshake and stay isolated
        import threading

        sc3 = default_scenario(p=3)
        sc2 = default_scenario(p=2)
        p2 = reference_params(p=2)
        p3 = reference_params(p=3)
        out = {}

        def go(uid, params, scenario, idx):
            out[uid] = run_utility_client(
                server.address, params, scenario, "cr", seed=31, n_epochs=10,
                uid=uid, utility_index=idx, retry_delays=(0.05,),
            )

        threads = [
            threading.Thread(target=go, args=("wide", p3, sc3, 0)),
            threading.Thread(target=go, args=("narrow", p2, sc2, 1)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert out["wide"].completed and out["narrow"].completed
        audit = Path(server.config.audit_path).read_text()
        assert '"p":3' in audit and '"p":2' in audit

    def test_session_isolation_in_audit(self, tmp_path):
        audit = tmp_path / "a.log"
        run_harness(self._config(n=3, epochs=8), audit)
        per_uid = {}
        for line in audit.read_text().splitlines():
            _, direction, record = line.split(" ", 2)
            obj = decode_record(record)
            if isinstance(obj, Verdict):
                per_uid.setdefault(obj.uid, []).append(obj.w)
        assert set(per_uid) == {"u0", "u1", "u2"}
        for uid, ws in per_uid.items():
            assert ws == list(range(8)), uid



def test_import_loads_no_scipy_optimize_or_stats():
    # the regulator process pays resident memory and start-up for every module
    # (so does every CLI run), and a lazy import in the alpha_hat search or a
    # bound evaluator would load one at its first call
    code = (
        "import sys, numpy as np, dpalarm.netsvc, dpalarm.cli, dpalarm.bounds as b; "
        "from dpalarm.config import reference_params; "
        "tau = np.array([1.0, 0.5, 0.2]); "
        "b.equivalent_alpha(0.05, b.BoundInputs(tau, 3 * tau, 1.0, 1.0, 3, reference_params())); "
        "b.statistic_privacy_profile(100.0, 2.0, tau, np.eye(3), eps_prime=200.0); "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_COLD_REGULATOR = """
import json, socket, sys
import numpy as np
from dpalarm import cli, netsvc
from dpalarm.config import reference_params
from dpalarm.protocol import CrTuple, Handshake, PvTuple, encode_record

def session(mode, uid, tuples):
    hs = Handshake(uid=uid, mode=mode, d=3, epoch_len=10, params=reference_params())
    with socket.create_connection(server.address, timeout=30) as sock, sock.makefile("rwb") as fh:
        fh.write(encode_record(hs).encode() + b"\\n")
        verdicts = []
        for tup in tuples:
            fh.write(encode_record(tup).encode() + b"\\n")
            fh.flush()
            verdicts.append(fh.readline().rstrip(b"\\n").decode())
        return verdicts

netsvc.logger.setLevel("ERROR")
audit, pv = sys.argv[1], json.loads(sys.argv[2])
server = netsvc.RegulatorServer(("127.0.0.1", 0), netsvc.RegulatorConfig(audit))
server.start_background()
rng = np.random.default_rng(3)
cr = []
for w in range(4):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    s_hat = (q * rng.uniform(0.5, 5.0, size=3)) @ q.T
    cr.append(CrTuple(uid="cr", w=w, s_hat=0.5 * (s_hat + s_hat.T),
                      tau_rg=rng.normal(size=3), threshold=3.0, rho=w % 2))
out = {"cr": session("cr", "cr", cr)}
out["audit_exit"] = cli.main(["audit-stats", audit])
out["special_after_cr"] = "scipy.special" in sys.modules
out["pv"] = session("pv", "pv", [PvTuple(**pv)])
out["special_after_pv"] = "scipy.special" in sys.modules
server.stop()
print(json.dumps(out))
"""


def test_cr_regulator_never_loads_scipy_special(tmp_path):
    # scipy.special is about 0.3 s and 20 MB of a regulator's start-up; only a
    # p-value or quantile (a PV tuple here) may load it, on first use
    pv = dict(uid="pv", w=0, t_res=7.5, t_cov=2.0, alpha_hat=0.05, rho=0)
    audit = tmp_path / "audit.log"
    out = subprocess.run(
        [sys.executable, "-c", _COLD_REGULATOR, str(audit), json.dumps(pv)],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    *stats, last = out.stdout.splitlines()
    result = json.loads(last)
    assert len(result["cr"]) == 4
    assert all(decode_record(v).reason is None for v in result["cr"])
    assert result["audit_exit"] == 0
    assert len(stats) == 1 and stats[0].startswith('uid="cr" tuples=4 exact=4 differing=0 ')
    assert not result["special_after_cr"]
    assert result["pv"] == [encode_record(verify_pv(PvTuple(**pv), 3))]
    assert result["special_after_pv"]


class TestHostileRecords:
    """A bad record gets a logged rejection; it never kills the session thread."""

    @staticmethod
    def _cr_line(uid, w):
        # identity covariance: statistic 1 against threshold 10, no alarm
        tup = CrTuple(uid=uid, w=w, s_hat=np.eye(3), tau_rg=np.array([1.0, 0.0, 0.0]),
                      threshold=10.0, rho=0)
        return encode_record(tup).encode()

    def test_overflowing_tuple_then_valid_tuple(self, server):
        hs = Handshake(uid="ox", mode="cr", d=3, epoch_len=10, params=quiet_params())
        big = b"1" + b"0" * 400
        with socket.create_connection(server.address, timeout=30) as sock:
            fh = sock.makefile("rwb")
            fh.write(encode_record(hs).encode() + b"\n")
            fh.write(self._cr_line("ox", 0).replace(b'"thr":10', b'"thr":' + big) + b"\n")
            fh.write(b'{"v":1,"mode":"cr","s_hat":' + b"[" * 5000 + b"\n")
            fh.write(self._cr_line("ox", 0) + b"\n")
            fh.flush()
            bad = decode_record(fh.readline().rstrip(b"\n"))
            deep = decode_record(fh.readline().rstrip(b"\n"))
            good = decode_record(fh.readline().rstrip(b"\n"))
        assert bad.rejected and "cr.thr" in bad.reason
        assert deep.rejected and "malformed record" in deep.reason
        assert not good.rejected and good.matched and good.w == 0
        # each verdict is logged before it is sent
        tx = [ln for ln in Path(server.config.audit_path).read_text().splitlines() if " TX " in ln]
        assert len(tx) == 3 and "cr.thr" in tx[0]

    def test_overlong_line_rejected_and_session_closed(self, server):
        hs = Handshake(uid="lx", mode="cr", d=3, epoch_len=10, params=quiet_params())
        line = self._cr_line("lx", 0)
        at_limit = b" " * (MAX_RECORD_BYTES - len(line)) + line  # JSON allows leading blanks
        with socket.create_connection(server.address, timeout=30) as sock:
            fh = sock.makefile("rwb")
            fh.write(encode_record(hs).encode() + b"\n")
            fh.write(at_limit + b"\n")
            # exactly one byte over the limit and no newline: every byte sent
            # is read, so the server's close is a FIN and the verdict arrives
            fh.write(b" " * (MAX_RECORD_BYTES + 1))
            fh.flush()
            accepted = decode_record(fh.readline().rstrip(b"\n"))
            rejected = decode_record(fh.readline().rstrip(b"\n"))
            assert fh.readline() == b""  # session closed
        assert not accepted.rejected and accepted.matched
        assert rejected.rejected and str(MAX_RECORD_BYTES) in rejected.reason
        audit = Path(server.config.audit_path).read_text().splitlines()
        assert audit[-1].split(" ", 2)[1] == "TX" and str(MAX_RECORD_BYTES) in audit[-1]
        assert replay_audit(server.config.audit_path) == [(audit[-2].split(" ", 2)[2],) * 2]

    def test_overflowing_disclosures_answered_without_warning(self, server):
        big = 1.7e308
        client = _Client(server, "ov")
        try:
            # symmetrised, the diagonal is inf and eigh answers NaN eigenvalues
            nan_eig = client.send(encode_record(CrTuple("ov", 0, np.diag([big] * 3), np.ones(3), 5.0, 0)))
            # the energy overflows: inf is the statistic
            inf_energy = client.send(
                encode_record(CrTuple("ov", 1, np.eye(3), np.array([big, -big, big]), 5.0, 1))
            )
        finally:
            client.close()
        TestSessionLimit._wait_for(lambda: server.active_sessions == 0)
        assert nan_eig.reason == "malformed disclosure: eigenvalues not all finite"
        assert inf_energy.reason is None and (inf_energy.rho_hat, inf_energy.matched) == (1, True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _replays_exactly(server.config.audit_path, 2)

    def test_verdict_on_non_finite_eigenvalues_from_older_log_differs(self, tmp_path, capsys):
        # a regulator that let NaN eigenvalues through answered with an
        # ordinary verdict; replay now rejects the tuple
        from dpalarm import cli

        hs = Handshake(uid="a", mode="cr", d=3, epoch_len=10, params=quiet_params())
        tup = CrTuple("a", 0, np.diag([1.7e308] * 3), np.ones(3), 5.0, 0)
        old = encode_record(Verdict(uid="a", w=0, rho_hat=0, matched=True))
        audit = tmp_path / "older.log"
        audit.write_text(f"t RX {encode_record(hs)}\nt RX {encode_record(tup)}\nt TX {old}\n")
        ((logged, replayed),) = replay_audit(audit)
        assert logged == old
        assert decode_record(replayed).reason == "malformed disclosure: eigenvalues not all finite"
        assert cli.main(["audit-stats", str(audit)]) == 1
        assert 'uid="a" tuples=1 exact=0 differing=1' in capsys.readouterr().out


class TestSessionLimit:
    """Connections over ``MAX_SESSIONS`` are refused; ended sessions free a slot."""

    @staticmethod
    def _open_session(server, uid):
        sock = socket.create_connection(server.address, timeout=30)
        fh = sock.makefile("rwb")
        hs = Handshake(uid=uid, mode="cr", d=3, epoch_len=10, params=quiet_params())
        fh.write(encode_record(hs).encode() + b"\n")
        fh.write(TestHostileRecords._cr_line(uid, 0) + b"\n")
        fh.flush()
        verdict = decode_record(fh.readline().rstrip(b"\n"))
        assert not verdict.rejected and verdict.matched  # the session holds its slot
        return sock, fh

    @staticmethod
    def _wait_for(cond, timeout=10.0):
        deadline = time.monotonic() + timeout
        while not cond():
            assert time.monotonic() < deadline, "regulator did not release the session"
            time.sleep(0.01)

    @pytest.mark.parametrize("cap", [1, 2])
    def test_over_cap_rejected_then_slot_reused(self, server, monkeypatch, cap):
        monkeypatch.setattr(netsvc, "MAX_SESSIONS", cap)
        held = []
        try:
            held += [self._open_session(server, f"s{j}") for j in range(cap)]
            assert server.active_sessions == cap
            with socket.create_connection(server.address, timeout=30) as sock:
                fh = sock.makefile("rb")
                refused = decode_record(fh.readline().rstrip(b"\n"))
                assert fh.readline() == b""  # closed by the regulator
            assert refused.rejected and refused.reason == f"session limit of {cap} reached"
            audit = Path(server.config.audit_path).read_text().splitlines()
            assert audit[-1].split(" ", 2)[1] == "TX" and "session limit" in audit[-1]

            for conn in held.pop():
                conn.close()
            self._wait_for(lambda: server.active_sessions == cap - 1)
            held.append(self._open_session(server, "again"))
            assert server.active_sessions == cap
        finally:
            for sock, fh in held:
                fh.close()
                sock.close()
        self._wait_for(lambda: server.active_sessions == 0)


class TestEventLoop:
    """One loop serves every session: no session, idle or slow, holds up another."""

    def test_refused_client_reads_the_refusal(self, server, monkeypatch):
        monkeypatch.setattr(netsvc, "MAX_SESSIONS", 1)
        sock, fh = TestSessionLimit._open_session(server, "held")
        try:
            # closing with the client's handshake unread resets the connection,
            # which loses the verdict in most but not all tries
            for _ in range(5):
                summary = run_utility_client(
                    server.address, quiet_params(), default_scenario(), "cr", seed=1,
                    n_epochs=2, retry_delays=(0.05,),
                )
                assert not summary.completed
                assert "session limit of 1 reached" in summary.error
        finally:
            fh.close()
            sock.close()

    def test_stop_does_not_wait_on_idle_session(self, tmp_path):
        srv = RegulatorServer(("127.0.0.1", 0), RegulatorConfig(tmp_path / "audit.log"))
        srv.start_background()
        sock, fh = TestSessionLimit._open_session(srv, "idle")
        try:
            t0 = time.monotonic()
            srv.stop()
            assert time.monotonic() - t0 < 2.0
            assert fh.readline() == b""  # closed by the regulator
        finally:
            fh.close()
            sock.close()

    def test_idle_session_closed(self, server, monkeypatch):
        monkeypatch.setattr(netsvc, "IDLE_LIMIT_S", 0.2)
        sock, fh = TestSessionLimit._open_session(server, "quiet")
        try:
            assert server.active_sessions == 1
            TestSessionLimit._wait_for(lambda: server.active_sessions == 0)
            assert fh.readline() == b""
        finally:
            fh.close()
            sock.close()

    def test_unread_verdicts_bounded(self, server):
        # a peer that sends tuples and never reads gets only as many verified as
        # its verdicts fill: one in the process, SEND_BUFFER_BYTES (doubled by
        # the kernel) on the regulator side, its SO_RCVBUF (doubled) on its own
        rcvbuf = 4096
        slow = socket.socket()
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        slow.connect(server.address)
        try:
            hs = Handshake(uid="slow", mode="cr", d=3, epoch_len=10, params=quiet_params())
            slow.sendall(encode_record(hs).encode() + b"\n")
            slow.setblocking(False)
            w, stalled, pending = 0, 0, b""
            while stalled < 20:  # 0.5 s in which the socket takes no byte
                if not pending:
                    lines = [TestHostileRecords._cr_line("slow", w + k) for k in range(100)]
                    pending, w = b"\n".join(lines) + b"\n", w + 100
                try:
                    n = slow.send(pending)
                    pending, stalled = pending[n:], 0
                except BlockingIOError:
                    stalled += 1
                    time.sleep(0.025)
                assert w < 200_000, "the regulator never stopped reading the slow session"
            summary = run_utility_client(
                server.address, quiet_params(), default_scenario(), "cr", seed=2,
                n_epochs=20, uid="fast", retry_delays=(0.05,),
            )
            assert summary.completed and len(summary.epochs) == 20
        finally:
            slow.close()
        audit = Path(server.config.audit_path).read_text().splitlines()
        verified = sum(' RX {"v":1,"mode":"cr","uid":"slow","w":' in line for line in audit)
        shortest = len(encode_record(Verdict("slow", 0, 0, True))) + 1
        in_kernel = (2 * netsvc.SEND_BUFFER_BYTES + 2 * rcvbuf) // shortest
        assert 0 < verified <= in_kernel + 1

    def test_slow_reader_stalls_no_one(self, server):
        hs = Handshake(uid="slow", mode="cr", d=3, epoch_len=10, params=quiet_params())
        line = b"{}\n"  # rejected at once, so the verdicts back up in little time
        with pytest.raises(ProtocolError) as rejection:
            decode_record(line)
        verdict = Verdict("slow", -1, 0, False, reason=str(rejection.value))
        slow = socket.socket()
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.connect(server.address)
        try:
            slow.sendall(encode_record(hs).encode() + b"\n")
            slow.setblocking(False)
            sent, stalled, pending = 0, 0, b""
            while stalled < 20:  # 0.5 s in which the socket takes no byte
                if not pending:
                    pending = line * 100
                try:
                    n = slow.send(pending)
                    pending, sent, stalled = pending[n:], sent + n, 0
                except BlockingIOError:
                    stalled += 1
                    time.sleep(0.025)
                assert sent < 50_000_000, "the regulator never stopped reading the slow session"
            summary = run_utility_client(
                server.address, quiet_params(), default_scenario(), "cr", seed=2,
                n_epochs=20, uid="fast", retry_delays=(0.05,),
            )
            assert summary.completed and len(summary.epochs) == 20

            (conn,) = [c for c in server._conns() if c.session and c.session.handshake.uid == "slow"]
            assert conn.writing  # not read while its verdicts are unsent
            assert len(conn.inbuf) <= MAX_RECORD_BYTES
            per_read = MAX_RECORD_BYTES // len(line) + 1
            assert len(conn.outbuf) <= per_read * (len(encode_record(verdict)) + 1)
        finally:
            slow.close()
        TestSessionLimit._wait_for(lambda: server.active_sessions == 0)


class _Client:
    """A raw regulator session: one handshake, then lines answered in order."""

    def __init__(self, server, uid, mode="cr", d=3, p=3):
        self.sock = socket.create_connection(server.address, timeout=30)
        self.fh = self.sock.makefile("rwb")
        hs = Handshake(uid=uid, mode=mode, d=d, epoch_len=10, params=quiet_params(p=p))
        self.fh.write(encode_record(hs).encode() + b"\n")
        self.fh.flush()

    def send(self, line) -> Verdict:
        self.fh.write((line if isinstance(line, bytes) else line.encode()) + b"\n")
        self.fh.flush()
        return decode_record(self.fh.readline().rstrip(b"\n"))

    def close(self):
        self.fh.close()
        self.sock.close()


def _cr(uid, w, rng, d=3, s_hat=None):
    """A CR tuple line with a bitwise-symmetric random PSD covariance."""
    if s_hat is None:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        s_hat = (q * rng.uniform(0.01, 10.0, size=d)) @ q.T
        s_hat = 0.5 * (s_hat + s_hat.T)
    tup = CrTuple(uid=uid, w=w, s_hat=s_hat, tau_rg=rng.normal(size=d) * 2.0,
                  threshold=float(d), rho=int(rng.integers(0, 2)))
    return encode_record(tup)


def _replays_exactly(audit, n_tuples):
    pairs = replay_audit(audit)
    assert len(pairs) == n_tuples
    assert all(logged is replayed for logged, replayed in pairs)
    return pairs


class TestOneSessionPerUid:
    """A handshake under a uid with an open session is refused and not logged."""

    def test_second_session_refused_first_keeps_going(self, server):
        rng = np.random.default_rng(1)
        first = _Client(server, "dup")
        try:
            assert not first.send(_cr("dup", 0, rng)).rejected
            with socket.create_connection(server.address, timeout=30) as sock:
                fh = sock.makefile("rwb")
                hs = Handshake(uid="dup", mode="cr", d=3, epoch_len=10, params=quiet_params())
                fh.write(encode_record(hs).encode() + b"\n" + _cr("dup", 0, rng).encode() + b"\n")
                fh.flush()
                refused = decode_record(fh.readline().rstrip(b"\n"))
                assert fh.readline() == b""  # closed by the regulator
            assert refused.rejected and refused.w == -1
            assert refused.reason == "uid 'dup' already has an open session"
            assert not first.send(_cr("dup", 1, rng)).rejected
        finally:
            first.close()
        TestSessionLimit._wait_for(lambda: server.active_sessions == 0)
        audit = Path(server.config.audit_path).read_text().splitlines()
        assert sum('"params":' in line for line in audit) == 1  # the refused handshake is not logged
        assert sum("already has an open session" in line for line in audit) == 1
        _replays_exactly(server.config.audit_path, 2)

    def test_reconnect_after_close_accepted(self, server):
        rng = np.random.default_rng(2)
        for _ in range(2):
            client = _Client(server, "back")
            try:
                # a new session starts a new index run: w=0 again is accepted
                assert not client.send(_cr("back", 0, rng)).rejected
                assert client.send(_cr("back", 0, rng)).reason == "duplicate epoch index"
            finally:
                client.close()
            TestSessionLimit._wait_for(lambda: server.active_sessions == 0)
        _replays_exactly(server.config.audit_path, 4)


class TestReplayChunks:
    """Replay verifies a chunk's CR tuples in one stack per session and still
    gives the live verdicts byte for byte, wherever the chunk boundaries fall."""

    @pytest.mark.parametrize("chunk", [1, 3, 4, 1024])
    def test_mixed_log_replays_exactly(self, server, monkeypatch, chunk):
        rng = np.random.default_rng(3)
        big = 1.7e308  # symmetrised, LAPACK fails to converge on it, alone or stacked
        failing = np.array([[1.0, 2.0, big], [2.0, 1.0, 3.0], [big, 3.0, 1.0]])
        a, b = _Client(server, "a"), _Client(server, "b", mode="pv")
        live = []
        try:
            # indices duplicated and out of order across every chunk boundary
            for w in (0, 1, 2, 5, 4, 3, 3, 1, 6, 5, 7):
                live.append(a.send(_cr("a", w, rng)))
            live.append(a.send(_cr("a", 8, rng, s_hat=failing)))
            live.append(a.send(_cr("a", 9, rng)))
            live.append(a.send(b"not json"))  # undecodable: no pair
            live.append(a.send(_cr("a", 10, rng, d=2)))  # dimension mismatch
            pv = PvTuple(uid="b", w=0, t_res=4.0, t_cov=1.0, alpha_hat=0.05, rho=1)
            live.append(b.send(encode_record(pv)))
            live.append(b.send(encode_record(dataclasses.replace(pv, w=0))))
            live.append(a.send(_cr("a", 11, rng)))
        finally:
            a.close()
        TestSessionLimit._wait_for(lambda: server.active_sessions == 1)
        # the same uid again, now retaining two components, between a's tuples
        # and b's: its tuples stack under the new handshake's p
        again = _Client(server, "a", p=2)
        try:
            for w in (0, 0, 1):
                live.append(again.send(_cr("a", w, rng)))
            live.append(b.send(encode_record(dataclasses.replace(pv, w=1, t_res=40.0))))
            # a refused handshake leaves an unpaired TX line in the log
            with socket.create_connection(server.address, timeout=30) as sock:
                sock.sendall(b"garbage handshake\n")
                assert sock.makefile("rb").readline()
        finally:
            again.close()
            b.close()
        TestSessionLimit._wait_for(lambda: server.active_sessions == 0)
        reasons = [v.reason for v in live]
        assert reasons.count("duplicate epoch index") == 5
        assert "malformed disclosure: Eigenvalues did not converge" in reasons
        assert sum(r is None for r in reasons) == 14

        monkeypatch.setattr(netsvc, "REPLAY_CHUNK", chunk)
        pairs = _replays_exactly(server.config.audit_path, len(live) - 1)
        assert [decode_record(logged) for logged, _ in pairs] == [v for v in live if v.w != -1]

    @pytest.mark.parametrize("chunk", [1, 1024])
    def test_each_tuple_fit_checked_once(self, server, monkeypatch, chunk):
        rng = np.random.default_rng(7)
        pv = PvTuple(uid="b", w=0, t_res=4.0, t_cov=1.0, alpha_hat=0.05, rho=1)
        a, b = _Client(server, "a"), _Client(server, "b", mode="pv")
        try:
            live = [a.send(_cr("a", w, rng)) for w in (0, 2, 1, 1)]  # out of order, duplicate
            live.append(a.send(_cr("a", 3, rng, d=2)))  # dimension mismatch
            live.append(a.send(encode_record(dataclasses.replace(pv, uid="a", w=3))))  # mode mismatch
            live.append(b.send(_cr("b", 0, rng)))  # mode mismatch
            live.append(a.send(b"not json"))  # undecodable: no pair
            for w in (0, 0, 2, 1):  # duplicate, out of order
                live.append(b.send(encode_record(dataclasses.replace(pv, w=w))))
            live.append(a.send(_cr("a", 3, rng)))
        finally:
            a.close()
            b.close()
        TestSessionLimit._wait_for(lambda: server.active_sessions == 0)
        reasons = [v.reason for v in live]
        assert reasons.count("duplicate epoch index") == 2
        assert reasons.count("mode mismatch") == 2
        assert sum(r is not None and r.startswith("dimension mismatch") for r in reasons) == 1
        assert sum(r is None for r in reasons) == 7

        calls = []
        fit = RegulatorSession.prepare
        monkeypatch.setattr(RegulatorSession, "prepare",
                            lambda self, tup: calls.append(tup.w) or fit(self, tup))
        monkeypatch.setattr(netsvc, "REPLAY_CHUNK", chunk)
        pairs = _replays_exactly(server.config.audit_path, len(live) - 1)
        assert len(calls) == len(pairs)
        assert [decode_record(logged) for logged, _ in pairs] == [v for v in live if v.w != -1]

    def test_chunked_replay_of_harness_audits(self, tmp_path, monkeypatch):
        for mode in ("cr", "pv"):
            audit = tmp_path / f"{mode}.log"
            config = TestHarness()._config(n=2, epochs=12, mode=mode)
            assert not run_harness(config, audit).partial
            whole = _replays_exactly(audit, 24)
            monkeypatch.setattr(netsvc, "REPLAY_CHUNK", 5)
            assert _replays_exactly(audit, 24) == whole
            monkeypatch.undo()


    @pytest.mark.parametrize("chunk", [1, 2, 1024])
    def test_lost_tx_line_unpairs_only_its_tuple(self, tmp_path, monkeypatch, chunk):
        audit = tmp_path / "audit.log"
        assert not run_harness(TestHarness()._config(n=2, epochs=12), audit).partial
        lines = audit.read_text().splitlines(keepends=True)
        tx = [k for k, line in enumerate(lines) if line.split(" ", 2)[1] == "TX"]
        assert len(tx) == 24 and tx[-1] == len(lines) - 1
        monkeypatch.setattr(netsvc, "REPLAY_CHUNK", chunk)
        whole = _replays_exactly(audit, 24)
        damaged = tmp_path / "damaged.log"
        for n, k in enumerate(tx):  # n = 23 cuts the last line
            damaged.write_text("".join(lines[:k] + lines[k + 1 :]))
            assert _replays_exactly(damaged, 23) == whole[:n] + whole[n + 1 :]


class TestReplayFollowsTheLiveSession:
    """A line that replay would file under another session than the live one
    ends its session unlogged; what is logged replays byte for byte."""

    @staticmethod
    def _audit_stats(server, capsys):
        from dpalarm import cli

        assert cli.main(["audit-stats", str(server.config.audit_path)]) == 0
        return capsys.readouterr().out

    def test_foreign_uid_tuple_ends_the_session(self, server, capsys):
        rng = np.random.default_rng(4)
        a, b = _Client(server, "a"), _Client(server, "b")
        try:
            assert not a.send(_cr("a", 0, rng)).rejected
            foreign = a.send(_cr("b", 0, rng))
            assert foreign.rejected and foreign.reason == "uid mismatch"
            assert (foreign.uid, foreign.w) == ("a", -1)
            assert a.fh.readline() == b""  # closed by the regulator
            # b's own first epoch: verified live, and so in replay
            own = b.send(_cr("b", 0, rng))
            assert not own.rejected and own.reason is None
        finally:
            a.close()
            b.close()
        TestSessionLimit._wait_for(lambda: server.active_sessions == 0)
        audit = Path(server.config.audit_path).read_text().splitlines()
        assert [ln.split(" ", 2)[1] for ln in audit if "uid mismatch" in ln] == ["TX"]
        assert sum('"uid":"b","w":0' in ln for ln in audit if " RX " in ln) == 1  # b's own only
        _replays_exactly(server.config.audit_path, 2)
        out = self._audit_stats(server, capsys)
        assert 'uid="a" tuples=1 exact=1 differing=0' in out
        assert 'uid="b" tuples=1 exact=1 differing=0' in out

    def test_second_handshake_ends_the_session(self, server, capsys):
        rng = np.random.default_rng(5)
        first = _Client(server, "a")
        try:
            assert not first.send(_cr("a", 0, rng)).rejected
            hs = Handshake(uid="a", mode="cr", d=3, epoch_len=10, params=quiet_params())
            again = first.send(encode_record(hs))
            assert again.rejected and again.reason == "duplicate handshake"
            assert first.fh.readline() == b""
        finally:
            first.close()
        TestSessionLimit._wait_for(lambda: server.active_sessions == 0)
        # a new session under the same uid starts a new index run
        second = _Client(server, "a")
        try:
            assert not second.send(_cr("a", 0, rng)).rejected
            assert second.send(_cr("a", 0, rng)).reason == "duplicate epoch index"
        finally:
            second.close()
        TestSessionLimit._wait_for(lambda: server.active_sessions == 0)
        audit = Path(server.config.audit_path).read_text().splitlines()
        assert sum('"params":' in ln for ln in audit) == 2  # the refused handshake is not logged
        _replays_exactly(server.config.audit_path, 3)
        out = self._audit_stats(server, capsys)
        assert 'uid="a" tuples=3 exact=3 differing=0' in out

    def test_raw_carriage_return_replays(self, server, capsys):
        rng = np.random.default_rng(6)
        client = _Client(server, "cr")
        try:
            inner = _cr("cr", 0, rng).replace(',"w":', ',\r"w":')  # JSON whitespace
            trailing = _cr("cr", 1, rng) + "\r"  # a CRLF line end
            live = [client.send(inner), client.send(trailing)]
        finally:
            client.close()
        TestSessionLimit._wait_for(lambda: server.active_sessions == 0)
        assert [(v.w, v.reason) for v in live] == [(0, None), (1, None)]
        assert b"\r" in Path(server.config.audit_path).read_bytes()
        pairs = _replays_exactly(server.config.audit_path, 2)
        assert [decode_record(logged) for logged, _ in pairs] == live
        assert 'uid="cr" tuples=2 exact=2 differing=0' in self._audit_stats(server, capsys)
