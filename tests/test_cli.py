import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from dpalarm import cli
from dpalarm.cli import (
    SweepConfig,
    build_bound_report,
    cmd_align,
    cmd_bounds_report,
    cmd_false_alarms,
    cmd_ingest,
    cmd_simulate,
    cmd_sweep,
)
from dpalarm.config import (
    default_scenario,
    format_params_text,
    params_hash,
    reference_params,
    parse_params_text,
)
from dpalarm.bounds import BoundReport
from dpalarm.ekf import residuals_from_csv
from dpalarm.pipeline import residual_stream, simulated_stream
from dpalarm.plant import AttackSpec, default_spec
from dpalarm.privacy import PrivacyParams
from conftest import src_env


def read_csv(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#") or not line:
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return header, rows


class TestParamsFile:
    def test_roundtrip(self):
        params = reference_params()
        sc = default_scenario(
            attack=AttackSpec("bias", frozenset({0, 2}), 0.5, 100, 900)
        )
        text = format_params_text(params, sc)
        p2, s2 = parse_params_text(text)
        assert p2.to_flat() == params.to_flat()
        assert s2.attack == sc.attack
        assert s2.epoch_len == sc.epoch_len

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="eps_cov"):
            parse_params_text("eps_r=0.5\n")

    def test_attack_without_targets_rejected(self):
        text = format_params_text(reference_params(), default_scenario()) + "attack_kind=bias\n"
        with pytest.raises(ValueError, match="missing required key 'attack_targets'"):
            parse_params_text(text)

    @pytest.mark.parametrize("targets", ["x", "0,", "0;1"])
    def test_non_integer_attack_target_rejected(self, targets):
        sc = default_scenario(attack=AttackSpec("bias", frozenset({0}), 0.5, 100, 900))
        text = format_params_text(reference_params(), sc).replace("attack_targets=0", f"attack_targets={targets}")
        with pytest.raises(ValueError, match="'attack_targets' must list integers"):
            parse_params_text(text)

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_params_text("this is not a pair\n")

    @pytest.mark.parametrize(
        "field, cov",
        [
            ("process_cov", np.diag([1e-4, 5e-3])),
            ("measurement_cov", 1e-2 * np.eye(3) + 1e-3 * (np.ones((3, 3)) - np.eye(3))),
        ],
    )
    def test_covariance_the_file_cannot_hold_rejected(self, field, cov):
        # the file holds q_scale / r_scale: a multiple of the identity only
        sc = default_scenario(plant=default_spec(**{field: cov}))
        with pytest.raises(ValueError, match=rf"^plant\.{field} is not a multiple of the identity$"):
            format_params_text(reference_params(), sc)
        with pytest.raises(ValueError, match=field):
            params_hash(reference_params(), sc)
        scaled = default_scenario(plant=default_spec(process_cov=3e-4 * np.eye(2)))
        back = parse_params_text(format_params_text(reference_params(), scaled))[1].plant
        assert np.array_equal(back.process_cov, scaled.plant.process_cov)

    @pytest.mark.parametrize(
        "key, value",
        [("p", "2.9"), ("epoch_len", "10.7"), ("warmup_steps", "inf"), ("eps_r_waiver", "0.5"),
         ("attack_t_start", "100.5")],
    )
    def test_non_whole_integer_key_rejected(self, key, value):
        sc = default_scenario(attack=AttackSpec("bias", frozenset({0}), 0.5, 100, 900))
        lines = format_params_text(reference_params(), sc).splitlines()
        text = "\n".join(f"{key}={value}" if ln.startswith(f"{key}=") else ln for ln in lines)
        with pytest.raises(ValueError, match=f"'{key}' must be a whole number"):
            parse_params_text(text)

    def test_whole_float_integer_key_accepted(self):
        text = format_params_text(reference_params(), default_scenario())
        _, sc = parse_params_text(text.replace("epoch_len=10", "epoch_len=10.0"))
        assert sc.epoch_len == 10 and type(sc.epoch_len) is int


class TestSimulate:
    def test_emits_trace_and_residuals(self, tmp_path):
        paths = cmd_simulate(default_scenario(), 120, seed=3, out_dir=tmp_path, export_residuals=True)
        assert [p.name for p in paths] == ["trace.csv", "residuals.csv"]
        header, rows = read_csv(paths[0])
        assert header == ["t", "x1", "x2", "y1", "y2", "y3"]
        assert len(rows) == 120

    def test_residuals_are_the_disclosed_stream(self, tmp_path):
        # the records `client --source sim --seed 3` would epoch and disclose
        sc = default_scenario()
        paths = cmd_simulate(sc, 120, seed=3, out_dir=tmp_path, export_residuals=True)
        with open(paths[1], encoding="utf-8") as fh:
            written = residuals_from_csv(fh)
        expected = residual_stream(sc, 120, seed=3)
        assert len(written) == len(expected) == 120
        for got, want in zip(written, expected):
            assert got.t == want.t
            assert np.array_equal(got.r, want.r) and np.array_equal(got.s, want.s)
        # the trace rows are the steps the residuals came from
        header, rows = read_csv(paths[0])
        assert header == ["t", "x1", "x2", "y1", "y2", "y3"]
        steps, _ = simulated_stream(sc, 120, seed=3)
        assert [int(row[0]) for row in rows] == [step.t for step in steps] == [rec.t for rec in expected]
        for row, want in zip(rows, steps):
            assert np.array_equal(np.array(row[1:], dtype=float), np.concatenate([want.x, want.y]))


class TestSweep:
    def _config(self, grid=(10.0, 100.0), repeats=2, epochs=12):
        return SweepConfig(
            param="eps_cov", grid=grid, base=reference_params(),
            scenario=default_scenario(), n_epochs=epochs, repeats=repeats,
        )

    def test_outputs_and_headers(self, tmp_path):
        path = cmd_sweep(self._config(), seed=1, out_dir=tmp_path)
        assert path.exists()
        text = path.read_text()
        assert "# seed=1" in text and "# version=" in text
        cells = list(tmp_path.glob("sweep_eps_cov_*_rep*.csv"))
        assert len(cells) == 4
        header, rows = read_csv(cells[0])
        assert header == ["w", "t_stat", "t_stat_dp", "pvalue", "pvalue_dp", "rho", "rho_hat"]
        assert len(rows) == 12

    def test_single_repeat_degenerate_envelope(self, tmp_path):
        path = cmd_sweep(self._config(grid=(50.0,), repeats=1), seed=2, out_dir=tmp_path)
        _, rows = read_csv(path)
        for row in rows:
            med, lo, hi = float(row[2]), float(row[3]), float(row[4])
            assert med == lo == hi

    def test_envelope_width_shrinks_with_budget(self, tmp_path):
        # wider covariance-noise envelopes at small eps_cov (HAI-analog sigma
        # so the covariance phase dominates the spread)
        base = PrivacyParams(
            eps_cov=100.0, eps_r=0.932, gamma_cov=1e-2, gamma_r=1e-2,
            delta_l=0.1, delta_r=0.3, p=3,
        )
        cfg = SweepConfig(
            param="eps_cov", grid=(5.0, 500.0), base=base,
            scenario=default_scenario(), n_epochs=25, repeats=4,
        )
        path = cmd_sweep(cfg, seed=5, out_dir=tmp_path)
        _, rows = read_csv(path)
        widths = {}
        for row in rows:
            widths.setdefault(float(row[0]), []).append(float(row[4]) - float(row[3]))
        med = {v: np.median(w) for v, w in widths.items()}
        assert med[5.0] > med[500.0]

    def test_per_run_failures_recorded(self, tmp_path):
        # an unusable cell value must be recorded as failed while the sweep
        # continues with the healthy cells
        cfg = SweepConfig(
            param="eps_cov", grid=(-1.0, 200.0), base=reference_params(),
            scenario=default_scenario(), n_epochs=8, repeats=2,
        )
        path = cmd_sweep(cfg, seed=5, out_dir=tmp_path)
        text = path.read_text()
        assert "# failed value=-1" in text
        assert any(line.startswith("200,") for line in text.splitlines())

    def test_params_for_keeps_an_explicit_sigma(self):
        # eps_cov and gamma_cov do not enter sigma's minimum
        base = reference_params(sigma=2.0 * reference_params().sigma)
        for param, value in (("eps_cov", 10.0), ("gamma_cov", 0.05)):
            cfg = SweepConfig(param=param, grid=(value,), base=base, scenario=default_scenario())
            cell = cfg.params_for(value)
            assert getattr(cell, param) == value
            assert cell.sigma == base.sigma

    def test_params_for_rederives_sigma_from_its_inputs(self):
        base = reference_params(sigma=2.0 * reference_params().sigma)
        for param, value in (("eps_r", 2e-3), ("gamma_r", 0.05)):
            cfg = SweepConfig(param=param, grid=(value,), base=base, scenario=default_scenario())
            cell = cfg.params_for(value)
            assert getattr(cell, param) == value
            assert cell.sigma == cell.sigma_min < base.sigma

    def test_invalid_param_rejected(self):
        with pytest.raises(ValueError, match="sweep parameter"):
            SweepConfig(
                param="delta_r", grid=(1.0,), base=reference_params(),
                scenario=default_scenario(),
            )


def attacked_scenario(alpha=0.05):
    # attack begins right after warm-up: trace step 101 -> epoch 0
    return default_scenario(alpha=alpha).with_attack(
        AttackSpec("bias", frozenset({0}), 0.5, 101, 10**9)
    )


class TestAlign:
    def test_rows_shape_and_monotone(self):
        rows = cmd_align(
            attacked_scenario(), reference_params(), seed=3,
            checkpoints_s=(5.0, 10.0), repeats=4,
        )
        assert [r.checkpoint_s for r in rows] == [5.0, 10.0]
        assert rows[0].alignment_rate <= rows[1].alignment_rate
        for r in rows:
            assert r.dp_and_nondp + r.only_nondp <= 4

    def test_no_attack_rejected(self):
        with pytest.raises(ValueError, match="attack"):
            cmd_align(default_scenario(), reference_params(), seed=0)

    def test_short_window_rejected(self):
        sc = default_scenario().with_attack(
            AttackSpec("bias", frozenset({0}), 0.5, 101, 120)
        )
        with pytest.raises(ValueError, match="shorter"):
            cmd_align(sc, reference_params(), seed=0, checkpoints_s=(200.0,))

    def test_checkpoint_without_epoch_rejected(self):
        # 0.2 s rounds to no 1 s epoch (W=10, dt=0.1): its row would be nan
        with pytest.raises(ValueError, match="checkpoint 0.2s covers no 1s epoch"):
            cmd_align(
                attacked_scenario(), reference_params(), seed=0,
                checkpoints_s=(0.2, 20.0), repeats=1,
            )

    def test_repeated_checkpoint_rejected(self):
        # a repeated checkpoint's row counted each repeat twice: 2 hits of 2 runs
        with pytest.raises(ValueError, match="checkpoint 5.0s is repeated"):
            cmd_align(
                attacked_scenario(), reference_params(), seed=3,
                checkpoints_s=(5.0, 5.0), repeats=2,
            )

    def test_checkpoint_beyond_window_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            cmd_align(
                attacked_scenario(), reference_params(), seed=0,
                checkpoints_s=(900.0,),
            )


class TestFalseAlarms:
    def test_tiny_alpha_rate_zero(self):
        rate = cmd_false_alarms(
            default_scenario(alpha=1e-6), reference_params(), seed=4,
            repeats=2, n_epochs=60,
        )
        assert rate == 0.0

    def test_attacked_scenario_rejected(self):
        with pytest.raises(ValueError):
            cmd_false_alarms(attacked_scenario(), reference_params(), seed=0)

    def test_stability_across_seeds(self):
        rates = [
            cmd_false_alarms(
                default_scenario(), reference_params(), seed=s, repeats=1,
                n_epochs=400,
            )
            for s in (11, 12, 13)
        ]
        center = np.mean(rates)
        assert center > 0
        for r in rates:
            assert abs(r - center) <= 0.5 * center


class TestBoundsReport:
    def test_keys_complete_and_regenerable(self, tmp_path):
        sc = default_scenario()
        params = reference_params()
        path = tmp_path / "report.txt"
        cmd_bounds_report(sc, params, seed=9, out_path=path, n_epochs=12)
        text = path.read_text()
        keys = {line.split("=")[0] for line in text.splitlines() if "=" in line and not line.startswith("#")}
        assert keys == {f.name for f in dataclasses.fields(BoundReport)}
        # deterministic regeneration: identical headers imply identical output
        path2 = tmp_path / "report2.txt"
        cmd_bounds_report(sc, params, seed=9, out_path=path2, n_epochs=12)
        assert path.read_text() == path2.read_text()

    def test_zero_noise_limits(self):
        params = PrivacyParams(
            eps_cov=1e12, eps_r=0.5, gamma_cov=0.01, gamma_r=0.01,
            delta_l=1e-9, delta_r=1e-3, p=3, sigma=5e-2,
        )
        report = build_bound_report(default_scenario(), params, seed=2, n_epochs=10)
        # statistic-disclosure budget collapses to the covariance budget
        assert report.eps_prime == pytest.approx(1e12, rel=1e-9)
        assert report.delta_prime == 0.0
        # the loss formula is dominated by its constant term as theta -> small
        q = report.cr_loss
        assert q > 0


class TestIngest:
    def _write(self, tmp_path, lines):
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_roundtrip_identity(self, tmp_path):
        from dpalarm.ekf import residuals_to_csv
        from dpalarm.pipeline import residual_stream

        records = residual_stream(default_scenario(), 50, seed=1)
        path = tmp_path / "r.csv"
        with open(path, "w") as fh:
            residuals_to_csv(records, fh)
        ok, rejected = cmd_ingest(path)
        assert rejected == 0
        assert len(ok) == 50
        for a, b in zip(records, ok):
            assert a.t == b.t and np.array_equal(a.r, b.r) and np.array_equal(a.s, b.s)

    def test_shuffled_t_rejected(self, tmp_path):
        header = "t,r1,s11"
        path = self._write(tmp_path, [header, "2,0.1,1.0", "1,0.2,1.0"])
        with pytest.raises(ValueError, match="row 3"):
            cmd_ingest(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,0.2,1.0", "step index 1 not increasing (prev 2)"),
            ("3,x,1.0", "could not convert string to float: 'x'"),
            ("2.5,0.2,1.0", "invalid literal for int() with base 10: '2.5'"),
        ],
    )
    def test_error_names_the_file_row(self, tmp_path, row, message):
        # blank lines count: the bad record is on line 5 of the file
        path = self._write(tmp_path, ["t,r1,s11", "2,0.1,1.0", "", "", row])
        with pytest.raises(ValueError) as info:
            cmd_ingest(path)
        assert str(info.value) == f"row 5: {message}"

    def test_non_psd_rows_counted(self, tmp_path):
        header = "t,r1,r2,s11,s12,s21,s22"
        rows = [
            "1,0.1,0.2,1.0,0.0,0.0,1.0",
            "2,0.1,0.2,-1.0,0.0,0.0,1.0",  # negative eigenvalue
            "3,0.1,0.2,1.0,0.9,0.2,1.0",  # asymmetric
            "4,0.1,0.2,2.0,0.0,0.0,2.0",
            "5,nan,0.2,1.0,0.0,0.0,1.0",
            "6,inf,0.2,1.0,0.0,0.0,1.0",
            "7,0.1,0.2,nan,0.0,0.0,1.0",  # eig_factorize alone passes this one
        ]
        ok, rejected = cmd_ingest(self._write(tmp_path, [header] + rows))
        assert rejected == 5
        assert [r.t for r in ok] == [1, 4]


def test_client_missing_csv_is_session_incomplete(tmp_path, capsys):
    source = f"csv:{tmp_path / 'none.csv'}"
    argv = ["client", "--connect", "127.0.0.1:1", "--mode", "cr", "--source", source, "--epochs", "2"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("session incomplete: [Errno 2] No such file or directory")


def _outputs(out_dir):
    return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.rglob("*")) if p.is_file()}


def _header_hash(path):
    for line in path.read_text().splitlines():
        if line.startswith("# params_hash="):
            return line.split("=", 1)[1]
    raise AssertionError(f"{path} has no params_hash header")


class TestReproducibility:
    """Every output-writing subcommand gives the same bytes for the same seed."""

    def _run_twice(self, tmp_path, capsys, argv):
        outs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            assert cli.main(["--seed", "4", "--out", str(out_dir)] + argv) == 0
            printed = capsys.readouterr().out.replace(str(out_dir), "OUT")
            outs.append((printed, _outputs(out_dir) if out_dir.exists() else {}))
        assert outs[0] == outs[1]
        return tmp_path / "a", outs[0][0]

    def _params_file(self, tmp_path, params, scenario):
        path = tmp_path / "params.txt"
        path.write_text(format_params_text(params, scenario))
        return ["--params", str(path)]

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        out, _ = self._run_twice(tmp_path / "sim", capsys, ["simulate", "--steps", "40", "--residuals"])
        assert sorted(p.name for p in out.iterdir()) == ["residuals.csv", "trace.csv"]

        # an explicit sigma that the eps_cov cells must keep
        base = reference_params(sigma=2.0 * reference_params().sigma)
        sc = default_scenario()
        argv = self._params_file(tmp_path, base, sc)
        cfg = SweepConfig(param="eps_cov", grid=(10.0, 100.0), base=base, scenario=sc)
        out, _ = self._run_twice(
            tmp_path / "sweep", capsys,
            argv + ["sweep", "--param", "eps_cov", "--values", "10,100", "--epochs", "4", "--repeats", "1"],
        )
        for value in cfg.grid:
            cell = out / f"sweep_eps_cov_{value:g}_rep0.csv"
            assert _header_hash(cell) == params_hash(cfg.params_for(value), sc)
        # the summary names what each cell ran, not the base no cell ran
        summary = (out / "sweep_eps_cov_summary.csv").read_text().splitlines()
        assert not any(line.startswith("# params_hash=") for line in summary)
        assert [line for line in summary if line.startswith("# cell ")] == [
            f"# cell value={value:g} params_hash={params_hash(cfg.params_for(value), sc)}"
            for value in cfg.grid
        ]

        attacked = attacked_scenario()
        argv = self._params_file(tmp_path, reference_params(), attacked)
        out, _ = self._run_twice(
            tmp_path / "align", capsys, argv + ["align", "--repeats", "1", "--checkpoints", "3"]
        )
        assert _header_hash(out / "alignment.csv") == params_hash(reference_params(), attacked)

        _, printed = self._run_twice(
            tmp_path / "fa", capsys, ["false-alarms", "--repeats", "1", "--epochs", "20"]
        )
        assert printed.startswith("false_alarm_rate=")

        out, _ = self._run_twice(tmp_path / "br", capsys, ["bounds-report", "--epochs", "12"])
        assert _header_hash(out / "bounds_report.txt") == params_hash(reference_params(), sc)


class TestMainEntry:
    def test_subprocess_false_alarms(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "dpalarm.cli", "--seed", "2", "--out", str(tmp_path),
             "false-alarms", "--repeats", "1", "--epochs", "30"],
            env=src_env(), capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("false_alarm_rate=")

    def test_subprocess_ingest_error_exit(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,r1,s11\n2,0.1,1.0\n1,0.1,1.0\n")
        out = subprocess.run(
            [sys.executable, "-m", "dpalarm.cli", "ingest", str(bad)],
            env=src_env(), capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 1
        assert "ingest error" in out.stderr

    def test_subprocess_serve_client(self, tmp_path):
        import socket
        import time

        # pick a free port, then race-free enough for a loopback test
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        audit = tmp_path / "audit.log"
        srv = subprocess.Popen(
            [sys.executable, "-m", "dpalarm.cli", "serve", "--listen",
             f"127.0.0.1:{port}", "--audit", str(audit)],
            env=src_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 10
            while time.time() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", port), timeout=0.2).close()
                    break
                except OSError:
                    time.sleep(0.1)
            out = subprocess.run(
                [sys.executable, "-m", "dpalarm.cli", "--seed", "1", "client",
                 "--connect", f"127.0.0.1:{port}", "--mode", "cr", "--epochs", "5"],
                env=src_env(), capture_output=True, text=True, timeout=300,
            )
            assert out.returncode == 0, out.stderr
            assert out.stdout.count("w=") == 5
        finally:
            srv.terminate()
            srv.wait(timeout=10)


class TestAuditStats:
    """``audit-stats`` replays an audit log and counts per uid."""

    @pytest.fixture
    def audit(self, tmp_path):
        from dpalarm.netsvc import HarnessConfig, run_harness

        sc = default_scenario()
        config = HarnessConfig(
            n_utilities=2, n_epochs=6, params=reference_params(), scenario=sc, master_seed=2
        )
        path = tmp_path / "audit.log"
        assert not run_harness(config, path).partial
        # u1 resends an epoch index: a logged rejection that replays exactly
        lines = path.read_text().splitlines(keepends=True)
        i = max(k for k, ln in enumerate(lines) if '"uid":"u1"' in ln and " RX " in ln)
        rejection = '{"v":1,"uid":"u1","w":5,"rho_hat":0,"matched":0,"reason":"duplicate epoch index"}'
        stamp = lines[i].split(" ", 1)[0]
        path.write_text("".join(lines + [lines[i], f"{stamp} TX {rejection}\n"]))
        return path

    def test_counts_per_uid(self, audit, capsys):
        assert cli.main(["audit-stats", str(audit)]) == 0
        out = capsys.readouterr().out.splitlines()
        stats = cli.cmd_audit_stats(audit)
        assert sorted(stats) == ["u0", "u1"]
        assert (stats["u0"].tuples, stats["u0"].exact, stats["u0"].differing) == (6, 6, 0)
        assert (stats["u1"].tuples, stats["u1"].exact, stats["u1"].differing) == (7, 7, 0)
        assert stats["u1"].rejected == {"duplicate epoch index": 1} and stats["u0"].rejected == {}
        u1 = stats["u1"]
        assert out == [
            f'uid="u0" tuples=6 exact=6 differing=0 mismatched={stats["u0"].mismatched} rejected=0',
            f'uid="u1" tuples=7 exact=7 differing=0 mismatched={u1.mismatched} rejected=1',
            'uid="u1" reason="duplicate epoch index" rejected=1',
        ]

    def test_differing_replay_exits_1(self, audit, capsys):
        lines = audit.read_text().splitlines(keepends=True)
        i = next(k for k, ln in enumerate(lines) if '"uid":"u0"' in ln and " TX " in ln)
        flipped = lines[i].replace('"rho_hat":0', '"rho_hat":1') if '"rho_hat":0' in lines[i] \
            else lines[i].replace('"rho_hat":1', '"rho_hat":0')
        lines[i] = flipped
        audit.write_text("".join(lines))
        assert cli.main(["audit-stats", str(audit)]) == 1
        out = capsys.readouterr().out
        assert 'uid="u0" tuples=6 exact=5 differing=1' in out
        assert 'uid="u1" tuples=7 exact=7 differing=0' in out

    def test_malformed_audit_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("no-direction\n")
        assert cli.main(["audit-stats", str(bad)]) == 1
        assert "audit error: malformed audit line" in capsys.readouterr().err
