import io

import numpy as np
import pytest

from dpalarm.ekf import (
    EkfBelief,
    FilterError,
    jacobian,
    predict,
    residuals_from_csv,
    residuals_to_csv,
    run_filter,
    update,
)
from dpalarm.plant import AttackSpec, default_spec, generate_trace, observation, transition
from dpalarm.stats import eig_factorize, whiten
from conftest import random_psd


def g_jac(x, spec):
    """Closed-form Jacobian of the plant transition."""
    return np.array([[1.0, spec.dt], [-spec.dt * spec.a * np.cos(x[0]), 1.0 - spec.dt * spec.b]])


def h_jac(x):
    """Closed-form Jacobian of the plant observation."""
    return np.array([[1.0, 0.0], [0.0, 1.0], [np.cos(x[0]), 0.5]])


class TestJacobian:
    def test_identity(self):
        j = jacobian(lambda x: x, np.array([0.5, -1.0]))
        assert np.allclose(j, np.eye(2), atol=1e-9)

    def test_sin_block(self):
        j = jacobian(lambda x: np.array([np.sin(x[0]), x[1]]), np.zeros(2))
        assert np.allclose(j, np.eye(2), atol=1e-9)

    def test_plant_observation_analytic(self):
        spec = default_spec()
        x0 = np.array([0.3, 0.2])
        got = jacobian(lambda x: observation(x, spec), x0)
        assert np.max(np.abs(got - h_jac(x0))) < 1e-6

    def test_plant_transition_analytic(self):
        spec = default_spec()
        x0 = np.array([-0.7, 1.1])
        analytic = g_jac(x0, spec)
        got = jacobian(lambda x: transition(x, spec), x0)
        assert np.max(np.abs(got - analytic)) / np.max(np.abs(analytic)) < 1e-5

    def test_nonfinite_named(self):
        def bad(x):
            with np.errstate(invalid="ignore"):
                return np.array([np.sqrt(x[0])])

        with pytest.raises(FilterError, match="coordinate 0"):
            jacobian(bad, np.zeros(1))


class TestPredict:
    def test_covariance_matches_closed_form(self, rng):
        spec = default_spec()
        belief = EkfBelief(np.array([0.4, -0.3]), random_psd(rng, 2, (0.01, 2.0)))
        out = predict(belief, spec)
        g = g_jac(belief.x_hat, spec)
        assert np.array_equal(out.x_hat, transition(belief.x_hat, spec))
        assert np.allclose(out.cov, g @ belief.cov @ g.T + spec.process_cov, rtol=1e-8, atol=0)

    def test_psd_random_trials(self, rng):
        spec = default_spec()
        for _ in range(1000):
            belief = EkfBelief(rng.normal(size=2), random_psd(rng, 2, (0.01, 2.0)))
            out = predict(belief, spec)
            eig = np.linalg.eigvalsh(out.cov)
            assert eig[0] >= -1e-8 * np.trace(out.cov)
            assert np.allclose(out.cov, out.cov.T)


class TestUpdate:
    def test_zero_innovation(self):
        spec = default_spec()
        pred = EkfBelief(np.array([0.4, -0.1]), 0.1 * np.eye(2))
        y = observation(pred.x_hat, spec)
        belief, rec = update(pred, y, spec, t=3)
        assert np.array_equal(rec.r, np.zeros(3))
        assert np.array_equal(belief.x_hat, pred.x_hat)
        assert rec.t == 3

    def test_textbook_gain(self):
        spec = default_spec()
        pred = EkfBelief(np.array([0.2, 0.1]), np.diag([0.3, 0.2]))
        y = np.array([0.5, -0.2, 0.4])
        belief, _ = update(pred, y, spec)
        h = h_jac(pred.x_hat)
        s = h @ pred.cov @ h.T + spec.measurement_cov
        gain = pred.cov @ h.T @ np.linalg.inv(s)
        r = y - observation(pred.x_hat, spec)
        assert np.allclose(belief.x_hat, pred.x_hat + gain @ r, rtol=1e-8, atol=0)
        assert np.allclose(belief.cov, (np.eye(2) - gain @ h) @ pred.cov, rtol=1e-8, atol=1e-14)

    def test_residual_covariance_is_not_inverted(self):
        # S = H P H^T + R itself, the covariance of r under the null
        spec = default_spec()
        pred = EkfBelief(np.array([-0.6, 0.3]), np.array([[3.0, 0.5], [0.5, 2.0]]))
        _, rec = update(pred, np.array([0.2, 0.1, -0.3]), spec)
        h = h_jac(pred.x_hat)
        assert np.allclose(rec.s, h @ pred.cov @ h.T + spec.measurement_cov, rtol=1e-8, atol=0)


class TestRunFilter:
    def _clean_setup(self, n_steps, seed, attack=None):
        spec = default_spec()
        trace = generate_trace(spec, attack, n_steps, seed=seed)
        init = EkfBelief(np.zeros(spec.m), 1e-3 * np.eye(spec.m))
        return spec, run_filter(trace, spec, init)

    def test_matches_textbook_ekf(self):
        # the same filter written out with the closed-form G and H
        at = AttackSpec("bias", frozenset({0}), 0.5, 200, 10**9)
        spec = default_spec()
        trace = generate_trace(spec, at, 500, seed=11)
        records = run_filter(trace, spec, EkfBelief(np.zeros(2), 1e-3 * np.eye(2)))
        x, p = np.zeros(2), 1e-3 * np.eye(2)
        for step, rec in zip(trace, records):
            g = g_jac(x, spec)
            x, p = transition(x, spec), g @ p @ g.T + spec.process_cov
            h = h_jac(x)
            r = step.y - observation(x, spec)
            s = h @ p @ h.T + spec.measurement_cov
            gain = p @ h.T @ np.linalg.inv(s)
            x, p = x + gain @ r, (np.eye(2) - gain @ h) @ p
            assert rec.t == step.t
            assert np.linalg.norm(rec.r - r) <= 1e-8 * np.linalg.norm(r)
            assert np.linalg.norm(rec.s - s) <= 1e-8 * np.linalg.norm(s)

    def test_zero_noise_perfect_init(self):
        spec = default_spec(q_scale=0.0, r_scale=0.0)
        trace = generate_trace(spec, None, 100, seed=1, x0=np.array([0.2, 0.1]))
        init = EkfBelief(np.array([0.2, 0.1]), np.zeros((2, 2)))
        # the nominal noise covariances keep S invertible
        records = run_filter(trace, default_spec(), init)
        assert max(float(np.linalg.norm(r.r)) for r in records) < 1e-6

    def test_deterministic(self):
        _, a = self._clean_setup(150, seed=4)
        _, b = self._clean_setup(150, seed=4)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.r, rb.r) and np.array_equal(ra.s, rb.s)

    def test_null_whitened_mean(self):
        # module-level band: mean of the whitened squared norm within 0.1*d
        _, records = self._clean_setup(3000, seed=8)
        vals = []
        for rec in records[100:]:
            tau = whiten(rec.r, eig_factorize(rec.s))
            vals.append(float(tau @ tau))
        assert abs(np.mean(vals) - 3.0) < 0.3

    def test_attack_raises_statistic(self):
        # bias of 5 sigma_meas on one sensor, paired against the clean trace
        at = AttackSpec("bias", frozenset({0}), 0.5, 500, 10**9)
        _, clean = self._clean_setup(1000, seed=6)
        _, hit = self._clean_setup(1000, seed=6, attack=at)

        def mean_stat(records):
            vals = []
            for rec in records:
                tau = whiten(rec.r, eig_factorize(rec.s))
                vals.append(float(tau @ tau))
            return np.mean(vals)

        clean_window = mean_stat(clean[520:900])
        hit_window = mean_stat(hit[520:900])
        assert hit_window > clean_window + 3.0

    def test_step_error_annotated(self):
        spec = default_spec()
        trace = generate_trace(spec, None, 5, seed=2)
        bad = trace[:2] + [trace[2].__class__(t=3, x=trace[2].x, y=np.array([np.nan] * 3))]
        init = EkfBelief(np.zeros(2), 1e-3 * np.eye(2))
        with pytest.raises(FilterError, match="t=3"):
            run_filter(bad, spec, init)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            run_filter([], default_spec(), EkfBelief(np.zeros(2), np.eye(2)))


class TestResidualCsv:
    def test_roundtrip_exact(self):
        spec = default_spec()
        trace = generate_trace(spec, None, 30, seed=5)
        init = EkfBelief(np.zeros(2), 1e-3 * np.eye(2))
        records = run_filter(trace, spec, init)
        buf = io.StringIO()
        residuals_to_csv(records, buf)
        buf.seek(0)
        back = residuals_from_csv(buf)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.t == b.t
            assert np.array_equal(a.r, b.r)
            assert np.array_equal(a.s, b.s)

    def test_header_schema(self):
        buf = io.StringIO("t,r1,badcol\n")
        with pytest.raises(ValueError):
            residuals_from_csv(buf)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,x,1.0", "could not convert string to float: 'x'"),
            ("2.5,0.1,1.0", "invalid literal for int() with base 10: '2.5'"),
            ("1,0.1,1.0", "step index 1 not increasing (prev 1)"),
        ],
    )
    def test_row_errors_name_the_file_row(self, row, message):
        buf = io.StringIO(f"t,r1,s11\n1,0.1,1.0\n\n{row}\n")
        with pytest.raises(ValueError) as info:
            residuals_from_csv(buf)
        assert str(info.value) == f"row 4: {message}"
