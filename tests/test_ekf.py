import io

import numpy as np
import pytest

from dpalarm.ekf import (
    EkfBelief,
    FilterError,
    StateSpaceModel,
    jacobian,
    plant_model,
    predict,
    residuals_from_csv,
    residuals_to_csv,
    run_filter,
    update,
)
from dpalarm.plant import AttackSpec, default_spec, generate_trace
from dpalarm.stats import eig_factorize, whiten
from conftest import random_psd


def linear_model(gain=2.0, m=2):
    return StateSpaceModel(g=lambda x, u: gain * x, h=lambda x: x, m=m, d=m)


def scalar_model():
    return StateSpaceModel(g=lambda x, u: x, h=lambda x: x, m=1, d=1)


class TestJacobian:
    def test_identity(self):
        j = jacobian(lambda x: x, np.array([0.5, -1.0]))
        assert np.allclose(j, np.eye(2), atol=1e-9)

    def test_sin_block(self):
        j = jacobian(lambda x: np.array([np.sin(x[0]), x[1]]), np.zeros(2))
        assert np.allclose(j, np.eye(2), atol=1e-9)

    def test_plant_observation_analytic(self):
        spec = default_spec()
        model = plant_model(spec)
        x0 = np.array([0.3, 0.2])
        analytic = np.array([[1.0, 0.0], [0.0, 1.0], [np.cos(0.3), 0.5]])
        assert np.max(np.abs(jacobian(model.h, x0) - analytic)) < 1e-6

    def test_plant_transition_analytic(self):
        spec = default_spec()
        model = plant_model(spec)
        x0 = np.array([-0.7, 1.1])
        analytic = np.array(
            [[1.0, spec.dt], [-spec.dt * spec.a * np.cos(-0.7), 1.0 - spec.dt * spec.b]]
        )
        got = jacobian(lambda x: model.g(x, 0.0), x0)
        assert np.max(np.abs(got - analytic)) / np.max(np.abs(analytic)) < 1e-5

    def test_nonfinite_named(self):
        def bad(x):
            with np.errstate(invalid="ignore"):
                return np.array([np.sqrt(x[0])])

        with pytest.raises(FilterError, match="coordinate 0"):
            jacobian(bad, np.zeros(1))


class TestPredict:
    def test_identity_model_no_noise(self):
        belief = EkfBelief(np.array([1.0, 2.0]), np.diag([0.5, 0.25]))
        out = predict(belief, 0.0, linear_model(1.0), np.zeros((2, 2)))
        assert np.allclose(out.x_hat, belief.x_hat)
        assert np.allclose(out.cov, belief.cov, atol=1e-9)

    def test_linear_gain(self):
        belief = EkfBelief(np.zeros(2), np.eye(2))
        out = predict(belief, 0.0, linear_model(2.0), np.eye(2))
        assert np.allclose(out.cov, 5.0 * np.eye(2), atol=1e-6)

    def test_psd_random_trials(self, rng):
        spec = default_spec()
        model = plant_model(spec)
        for _ in range(1000):
            belief = EkfBelief(rng.normal(size=2), random_psd(rng, 2, (0.01, 2.0)))
            out = predict(belief, float(rng.normal()), model, spec.process_cov)
            eig = np.linalg.eigvalsh(out.cov)
            assert eig[0] >= -1e-8 * np.trace(out.cov)
            assert np.allclose(out.cov, out.cov.T)

    def test_bad_q_shape(self):
        with pytest.raises(ValueError, match="Q"):
            predict(EkfBelief(np.zeros(2), np.eye(2)), 0.0, linear_model(), np.eye(3))


class TestUpdate:
    def test_zero_innovation(self):
        pred = EkfBelief(np.array([0.4, -0.1]), 0.1 * np.eye(2))
        y = pred.x_hat.copy()
        belief, rec = update(pred, y, linear_model(1.0), 0.01 * np.eye(2), t=3)
        assert np.allclose(rec.r, 0.0)
        assert np.allclose(belief.x_hat, pred.x_hat)
        assert rec.t == 3

    def test_textbook_scalar_gain(self):
        pred = EkfBelief(np.zeros(1), np.eye(1))
        belief, rec = update(pred, np.array([1.0]), scalar_model(), np.eye(1))
        # K = P H (H P H + R)^-1 = 0.5; P+ = (1-K)P = 0.5
        assert belief.x_hat[0] == pytest.approx(0.5, abs=1e-9)
        assert belief.cov[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert rec.s[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_residual_covariance_is_not_inverted(self):
        pred = EkfBelief(np.zeros(1), np.array([[3.0]]))
        _, rec = update(pred, np.array([0.2]), scalar_model(), np.array([[1.0]]))
        assert rec.s[0, 0] == pytest.approx(4.0, abs=1e-9)


class TestRunFilter:
    def _clean_setup(self, n_steps, seed, attack=None):
        spec = default_spec()
        trace = generate_trace(spec, attack, n_steps, seed=seed)
        model = plant_model(spec)
        init = EkfBelief(np.zeros(spec.m), 1e-3 * np.eye(spec.m))
        records = run_filter(trace, model, spec.process_cov, spec.measurement_cov, init)
        return spec, records

    def test_zero_noise_perfect_init(self):
        spec = default_spec(
            process_cov=np.zeros((2, 2)), measurement_cov=np.zeros((3, 3))
        )
        trace = generate_trace(spec, None, 100, seed=1, x0=np.array([0.2, 0.1]))
        model = plant_model(spec)
        init = EkfBelief(np.array([0.2, 0.1]), np.zeros((2, 2)))
        nominal = default_spec()
        records = run_filter(
            trace, model, nominal.process_cov, nominal.measurement_cov, init
        )
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
        model = plant_model(spec)
        init = EkfBelief(np.zeros(2), 1e-3 * np.eye(2))
        with pytest.raises(FilterError, match="t=3"):
            run_filter(bad, model, spec.process_cov, spec.measurement_cov, init)

    def test_empty_trace_rejected(self):
        spec = default_spec()
        with pytest.raises(ValueError):
            run_filter(
                [], plant_model(spec), spec.process_cov, spec.measurement_cov,
                EkfBelief(np.zeros(2), np.eye(2)),
            )


class TestResidualCsv:
    def test_roundtrip_exact(self):
        spec = default_spec()
        trace = generate_trace(spec, None, 30, seed=5)
        init = EkfBelief(np.zeros(2), 1e-3 * np.eye(2))
        records = run_filter(
            trace, plant_model(spec), spec.process_cov, spec.measurement_cov, init
        )
        buf = io.StringIO()
        residuals_to_csv(records, buf)
        buf.seek(0)
        back = residuals_from_csv(buf)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.t == b.t
            assert np.array_equal(a.r, b.r)
            assert np.array_equal(a.s, b.s)
            # the CSV carries no measurements: a shared, read-only NaN vector
            assert np.all(np.isnan(b.y)) and b.y.shape == (b.d,)
            assert not b.y.flags.writeable

    def test_header_schema(self):
        buf = io.StringIO("t,r1,badcol\n")
        with pytest.raises(ValueError):
            residuals_from_csv(buf)
