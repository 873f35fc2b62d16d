import io

import numpy as np
import pytest

from dpalarm.plant import (
    AttackSpec,
    SimulationFault,
    default_spec,
    generate_trace,
    inject_attack,
    trace_to_csv,
)


def zero_noise_spec(**kw):
    return default_spec(q_scale=0.0, r_scale=0.0, **kw)


class TestSimulateStep:
    def test_origin_fixed_point(self):
        (step,) = generate_trace(zero_noise_spec(), None, 1, seed=0, x0=np.zeros(2))
        assert step.t == 1
        assert np.allclose(step.x, 0.0)
        assert np.allclose(step.y, 0.0)

    def test_pendulum_step(self):
        spec = zero_noise_spec(dt=0.1, a=1.0, b=0.5)
        (step,) = generate_trace(spec, None, 1, seed=0, x0=np.array([np.pi / 2, 0.0]))
        assert np.allclose(step.x, [np.pi / 2, -0.1])

    def test_divergence_fault(self):
        # x1' = x1 + dt * x2 overflows to inf
        x0 = np.array([1.7e308, 1.7e308])
        with np.errstate(over="ignore"), pytest.raises(SimulationFault, match="diverged at step 1"):
            generate_trace(zero_noise_spec(), None, 1, seed=0, x0=x0)

    def test_nonfinite_initial_state_rejected(self):
        with pytest.raises(ValueError, match="initial state must be finite"):
            generate_trace(zero_noise_spec(), None, 1, seed=0, x0=np.array([np.nan, 0.0]))

    def test_stationary_mean(self):
        # oracle: std of the trace-mean of y across 40 seeds is
        # ~(0.0014, 0.0017, 0.0014) per component; 3x bands below.
        band = np.array([0.0044, 0.0052, 0.0043])
        trace = generate_trace(default_spec(), None, 10_000, seed=123)
        mean_y = np.mean([s.y for s in trace], axis=0)
        assert np.all(np.abs(mean_y) < band)


class TestInjectAttack:
    def test_identity_outside_window(self):
        at = AttackSpec("bias", frozenset({0}), 2.0, 10, 20)
        y = np.array([1.0, 1.0, 1.0])
        assert np.array_equal(inject_attack(y, at, 5, y), y)

    def test_bias(self):
        at = AttackSpec("bias", frozenset({0}), 2.0, 0, 100)
        out = inject_attack(np.array([1.0, 1.0, 1.0]), at, 5, np.zeros(3))
        assert np.allclose(out, [3.0, 1.0, 1.0])

    def test_replay(self):
        at = AttackSpec("replay", frozenset({0, 1}), 0.0, 0, 100)
        out = inject_attack(np.array([1.0, 2.0, 3.0]), at, 5, np.array([5.0, 5.0, 5.0]))
        assert np.allclose(out, [5.0, 5.0, 3.0])

    def test_variance_scale(self):
        at = AttackSpec("variance_scale", frozenset({2}), 3.0, 0, 100)
        out = inject_attack(np.array([1.0, 1.0, 2.0]), at, 5, np.array([0.0, 0.0, 1.0]))
        # center 1.0, deviation 1.0, scaled by 3
        assert np.allclose(out, [1.0, 1.0, 4.0])

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            AttackSpec("bias", frozenset(), 1.0, 0, 10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            AttackSpec("drift", frozenset({0}), 1.0, 0, 10)


class TestGenerateTrace:
    def test_deterministic(self):
        a = generate_trace(default_spec(), None, 200, seed=7)
        b = generate_trace(default_spec(), None, 200, seed=7)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.x, sb.x) and np.array_equal(sa.y, sb.y)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            generate_trace(default_spec(), None, 0, seed=1)

    def test_attack_locality_zero_noise(self):
        spec = zero_noise_spec()
        x0 = np.array([0.4, -0.2])
        at = AttackSpec("bias", frozenset({1}), 0.7, 50, 80)
        clean = generate_trace(spec, None, 120, seed=3, x0=x0)
        hit = generate_trace(spec, at, 120, seed=3, x0=x0)
        for sc, sh in zip(clean, hit):
            diff = sh.y - sc.y
            assert np.array_equal(sc.x, sh.x)
            if 50 <= sc.t <= 80:
                assert diff[1] == pytest.approx(0.7)
                assert diff[0] == 0.0 and diff[2] == 0.0
            else:
                assert np.all(diff == 0.0)

    def test_zero_noise_closure(self):
        from dpalarm.plant import observation

        spec = zero_noise_spec()
        trace = generate_trace(spec, None, 50, seed=0, x0=np.array([0.3, 0.1]))
        for s in trace:
            assert np.allclose(s.y, observation(s.x, spec), atol=1e-15)


class TestTraceCsv:
    def test_header(self):
        trace = generate_trace(default_spec(), None, 2, seed=9)
        buf = io.StringIO()
        trace_to_csv(trace, buf)
        assert buf.getvalue().splitlines()[0] == "t,x1,x2,y1,y2,y3"


class TestSpecValidation:
    def test_covariances(self):
        # Q and R are the scales times the identity; a scale is finite and >= 0
        spec = default_spec(q_scale=3e-4, r_scale=0.0)
        assert np.array_equal(spec.process_cov, 3e-4 * np.eye(2))
        assert np.array_equal(spec.measurement_cov, np.zeros((3, 3)))
        for name in ("q_scale", "r_scale"):
            for bad in (-1e-4, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=rf"^{name} must be finite and >= 0, got {bad}$"):
                    default_spec(**{name: bad})
