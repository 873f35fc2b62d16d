import numpy as np

from dpalarm import protocol
from dpalarm.config import default_scenario
from dpalarm.pipeline import epoch_stream, residual_stream, run_pipeline
from dpalarm.privacy import PrivacyParams


def residual_scale_params(**kw):
    """Noise scale comparable to the whitened residuals (unit-ish sigma)."""
    base = dict(
        eps_cov=100.0, eps_r=0.932, gamma_cov=1e-2, gamma_r=1e-2,
        delta_l=0.1, delta_r=0.3, p=3,
    )
    base.update(kw)
    return PrivacyParams(**base)


class TestResidualStream:
    def test_warmup_discarded(self):
        sc = default_scenario()
        records = residual_stream(sc, 50, seed=1)
        assert len(records) == 50
        assert records[0].t == sc.warmup_steps + 1

    def test_epoching_drops_partial(self):
        sc = default_scenario()
        records = residual_stream(sc, 57, seed=1)
        aggs = epoch_stream(records, sc)
        assert len(aggs) == 5
        assert all(a.n_steps == sc.epoch_len for a in aggs)


class TestRunPipeline:
    def test_deterministic(self):
        sc = default_scenario()
        params = residual_scale_params()
        a, _ = run_pipeline(sc, params, 30, seed=3, mode="pv")
        b, _ = run_pipeline(sc, params, 30, seed=3, mode="pv")
        assert [(e.rho, e.rho_hat, e.result.t_res_scaled) for e in a] == [
            (e.rho, e.rho_hat, e.result.t_res_scaled) for e in b
        ]

    def test_equivalent_alpha_magnitude_band(self):
        # at residual-scale noise and a 0.01-class target, the steady-state
        # equivalent significance sits in the reference magnitude band
        sc = default_scenario(alpha=0.01)
        params = residual_scale_params()
        epochs, _ = run_pipeline(sc, params, 150, seed=5, mode="pv")
        steady = np.array([e.result.alpha_hat for e in epochs[60:]])
        assert 1e-5 <= float(steady.mean()) <= 1e-3

    def test_equivalent_alpha_cached_between_drifts(self):
        # the inversion is expensive; it must be reused until the tracked
        # window max moves materially, not recomputed per epoch
        sc = default_scenario(alpha=0.01)
        params = residual_scale_params()
        epochs, _ = run_pipeline(sc, params, 150, seed=6, mode="pv")
        values = [e.result.alpha_hat for e in epochs]
        assert len(set(values)) <= 15

    def test_dp_alarm_rate_tracks_equivalent_alpha(self):
        # the regulator's alarm fires at its own law's upper quantile, so the
        # null rate matches the mean disclosed significance level
        sc = default_scenario(alpha=0.05)
        params = residual_scale_params()
        epochs, _ = run_pipeline(sc, params, 1200, seed=7, mode="pv")
        rate = float(np.mean([e.rho_hat for e in epochs]))
        mean_ahat = float(np.mean([e.result.alpha_hat for e in epochs]))
        slack = 4 * np.sqrt(max(mean_ahat, 1e-4) / len(epochs))
        assert rate <= mean_ahat + slack

    def test_one_disclosure_per_epoch(self, monkeypatch):
        # sigma is fixed per session: each epoch spends the budget exactly once
        calls = []
        disclose = protocol.sequential_disclose

        def counting(*args, **kw):
            calls.append(1)
            return disclose(*args, **kw)

        monkeypatch.setattr(protocol, "sequential_disclose", counting)
        for mode in ("pv", "cr"):
            calls.clear()
            epochs, _ = run_pipeline(default_scenario(), residual_scale_params(), 40, seed=8, mode=mode)
            assert len(epochs) == len(calls) == 40
