import dataclasses
import json

import numpy as np
import pytest

from dpalarm.config import default_scenario, format_params_text, parse_params_text
from dpalarm.privacy import (
    PrivacyParams,
    gaussian_sum_bound,
    gdp_perturb,
    gdp_sigma,
    laplace_max_bound,
    perturb_covariance,
    sequential_disclose,
)
from dpalarm.protocol import Handshake, decode_record, encode_record
from dpalarm.stats import eig_factorize, whiten
from conftest import random_psd


class TestGdpSigma:
    def test_reference_value(self):
        # direct evaluation at delta_r=50, eps_r=1e-3, gamma_r=1e-2
        sigma = gdp_sigma(50.0, 1e-3, 1e-2)
        assert sigma == pytest.approx(155375.57300461197, rel=1e-12)

    def test_vanishing_sensitivity(self):
        assert gdp_sigma(0.0, 0.5, 1e-2) == 0.0

    def test_equality_calibration(self):
        sigma = gdp_sigma(1.0, 0.5, 0.05)
        assert sigma == pytest.approx(1.0 / 0.5 * np.sqrt(2 * np.log(1.25 / 0.05)))

    def test_eps_range_waiver(self):
        with pytest.raises(ValueError, match="waive"):
            gdp_sigma(1.0, 2.0, 0.05)
        assert gdp_sigma(1.0, 2.0, 0.05, waive_eps_range=True) > 0

    def test_bad_gamma(self):
        with pytest.raises(ValueError):
            gdp_sigma(1.0, 0.5, 1.3)


class TestGaussianSumBound:
    def test_boundary_zero(self):
        # sigma^2 eps / delta == p delta / 2 exactly; zero is already vacuous
        with pytest.warns(UserWarning, match="vacuous"):
            assert gaussian_sum_bound(2.0, 0.5, 2.0, 1) == pytest.approx(0.0)

    def test_arithmetic_example(self):
        assert gaussian_sum_bound(10.0, 0.5, 1.0, 4) == pytest.approx(48.0)

    def test_vacuous_warns(self):
        with pytest.warns(UserWarning, match="vacuous"):
            gaussian_sum_bound(0.1, 0.5, 10.0, 3)

    def test_tail_probability_p1(self, rng):
        # the sum-bound tail claim at the equality-calibrated sigma, p=1
        delta_r, eps_r, gamma_r = 50.0, 1e-3, 1e-2
        sigma = gdp_sigma(delta_r, eps_r, gamma_r)
        theta = gaussian_sum_bound(sigma, eps_r, delta_r, 1)
        n = 1_000_000
        draws = sigma * rng.standard_normal(n)
        rate = np.mean(np.abs(draws) >= theta)
        assert rate <= gamma_r + 3 * np.sqrt(gamma_r * (1 - gamma_r) / n)


class TestLaplaceMaxBound:
    def test_reference_value(self):
        assert laplace_max_bound(0.1, 100.0, 1e-2, 3) == pytest.approx(
            0.005703782474656201, rel=1e-12
        )

    def test_gamma_equals_d(self):
        assert laplace_max_bound(1.0, 1.0, 3.0, 3) == 0.0

    def test_monotone_in_eps(self):
        vals = [laplace_max_bound(0.1, e, 1e-2, 3) for e in (1.0, 10.0, 100.0, 1000.0)]
        assert np.all(np.diff(vals) < 0)


class TestPrivacyParams:
    def test_sigma_autoderived(self):
        p = PrivacyParams(1.0, 0.5, 0.01, 0.01, 0.1, 1.0, 3)
        assert p.sigma == pytest.approx(gdp_sigma(1.0, 0.5, 0.01))

    def test_sigma_below_minimum_rejected(self):
        # every route that builds params: constructor, replace, wire, params file
        with pytest.raises(ValueError, match="minimum"):
            PrivacyParams(1.0, 0.5, 0.01, 0.01, 0.1, 1.0, 3, sigma=0.1)
        p = PrivacyParams(1.0, 0.5, 0.01, 0.01, 0.1, 1.0, 3)
        low = 0.5 * p.sigma_min
        with pytest.raises(ValueError, match="minimum"):
            dataclasses.replace(p, sigma=low)
        wire = json.loads(encode_record(Handshake("u", "cr", 3, 10, p)))
        wire["params"]["sigma"] = low
        with pytest.raises(ValueError, match="minimum"):
            decode_record(json.dumps(wire))
        text = format_params_text(p, default_scenario())
        assert f"sigma={p.sigma}\n" in text
        with pytest.raises(ValueError, match="minimum"):
            parse_params_text(text.replace(f"sigma={p.sigma}", f"sigma={low}"))

    @pytest.mark.parametrize("p", [2.5, 2.0, True])
    def test_non_integer_p_rejected(self, p):
        # a float p ran at that many degrees of freedom while the handshake said int(p)
        with pytest.raises(ValueError, match="p must be an integer"):
            PrivacyParams(100.0, 1e-3, 0.01, 0.01, 0.1, 50.0, p)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["eps_cov", "eps_r", "delta_l", "delta_r", "sigma"])
    def test_non_finite_value_rejected(self, key, bad):
        # an infinite eps_cov drew no covariance noise, and NaN passed the > 0 test;
        # constructor and params file alike
        base = PrivacyParams(1.0, 0.5, 0.01, 0.01, 0.1, 1.0, 3)
        message = rf"^{key} must be finite(?: and > 0)?, got {bad}$"
        with pytest.raises(ValueError, match=message):
            PrivacyParams(**{**base.to_flat(), key: bad})
        lines = format_params_text(base, default_scenario()).splitlines()
        text = "\n".join(f"{key}={bad}" if ln.startswith(f"{key}=") else ln for ln in lines)
        with pytest.raises(ValueError, match=message):
            parse_params_text(text)

    def test_overflowing_derived_sigma_rejected(self):
        # delta_r / eps_r overflows: the minimum sigma is inf
        with pytest.raises(ValueError, match=r"^sigma must be finite, got inf$"):
            PrivacyParams(1.0, 1e-320, 0.01, 0.01, 0.1, 1.0, 3)

    def test_sigma_above_minimum_ok(self):
        p = PrivacyParams(1.0, 0.5, 0.01, 0.01, 0.1, 1.0, 3, sigma=100.0)
        assert p.sigma == 100.0

    def test_eps_r_waiver_flag(self):
        with pytest.raises(ValueError):
            PrivacyParams(1.0, 5.0, 0.01, 0.01, 0.1, 1.0, 3)
        p = PrivacyParams(1.0, 5.0, 0.01, 0.01, 0.1, 1.0, 3, eps_r_waiver=True)
        assert p.eps_r == 5.0

    def test_flat_roundtrip(self):
        p = PrivacyParams(2.0, 0.7, 0.05, 0.02, 0.3, 4.0, 2)
        q = decode_record(encode_record(Handshake("u", "cr", 3, 10, p))).params
        assert q.to_flat() == p.to_flat()


class TestPerturbCovariance:
    def test_high_budget_preserves_matrix(self, rng):
        s = random_psd(rng, 3, (1.0, 5.0))
        out = perturb_covariance(s, delta_l=0.1, eps_cov=1e9, rng=rng)
        assert np.max(np.abs(out.s_hat - s)) < 1e-6
        assert out.clamp_count == 0

    def test_eigenvalue_tail(self, rng):
        # max |noisy - clean| <= laplace_max_bound with prob >= 1 - gamma_cov
        d, delta_l, eps_cov, gamma_cov = 3, 0.5, 2.0, 0.1
        theta = laplace_max_bound(delta_l, eps_cov, gamma_cov, d)
        s = np.diag([4.0, 2.0, 1.0])
        lam = np.array([4.0, 2.0, 1.0])
        n = 10_000
        hits = 0
        for _ in range(n):
            out = perturb_covariance(s, delta_l, eps_cov, rng)
            if np.max(np.abs(out.lambdas_raw - lam)) <= theta:
                hits += 1
        freq = hits / n
        assert freq >= (1 - gamma_cov) - 3 * np.sqrt(gamma_cov * (1 - gamma_cov) / n)

    def test_floor_keeps_invertible(self, rng):
        s = np.diag([1e-6, 1e-7, 1e-8])
        for _ in range(200):
            out = perturb_covariance(s, delta_l=1.0, eps_cov=1.0, rng=rng)
            assert np.all(out.fac.lambdas >= out.floor)
            assert np.isfinite(np.linalg.cond(out.s_hat))

    def test_descending_order_after_perturbation(self, rng):
        s = random_psd(rng, 4, (1.0, 2.0))
        out = perturb_covariance(s, delta_l=5.0, eps_cov=1.0, rng=rng)
        assert np.all(np.diff(out.fac.lambdas) <= 1e-12)

    def test_clamp_is_postprocessing(self, rng):
        # flooring only lifts values below the floor; draws above it pass
        # through untouched, so the noise itself is never altered
        s = np.diag([2.0, 1.0, 0.5])
        for _ in range(300):
            out = perturb_covariance(s, delta_l=1.0, eps_cov=1.0, rng=rng)
            clamped = np.sort(out.fac.lambdas)[::-1]
            raw_sorted = np.sort(np.maximum(out.lambdas_raw, out.floor))[::-1]
            assert np.array_equal(clamped, raw_sorted)
            above = out.lambdas_raw >= out.floor
            assert np.all(np.isin(out.lambdas_raw[above], out.fac.lambdas))


class TestGdpPerturb:
    def test_tiny_sigma_identity(self, rng):
        tau = np.array([1.0, -2.0])
        hat, e = gdp_perturb(tau, 1e-30, rng)
        assert np.allclose(hat, tau)
        assert np.max(np.abs(e)) < 1e-25

    def test_noise_variance(self, rng):
        sigma = 3.0
        _, e = gdp_perturb(np.zeros(1_000_000), sigma, rng)
        assert abs(np.var(e) - sigma**2) / sigma**2 < 0.01

    def test_norm_bound_fraction(self, rng):
        # P(||e||^2 <= theta^2/p) >= (1-gamma)^p in the regimes where the
        # claim holds: p=1 at the calibrated minimum, p=3 needs sigma above it
        cases = [(1, 1.0), (3, 3.0)]
        delta_r, eps_r, gamma_r = 50.0, 1e-3, 1e-2
        sig_min = gdp_sigma(delta_r, eps_r, gamma_r)
        for p, mult in cases:
            sigma = mult * sig_min
            theta = gaussian_sum_bound(sigma, eps_r, delta_r, p)
            n = 100_000
            e = sigma * rng.standard_normal((n, p))
            frac = np.mean((e**2).sum(axis=1) <= theta**2 / p)
            target = (1 - gamma_r) ** p
            assert frac >= target - 3 * np.sqrt(target * (1 - target) / n)


class TestSequentialDisclose:
    def _params(self):
        return PrivacyParams(
            eps_cov=100.0, eps_r=0.5, gamma_cov=0.01, gamma_r=0.01,
            delta_l=0.1, delta_r=1.0, p=3,
        )

    def test_zero_noise_composition(self, rng):
        s = random_psd(rng, 3, (1.0, 4.0))
        r = rng.normal(size=3)
        params = PrivacyParams(
            eps_cov=1e12, eps_r=1e12, gamma_cov=0.01, gamma_r=0.01,
            delta_l=0.1, delta_r=1.0, p=3, eps_r_waiver=True,
        )
        disc = sequential_disclose(r, s, params, rng)
        expect = whiten(r, eig_factorize(s, count=3))
        assert np.max(np.abs(np.sort(disc.tau_res_hat) - np.sort(expect))) < 1e-6

    def test_regulator_recomputation_roundtrip(self, rng):
        # whitening the regulator-frame residual with s_hat recovers the
        # disclosed statistic exactly
        for _ in range(50):
            s = random_psd(rng, 4, (0.5, 3.0))
            r = rng.normal(size=4)
            params = PrivacyParams(
                eps_cov=50.0, eps_r=0.5, gamma_cov=0.01, gamma_r=0.01,
                delta_l=0.1, delta_r=1.0, p=4,
            )
            disc = sequential_disclose(r, s, params, rng)
            tau_back = whiten(disc.tau_rg, eig_factorize(disc.s_hat, count=4))
            assert abs(float(tau_back @ tau_back) - disc.t_res_hat) <= 1e-8 * max(
                disc.t_res_hat, 1.0
            )

    def test_nonfinite_residual_rejected(self, rng):
        s = np.eye(3)
        with pytest.raises(ValueError, match="finite"):
            sequential_disclose(np.array([np.nan, 0, 0]), s, self._params(), rng)
