import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from dpalarm import bounds
from dpalarm.bounds import (
    ALPHA_FLOOR,
    ALPHA_RTOL,
    BoundInputs,
    BoundReport,
    NormTracker,
    cov_gap_bound,
    cr_privacy_loss,
    equivalent_alpha,
    misclassification_bounds,
    residual_gap_interval,
    statistic_privacy_profile,
    type1_upper_bound,
)
from dpalarm.privacy import PrivacyParams, gaussian_sum_bound, laplace_max_bound, perturb_covariance
from dpalarm.stats import eig_factorize, noncentral_chi2_quantile, whiten
from conftest import ScanNormTracker, bisect_invert, random_psd


def make_inputs(
    tau_cur,
    tau_max=None,
    res_energy=1.0,
    r_max=1.0,
    d=3,
    p=None,
    sigma=1.0,
    eps_cov=100.0,
    delta_l=0.1,
    gamma_cov=0.01,
    gamma_r=0.01,
):
    tau_cur = np.asarray(tau_cur, dtype=float)
    p = len(tau_cur) if p is None else p
    params = PrivacyParams(
        eps_cov=eps_cov,
        eps_r=0.5,
        gamma_cov=gamma_cov,
        gamma_r=gamma_r,
        delta_l=delta_l,
        delta_r=1.0,
        p=p,
        sigma=max(sigma, 2.0 * np.sqrt(2 * np.log(1.25 / gamma_r))),
    )
    # force the requested sigma even below the calibrated floor for bound math
    object.__setattr__(params, "sigma", float(sigma))
    return BoundInputs(
        tau_cov_hat=tau_cur,
        tau_cov_max=tau_cur if tau_max is None else np.asarray(tau_max, dtype=float),
        res_energy=res_energy,
        r_max=r_max,
        d=d,
        params=params,
    )


class TestNormTracker:
    def test_single_insert(self):
        tr = NormTracker(5)
        tr.push(np.array([1.0, 2.0]))
        assert np.allclose(tr.max_vector, [1.0, 2.0])

    def test_smaller_insert_keeps_max(self):
        tr = NormTracker(5)
        tr.push(np.array([3.0, 0.0]))
        tr.push(np.array([1.0, 0.0]))
        assert np.allclose(tr.max_vector, [3.0, 0.0])

    def test_tie_breaks_most_recent(self):
        tr = NormTracker(5)
        tr.push(np.array([3.0, 0.0]))
        tr.push(np.array([0.0, 3.0]))
        assert np.allclose(tr.max_vector, [0.0, 3.0])

    def test_eviction_matches_brute_force(self, rng):
        tr = NormTracker(7)
        history = []
        for _ in range(40):
            v = rng.normal(size=3) * rng.uniform(0.1, 5.0)
            tr.push(v)
            history.append(v)
            window = history[-7:]
            norms = [float(u @ u) for u in window]
            best = max(norms)
            assert float(tr.max_vector @ tr.max_vector) == pytest.approx(best)

    def test_median_vector(self):
        tr = NormTracker(5)
        for scale in (1.0, 5.0, 3.0):
            tr.push(np.array([scale, 0.0]))
        assert np.allclose(tr.median_vector, [3.0, 0.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="warm-up"):
            NormTracker(3).max_vector

    def test_length_mismatch(self):
        tr = NormTracker(3)
        tr.push(np.zeros(2))
        with pytest.raises(ValueError):
            tr.push(np.zeros(3))

    # Entries from a few values, so distinct vectors often share a norm
    # (permutations, sign flips) and ties and evictions of the max are common.
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(
        st.integers(1, 8),
        st.lists(
            st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.0, 0.1]), min_size=2, max_size=2),
            min_size=1,
            max_size=60,
        ),
    )
    def test_matches_window_scan(self, window, pushes):
        tr, ref = NormTracker(window), ScanNormTracker(window)
        for vec in pushes:
            tr.push(np.array(vec))
            ref.push(np.array(vec))
            assert len(tr) == len(ref)
            got = tr.max_vector
            assert np.array_equal(got, ref.max_vector)
            assert tr.max_norm == ref.max_norm
            assert np.array_equal(tr.median_vector, ref.median_vector)
            got[:] = 99.0  # reads are copies
            assert np.array_equal(tr.max_vector, ref.max_vector)


class TestCovGapBound:
    def test_zero_residual(self):
        fac = eig_factorize(np.diag([2.0, 1.0]))
        bound, conf = cov_gap_bound(np.zeros(2), fac, 0.5, 0.01)
        assert bound == 0.0
        assert conf == pytest.approx(0.99)

    def test_zero_theta(self):
        fac = eig_factorize(np.diag([2.0, 1.0]))
        bound, _ = cov_gap_bound(np.array([1.0, 1.0]), fac, 0.0, 0.01)
        assert bound == 0.0

    def test_monte_carlo_domination(self, rng):
        # statistic gap dominated by the bound at confidence 1-gamma_cov;
        # spectra at unit scale or above, where the eigenvalue-gap argument
        # transfers to the inverse-based statistic
        delta_l, eps_cov, gamma_cov = 0.5, 2.0, 0.1
        n, hits = 2000, 0
        for _ in range(n):
            d = int(rng.integers(2, 7))
            s = random_psd(rng, d, (1.0, 10.0))
            fac = eig_factorize(s)
            r = np.linalg.cholesky(s) @ rng.standard_normal(d)
            theta_l = laplace_max_bound(delta_l, eps_cov, gamma_cov, d)
            bound, _ = cov_gap_bound(r, fac, theta_l, gamma_cov)
            pert = perturb_covariance(s, delta_l, eps_cov, rng)
            t_orig = float(np.sum(whiten(r, fac) ** 2))
            t_cov = float(np.sum(whiten(r, pert.fac) ** 2))
            if abs(t_cov - t_orig) <= bound:
                hits += 1
        freq = hits / n
        assert freq >= (1 - gamma_cov) - 3 * np.sqrt(gamma_cov * (1 - gamma_cov) / n)


class TestResidualGapInterval:
    def test_symmetric_collapse(self):
        theta, sigma, p = 2.0, 1.5, 3
        lo, hi, _, swapped = residual_gap_interval(np.zeros(p), sigma, theta, 0.05)
        point = theta**2 / (sigma**2 * p)
        assert lo == pytest.approx(point)
        assert hi == pytest.approx(point)
        assert not swapped

    def test_gamma_to_one_kills_probability(self):
        tau = np.array([1.0, 2.0])
        _, _, joint, _ = residual_gap_interval(tau, 1.0, 2.0, 1.0 - 1e-12)
        assert joint < 1e-10

    def test_negative_sum_flags_swap(self):
        lo, hi, _, swapped = residual_gap_interval(np.array([-3.0]), 1.0, 1.0, 0.05)
        assert swapped
        assert lo <= hi

    def test_empirical_coverage(self, rng):
        # scaled statistic gap lands in [L, U] at least as often as the
        # computed joint probability (nonnegative tau components)
        tau = np.array([2.0])
        sigma, gamma_r = 1.0, 0.05
        eps_r, delta_r = 0.761, 0.3
        theta = gaussian_sum_bound(sigma, eps_r, delta_r, 1)
        lo, hi, joint, _ = residual_gap_interval(tau, sigma, theta, gamma_r)
        n = 50_000
        e = sigma * rng.standard_normal((n, 1))
        diff = ((tau + e) ** 2).sum(axis=1) - float(tau @ tau)
        cover = np.mean((diff / sigma**2 >= lo) & (diff / sigma**2 <= hi))
        assert cover >= joint


class TestType1UpperBound:
    def test_equals_alpha_hat_when_gap_absent_p1(self):
        # p=1 with current == max and res_energy == r_max^2 makes the two
        # case weights sum to one exactly, so the bound is alpha_hat itself
        inputs = make_inputs([1.3], res_energy=1.0, r_max=1.0, p=1, d=3)
        for ah in (0.01, 0.05, 0.2):
            assert type1_upper_bound(ah, inputs) == pytest.approx(ah, rel=1e-9)

    def test_alpha_to_one_endpoint(self):
        inputs = make_inputs([1.0, 0.5, 0.2])
        w1, w2 = inputs._weights()
        val = type1_upper_bound(1.0 - 1e-9, inputs)
        assert val == pytest.approx(min(1.0, w1 + w2), abs=1e-6)

    def test_monotone_in_alpha_hat(self):
        inputs = make_inputs([1.0, 0.5, 0.2], tau_max=[2.0, 1.0, 0.4])
        grid = [1e-4, 1e-3, 1e-2, 0.05, 0.2]
        vals = [type1_upper_bound(a, inputs) for a in grid]
        assert np.all(np.diff(vals) > 0)

    def test_max_gap_inflates_bound(self):
        base = make_inputs([1.0, 0.5, 0.2])
        gapped = make_inputs([1.0, 0.5, 0.2], tau_max=[4.0, 2.0, 1.0])
        assert type1_upper_bound(0.01, gapped) > type1_upper_bound(0.01, base)


class TestEquivalentAlpha:
    def test_exact_degeneration_p1(self):
        # covariance-noise weights collapse cleanly only at p=1 (cold start,
        # current residual energy equal to the window max)
        inputs = make_inputs([1.3], res_energy=1.0, r_max=1.0, p=1, d=3)
        for target in (0.05, 0.01):
            inv = equivalent_alpha(target, inputs)
            assert not inv.degenerate
            assert inv.alpha_hat == pytest.approx(target, rel=1e-6)
            assert inv.achieved == pytest.approx(target, rel=1e-6)

    def test_monotone_in_target(self):
        inputs = make_inputs([1.0, 0.8, 0.5], tau_max=[2.5, 1.5, 1.0])
        hats = [
            equivalent_alpha(a, inputs).alpha_hat for a in (0.01, 0.05, 0.1)
        ]
        assert np.all(np.diff(hats) > 0)

    def test_degenerate_flag(self):
        # res_energy above r_max^2 drives the gamma-tail weight low enough
        # that the bound at the target is already below it
        inputs = make_inputs([1.0, 0.8, 0.5], res_energy=2.0, r_max=1.0, gamma_cov=0.05)
        inv = equivalent_alpha(0.05, inputs)
        assert inv.degenerate
        assert inv.alpha_hat == 0.05
        assert inv.achieved <= 0.05

    def test_mc_estimate_attached(self):
        # simulate the bound's two survival terms at alpha_hat: the scaled
        # statistic is ||z + tau/sigma||^2 under the current and the max tau
        inputs = make_inputs([1.0, 0.8, 0.5], tau_max=[2.0, 1.2, 0.8])
        inv = equivalent_alpha(0.05, inputs)
        w1, w2 = inputs._weights()
        q = noncentral_chi2_quantile(inv.alpha_hat, inputs.p, inputs.scaled_nc_current())
        z = np.random.default_rng(3).standard_normal((20_000, inputs.p))
        s_cur = np.mean(((z + inputs.tau_cov_hat / inputs.sigma) ** 2).sum(axis=1) > q)
        s_max = np.mean(((z + inputs.tau_cov_max / inputs.sigma) ** 2).sum(axis=1) > q)
        estimate = w1 * s_cur + w2 * s_max
        se = math.sqrt((w1**2 * s_cur * (1 - s_cur) + w2**2 * s_max * (1 - s_max)) / len(z))
        assert abs(estimate - inv.achieved) < max(0.05 * 0.05, 4 * se)

    def test_underflowing_r_max_is_a_degenerate_window(self):
        # r_max^2 underflows to 0: the limit of the gamma tail, not a division by zero
        zero = make_inputs([1.0, 0.8, 0.5], res_energy=0.0, r_max=0.0)
        tiny = make_inputs([1.0, 0.8, 0.5], res_energy=0.0, r_max=1e-200)
        assert tiny._weights() == zero._weights()
        assert equivalent_alpha(0.05, tiny) == equivalent_alpha(0.05, zero)


class TestMisclassificationBounds:
    def test_zero_weights_zero_bounds(self, monkeypatch):
        inputs = make_inputs([1.0, 0.5, 0.2])
        monkeypatch.setattr(BoundInputs, "_weights", lambda self: (0.0, 0.0))
        miss, fa = misclassification_bounds(5.0, 0.05, 0.01, inputs)
        assert miss == 0.0
        assert fa == 0.0

    def test_false_alarm_below_weight_sum(self):
        inputs = make_inputs([1.0, 0.5, 0.2], tau_max=[2.0, 1.0, 0.4])
        w1, w2 = inputs._weights()
        _, fa = misclassification_bounds(2.0, 0.05, 0.01, inputs)
        assert fa <= w1 + w2 + 1e-12

    def test_clamped_to_unit_interval(self):
        inputs = make_inputs([1.0, 0.5, 0.2])
        miss, fa = misclassification_bounds(50.0, 0.05, 1e-6, inputs)
        assert 0.0 <= miss <= 1.0
        assert 0.0 <= fa <= 1.0

    def test_negative_pivot_gives_zero_cdf(self):
        # t_orig far below the central threshold makes the pivot negative:
        # the miss bound collapses, the false-alarm bound hits the weight sum
        inputs = make_inputs([0.1, 0.1, 0.1], sigma=0.01)
        w1, w2 = inputs._weights()
        miss, fa = misclassification_bounds(-50.0, 0.05, 0.5, inputs)
        assert miss == 0.0
        assert fa == pytest.approx(min(1.0, w1 + w2))


class TestCrPrivacyLoss:
    def test_identity_closed_form(self):
        d, delta_r, sigma, theta, gamma_r = 3, 2.0, 1.5, 4.0, 0.05
        loss, prob = cr_privacy_loss(delta_r, sigma, np.eye(d), theta, d, gamma_r)
        expect = delta_r / sigma**2 * d**2 * (theta**2 / d + 1.0 / (2 * d))
        assert loss == pytest.approx(expect)
        assert prob == pytest.approx(1 - (1 - gamma_r) ** d)

    def test_monotone_decreasing_in_sigma(self):
        losses = [
            cr_privacy_loss(1.0, s, np.eye(3), 2.0, 3, 0.05)[0] for s in (0.5, 1.0, 2.0, 4.0)
        ]
        assert np.all(np.diff(losses) < 0)

    def test_scaling_covariance_reduces_loss(self, rng):
        s = random_psd(rng, 4, (0.5, 3.0))
        base = cr_privacy_loss(1.0, 1.0, s, 2.0, 4, 0.05)[0]
        scaled = cr_privacy_loss(1.0, 1.0, 3.0 * s, 2.0, 4, 0.05)[0]
        assert scaled < base

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            cr_privacy_loss(1.0, 1.0, np.zeros((2, 2)), 1.0, 2, 0.05)


class TestStatisticPrivacyProfile:
    def test_large_sigma_tends_to_base_budget(self):
        delta = np.array([1.0, 0.0, 0.0])
        eps1, d1 = statistic_privacy_profile(2.0, 10.0, delta, np.eye(3))
        eps2, d2 = statistic_privacy_profile(2.0, 1000.0, delta, np.eye(3))
        assert eps2 < eps1
        assert eps2 == pytest.approx(2.0, abs=1e-5)
        assert d1 == 0.0 and d2 == 0.0

    def test_axis_delta_closed_form(self):
        c = 2.0
        delta = np.array([c, 0.0])
        eps, _ = statistic_privacy_profile(1.0, 3.0, delta, np.eye(2))
        assert eps == pytest.approx(1.0 + c**2 / (2 * 9.0))

    def test_above_lower_bound_delta_positive(self):
        delta = np.array([1.0, 1.0])
        eps_lb, _ = statistic_privacy_profile(1.0, 2.0, delta, np.eye(2))
        _, dprime = statistic_privacy_profile(1.0, 2.0, delta, np.eye(2), eps_prime=eps_lb + 0.5)
        assert 0.0 < dprime <= 1.0
        # a = 2, b = sqrt(2), sigma^2 (eps' - eps_cov) = 3: u = (3 - a/2)/b = sqrt(2)
        u = sd = math.sqrt(2.0)
        assert dprime == pytest.approx(sps.norm.cdf(u, scale=sd) - sps.norm.cdf(-u, scale=sd), rel=1e-12)

    def test_nonpositive_quadratic_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            statistic_privacy_profile(1.0, 1.0, np.array([0.0, 1.0]), np.diag([1.0, -1.0]))


class TestEvaluatorPurity:
    def test_bit_identical_reruns(self):
        inputs = make_inputs([1.0, 0.7, 0.3], tau_max=[2.0, 1.1, 0.5], res_energy=0.8)
        pairs = [
            (type1_upper_bound(0.01, inputs), type1_upper_bound(0.01, inputs)),
            (
                misclassification_bounds(4.0, 0.05, 0.01, inputs),
                misclassification_bounds(4.0, 0.05, 0.01, inputs),
            ),
            (
                residual_gap_interval(np.array([1.0, 0.5]), 1.0, 2.0, 0.05),
                residual_gap_interval(np.array([1.0, 0.5]), 1.0, 2.0, 0.05),
            ),
        ]
        for a, b in pairs:
            assert a == b
        inv_a = equivalent_alpha(0.05, inputs)
        inv_b = equivalent_alpha(0.05, inputs)
        assert inv_a == inv_b


class TestBoundReport:
    def test_flat_keys_complete(self):
        report = BoundReport(
            cov_gap_bound=0.1,
            cov_gap_confidence=0.99,
            gap_low=-1.0,
            gap_high=2.0,
            gap_joint_prob=0.5,
            type1_upper=0.05,
            alpha_hat=0.01,
            miss_bound=1.0,
            false_alarm_bound=0.2,
            cr_loss=10.0,
            cr_loss_prob=0.03,
            eps_prime=100.0,
            delta_prime=0.0,
            seed=7,
        )
        flat = report.to_flat()
        assert list(flat) == [f.name for f in dataclasses.fields(BoundReport)]
        assert flat["seed"] == "7" and flat["alpha_hat"] == "0.01"


def public_inversion(alpha_target, inputs, search):
    """equivalent_alpha on the public bound, narrowing by ``search``.

    ``search(bound, target, lo, f_lo, hi, f_hi)`` returns the final (lo, f_lo,
    hi). Returns (alpha_hat, achieved, degenerate, branch, hi), hi None
    outside the search branch.
    """
    bound = lambda a: type1_upper_bound(a, inputs)  # noqa: E731
    hi = alpha_target
    f_hi = bound(hi)
    if f_hi <= alpha_target:
        return hi, f_hi, f_hi < alpha_target * (1.0 - ALPHA_RTOL), "met", None
    lo = ALPHA_FLOOR
    f_lo = bound(lo)
    if f_lo > alpha_target:
        return lo, f_lo, True, "floor", None
    lo, f_lo, hi = search(bound, alpha_target, lo, f_lo, hi, f_hi)
    return lo, f_lo, False, "search", hi


def itp_search(bound, target, lo, f_lo, hi, f_hi):
    """The ITP of ``bounds._itp_invert``, returning the final bracket."""
    x_lo, x_hi = math.log(lo), math.log(hi)
    eps = 0.5 * math.log1p(ALPHA_RTOL)
    n_max = math.ceil(math.log2((x_hi - x_lo) / (2.0 * eps))) + 1
    eps *= 1.0 - 2.0**-6
    kappa_1 = 0.2 / (x_hi - x_lo)
    for j in range(200):
        width = x_hi - x_lo
        x_half = 0.5 * (x_lo + x_hi)
        # interpolate in alpha, truncate towards the midpoint, project
        x_f = math.log(lo + (target - f_lo) * (hi - lo) / (f_hi - f_lo))
        sign = 1.0 if x_half - x_f >= 0.0 else -1.0
        delta = kappa_1 * width * width
        x_t = x_f + sign * delta if delta <= abs(x_half - x_f) else x_half
        r = max(eps * 2.0 ** (n_max - j) - 0.5 * width, 0.0)
        x = x_t if abs(x_t - x_half) <= r else x_half - sign * r
        mid = math.exp(x)
        if not lo < mid < hi:
            mid = math.sqrt(lo * hi)
        f_mid = bound(mid)
        if f_mid > target:
            hi, f_hi, x_hi = mid, f_mid, math.log(mid)
        else:
            lo, f_lo, x_lo = mid, f_mid, math.log(mid)
        if hi / lo < 1.0 + ALPHA_RTOL:
            break
    return lo, f_lo, hi


def reference_inversion(alpha_target, inputs):
    """equivalent_alpha's ITP written on the public bound."""
    return public_inversion(alpha_target, inputs, itp_search)


def bisection_inversion(alpha_target, inputs):
    """The log-space bisection equivalent_alpha ran before ITP, on the public bound."""
    return public_inversion(
        alpha_target, inputs, lambda *bracket: (*bisect_invert(*bracket), None)
    )


def inversion_grid():
    """Inputs and targets that reach every branch of the inversion."""
    rng = np.random.default_rng(2024)
    cases = []
    for p in (1, 2, 3):
        for inflate in (1.0, 1.5, 3.0, 300.0):  # 300: bound above target at the floor
            for res_energy, r_max in ((1.0, 1.0), (2.0, 1.0), (0.3, 2.0), (0.0, 0.0), (1.0, 0.0)):
                tau = rng.normal(size=p)
                inputs = make_inputs(
                    tau, tau_max=tau * inflate, res_energy=res_energy, r_max=r_max,
                    p=p, gamma_cov=0.05,
                )
                for target in (0.01, 0.05, 0.2):
                    cases.append((target, inputs))
    return cases


def count_evaluations(monkeypatch, solve):
    """Calls of ``solve()`` -> (result, bound evaluations it made)."""
    calls = []
    quantile = bounds.noncentral_chi2_quantile

    def counting(*args):
        calls.append(1)
        return quantile(*args)

    monkeypatch.setattr(bounds, "noncentral_chi2_quantile", counting)
    try:
        return solve(), len(calls)
    finally:
        monkeypatch.setattr(bounds, "noncentral_chi2_quantile", quantile)


def check_against_references(target, inputs, monkeypatch):
    """Every property the inversion keeps; returns (branch, degenerate, evaluations)."""
    inv, n_itp = count_evaluations(monkeypatch, lambda: equivalent_alpha(target, inputs))
    alpha_hat, achieved, degenerate, branch, hi = reference_inversion(target, inputs)
    # bit for bit the ITP on the public bound, so the private bound is the public one
    assert (inv.alpha_hat, inv.achieved, inv.degenerate) == (alpha_hat, achieved, degenerate)
    if hi is not None:  # the bracket contract, read on the public bound
        assert type1_upper_bound(alpha_hat, inputs) == achieved <= target
        assert type1_upper_bound(hi, inputs) > target
        assert alpha_hat < hi and hi / alpha_hat < 1.0 + ALPHA_RTOL
    (b_hat, _, b_degenerate, b_branch, _), n_bisect = count_evaluations(
        monkeypatch, lambda: bisection_inversion(target, inputs)
    )
    assert (branch, degenerate) == (b_branch, b_degenerate)
    assert abs(alpha_hat - b_hat) <= ALPHA_RTOL * alpha_hat
    assert n_itp <= n_bisect + 1  # ITP's worst case: one step over bisection
    return branch, degenerate, n_itp


class TestInversionMatchesPublicBound:
    def test_bit_identical_to_reference_itp(self, monkeypatch):
        branches, searches = set(), []
        for target, inputs in inversion_grid():
            branch, degenerate, n_itp = check_against_references(target, inputs, monkeypatch)
            branches.add((branch, degenerate))
            if branch == "search":
                searches.append(n_itp)
        # a bracket search, a met target, a degenerate target and the floor all occur
        assert branches >= {("search", False), ("met", False), ("met", True), ("floor", True)}
        # bisection takes 47 evaluations on each of these
        assert np.median(searches) <= 12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        p=st.integers(1, 3),
        tau=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        inflate=st.floats(1.0, 50.0),
        res_energy=st.floats(0.0, 3.0),
        r_max=st.floats(0.0, 3.0),
        gamma_cov=st.floats(0.001, 0.2),
        target=st.floats(1e-6, 0.5),
    )
    def test_random_inputs(self, p, tau, inflate, res_energy, r_max, gamma_cov, target):
        tau = np.array(tau[:p])
        inputs = make_inputs(
            tau, tau_max=tau * inflate, res_energy=res_energy, r_max=r_max, p=p,
            gamma_cov=gamma_cov,
        )
        with pytest.MonkeyPatch.context() as monkeypatch:
            check_against_references(target, inputs, monkeypatch)

    def test_weights_match_stats_wrappers(self):
        # the scipy.stats gamma survival and exponential CDF as the reference
        for _, inputs in inversion_grid():
            params = inputs.params
            theta_l = params.theta_l(inputs.d)
            arg = inputs.res_energy * theta_l
            if inputs.r_max <= 0.0:
                w1 = 1.0 if arg <= 0.0 else 0.0
            else:
                scale = params.delta_l * inputs.r_max**2 / params.eps_cov
                w1 = sps.gamma.sf(arg, a=inputs.p, scale=scale)
            w2 = sps.expon.cdf(theta_l, scale=params.delta_l / params.eps_cov) ** inputs.p
            assert inputs._weights() == pytest.approx((w1, w2), rel=1e-10, abs=0.0)

    def test_weights_evaluated_once_per_inversion(self, monkeypatch):
        calls = []
        weights = BoundInputs._weights

        def counting(self):
            calls.append(1)
            return weights(self)

        monkeypatch.setattr(BoundInputs, "_weights", counting)
        for target, inputs in inversion_grid()[:24]:
            calls.clear()
            equivalent_alpha(target, inputs)
            assert len(calls) == 1
